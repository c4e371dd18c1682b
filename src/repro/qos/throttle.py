"""Token-bucket I/O throttling: the real enforcement half of QoS.

A :class:`TokenBucket` meters bytes against a refill rate on the
monotonic clock.  The runtimes charge it on their hot I/O edges — chunk
ingest reads (:meth:`repro.chunking.chunk.Chunk.load`) and spill run
writes (:class:`repro.spill.runfile.RunWriter` via the spill manager) —
so a job with an ``io_budget`` consumes disk bandwidth at its assigned
rate and no faster.  Throttling only ever *delays* work; it never drops
or reorders bytes, which is why output digests are byte-identical under
any throttle settings.

The bucket uses a debt model: an acquire larger than the burst allowance
is granted immediately and driven into token debt, and the *next*
acquire waits the debt out.  That keeps single large transfers (a whole
ingest chunk) simple while still converging to the configured average
rate.

``qos.throttle.stall`` is the chaos hook: an armed fault plan injects
refill stalls (extra waiting, never data damage) that the job-level
deadline / degradation ladder absorbs like any other slow device.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Hashable

from repro.errors import ConfigError
from repro.faults.plan import SITE_QOS_THROTTLE_STALL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qos.allocator import BandwidthAllocator

#: Injected stall length when the fault spec does not say (seconds).
DEFAULT_STALL_S = 0.05

#: Default burst allowance, in seconds of tokens at the configured rate.
DEFAULT_BURST_S = 1.0


class TokenBucket:
    """A thread-safe token bucket over the monotonic clock.

    Parameters
    ----------
    rate_bps:
        Refill rate in bytes (tokens) per second; must be positive.
    burst_bytes:
        Token cap — the largest instantaneous burst the bucket allows to
        accumulate.  Defaults to one second of tokens.  The bucket
        starts full.
    clock / sleep:
        Injectable for deterministic tests; default to
        :func:`time.monotonic` / :func:`time.sleep`.
    injector / scope:
        Arm the ``qos.throttle.stall`` fault site: positive decisions
        add an extra stall (``spec.duration_s`` or the default) to the
        computed wait.
    """

    def __init__(
        self,
        rate_bps: float,
        burst_bytes: float | None = None,
        *,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
        injector=None,
        scope: Hashable = (),
    ) -> None:
        if not rate_bps > 0:
            raise ConfigError(f"TokenBucket rate must be positive, got {rate_bps!r}")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = float(
            burst_bytes if burst_bytes is not None
            else rate_bps * DEFAULT_BURST_S
        )
        if not self.burst_bytes > 0:
            raise ConfigError("TokenBucket burst must be positive")
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        self._injector = injector
        self._scope = scope
        self._lock = threading.Lock()
        self._tokens = self.burst_bytes  # starts full; may go negative (debt)
        self._last_refill = self._clock()
        self._acquires = 0
        #: Counters surfaced on JobResult: bytes metered, waiting done.
        self.tokens_consumed = 0
        self.wait_s = 0.0
        self.waits = 0
        self.stalls = 0

    # -- mechanics ---------------------------------------------------------

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._last_refill
        self._last_refill = now
        if elapsed > 0:
            self._tokens = min(
                self.burst_bytes, self._tokens + elapsed * self.rate_bps
            )

    def set_rate(self, rate_bps: float) -> None:
        """Re-rate the bucket (allocator shares changed); debt carries over."""
        if not rate_bps > 0:
            raise ConfigError("TokenBucket rate must be positive")
        with self._lock:
            self._refill_locked()  # integrate at the old rate first
            self.rate_bps = float(rate_bps)

    @property
    def tokens(self) -> float:
        """Current token balance (negative = accumulated debt)."""
        with self._lock:
            self._refill_locked()
            return self._tokens

    def acquire(self, amount: int, attempt: int = 0) -> float:
        """Charge ``amount`` bytes; sleeps the debt out.  Returns the wait.

        The charge is taken immediately (debt model), so concurrent
        acquirers serialize their waiting fairly: each sees the debt the
        previous ones left and pays it down before proceeding.
        """
        if amount < 0:
            raise ConfigError(f"cannot acquire {amount!r} tokens")
        wait = 0.0
        with self._lock:
            self._refill_locked()
            self._tokens -= amount
            self.tokens_consumed += amount
            self._acquires += 1
            seq = self._acquires
            if self._tokens < 0:
                wait = -self._tokens / self.rate_bps
        if self._injector is not None:
            decision = self._injector.check(
                SITE_QOS_THROTTLE_STALL,
                scope=(self._scope, seq), attempt=attempt,
            )
            if decision is not None:
                duration = decision.spec.duration_s
                wait += duration if duration is not None else DEFAULT_STALL_S
                with self._lock:
                    self.stalls += 1
        if wait > 0:
            with self._lock:
                self.wait_s += wait
                self.waits += 1
            self._sleep(wait)
        return wait

    def counters(self) -> dict[str, float]:
        """The bucket's tallies, ready to merge into result counters."""
        with self._lock:
            out: dict[str, float] = {
                "throttle_bytes": self.tokens_consumed,
                "throttle_wait_s": round(self.wait_s, 6),
                "throttle_waits": self.waits,
                "io_budget_bps": int(self.rate_bps),
            }
            if self.stalls:
                out["throttle_stalls"] = self.stalls
            return out


def bucket_from_options(options, injector=None) -> "TokenBucket | None":
    """The job's ingest/spill bucket, or None on the fast path.

    ``options.io_budget is None`` (the default) returns None — no bucket
    object, no locks, no clock reads — so unthrottled runs pay nothing
    for the QoS layer (every ``BENCHMARK.json`` workload runs this path).
    """
    budget = getattr(options, "io_budget", None)
    if budget is None:
        return None
    burst = getattr(options, "io_burst", None)
    return TokenBucket(
        float(budget),
        float(burst) if burst is not None else None,
        injector=injector,
        scope=getattr(options, "tenant", "default"),
    )


class TenantBuckets:
    """Per-tenant token buckets fed by an allocator's current shares.

    The registry re-runs the allocator whenever a tenant's demand
    changes and re-rates every live bucket to its new share, so the
    enforced rates always reflect the current contention — the service
    uses the same computation to assign dispatch-time budgets, and the
    in-process tests drive real concurrent throttled I/O through it.
    """

    def __init__(
        self,
        allocator: "BandwidthAllocator",
        *,
        burst_s: float = DEFAULT_BURST_S,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.allocator = allocator
        self.burst_s = burst_s
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._demands: dict[str, tuple[float, float, int]] = {}
        self._buckets: dict[str, TokenBucket] = {}

    def set_demand(
        self, tenant: str, demand: float,
        weight: float = 1.0, priority: int = 0,
    ) -> float:
        """(Re)declare one tenant's demand; returns its new share."""
        with self._lock:
            self._demands[tenant] = (float(demand), float(weight), priority)
            return self._recompute_locked()[tenant]

    def remove(self, tenant: str) -> None:
        """Drop a tenant; the survivors immediately absorb its share."""
        with self._lock:
            self._demands.pop(tenant, None)
            self._buckets.pop(tenant, None)
            self._recompute_locked()

    def _recompute_locked(self) -> dict[str, float]:
        self.allocator.reset()
        for tenant, (demand, weight, priority) in self._demands.items():
            self.allocator.register(
                tenant, demand, weight=weight, priority=priority
            )
        shares = self.allocator.allocate()
        for tenant, share in shares.items():
            rate = max(share, 1.0)  # never rate a bucket at zero
            bucket = self._buckets.get(tenant)
            if bucket is None:
                self._buckets[tenant] = TokenBucket(
                    rate, rate * self.burst_s,
                    clock=self._clock, sleep=self._sleep,
                )
            else:
                bucket.set_rate(rate)
        return shares

    def bucket(self, tenant: str) -> TokenBucket:
        """The tenant's live bucket (must have declared a demand)."""
        with self._lock:
            if tenant not in self._buckets:
                raise ConfigError(f"tenant {tenant!r} has no declared demand")
            return self._buckets[tenant]

    def shares(self) -> dict[str, float]:
        """Current share per tenant (a fresh allocation pass)."""
        with self._lock:
            return dict(self._recompute_locked()) if self._demands else {}

    def tenants(self) -> tuple[str, ...]:
        """Tenant names with a currently declared demand."""
        with self._lock:
            return tuple(self._demands)
