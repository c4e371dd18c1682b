"""Shared retry backoff: exponential growth with deterministic jitter.

Every backoff in the tree sleeps through this one helper, so backoff
semantics cannot drift between subsystems.  It has three users:
:mod:`repro.util.retry` (the network reconnect budget of the agent link
and the service client), ``faults/injector.Attempts`` (fault-site
retries) and ``cluster/health`` (quarantined-agent re-probes).

The delay grows exponentially with the attempt number and is capped,
with *equal jitter* layered on top: attempt ``k`` sleeps a uniform draw
from ``[raw/2, raw)`` where ``raw = min(base * factor**k, cap)``, which
spreads out retriers with distinct seeds without ever collapsing the
delay to zero.

The jitter is **deterministic under a seed**: the uniform draw is the
same process-stable FNV hash (:func:`repro.util.hashing.stable_hash`)
the fault plans roll with, keyed on ``(seed, attempt)``.  Fault-matrix
tests that pin exact retry timelines stay reproducible — same seed,
same sleeps — while distinct seeds (distinct fault plans, agent links,
health-probed agents) spread out.  Service clients all use seed 0, so a
fleet that saw the same drop backs off in lockstep.
"""

from __future__ import annotations

from repro.util.hashing import stable_hash

#: Resolution of the deterministic uniform draw.
_DRAW_BITS = 53


def jitter_fraction(seed: int, attempt: int) -> float:
    """The deterministic uniform draw in ``[0, 1)`` for one retry."""
    h = stable_hash((seed, "backoff", attempt))
    return (h % (2 ** _DRAW_BITS)) / float(2 ** _DRAW_BITS)


def exponential_jitter(
    attempt: int,
    base: float,
    cap: float,
    seed: int = 0,
    factor: float = 2.0,
) -> float:
    """Delay before retry ``attempt`` (0-based): capped exponential with
    deterministic equal jitter.

    Returns a value in ``[raw/2, raw)`` where ``raw`` is the classic
    ``min(base * factor**attempt, cap)`` schedule; ``base <= 0`` (or a
    zero cap) short-circuits to 0.0 so "no backoff" configurations never
    sleep at all.
    """
    if base <= 0 or cap <= 0:
        return 0.0
    raw = min(base * (factor ** max(0, attempt)), cap)
    half = raw / 2.0
    return half + half * jitter_fraction(seed, attempt)
