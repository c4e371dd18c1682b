"""Typed blocking client for the job service.

One :class:`ServiceClient` talks the framed protocol over TCP.  Every
RPC opens a fresh connection (requests are idempotent — submission
dedupes on the spec hash, results are durable), which is what makes the
bounded retry loop safe: a connection the daemon severed mid-exchange
(the ``service.conn.drop`` fault site, or a real network flap) is simply
retried against a new socket.

Typed failures: admission rejections raise
:class:`~repro.errors.AdmissionError` (with the server's rejection
code), unknown jobs raise :class:`~repro.errors.JobNotFound`, transport
damage raises :class:`~repro.errors.ProtocolError`, and everything else
service-side raises :class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import (
    AdmissionError,
    JobNotFound,
    ProtocolError,
    ServiceError,
)
from repro.service import protocol
from repro.service.jobspec import ServiceJobSpec
from repro.service.state import JobRecord, ServiceState
from repro.util.backoff import exponential_jitter

#: Error codes that map to AdmissionError.
_ADMISSION_CODES = (
    protocol.ERR_QUEUE_FULL,
    protocol.ERR_BUDGET_EXCEEDED,
    protocol.ERR_TENANT_BUDGET,
    protocol.ERR_OVERLOADED,
    protocol.ERR_DRAINING,
)


class ServiceClient:
    """Blocking client bound to one daemon endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        max_retries: int = 3,
        retry_delay_s: float = 0.05,
        retry_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.retry_delay_s = retry_delay_s
        self.retry_seed = retry_seed

    def _backoff(self, attempt: int) -> float:
        """Seeded exponential backoff with jitter for retry ``attempt``.

        Jitter decorrelates a fleet of clients that all saw the same
        drop (no thundering-herd reconnect); the seed keeps each
        client's delays reproducible under test.
        """
        return exponential_jitter(
            attempt,
            base=self.retry_delay_s,
            cap=self.retry_delay_s * 8,
            seed=self.retry_seed,
        )

    @classmethod
    def from_state_dir(cls, state_dir: "str | Path", **kw: Any) -> "ServiceClient":
        """Connect to the daemon advertised in ``state_dir/endpoint.json``."""
        host, port = ServiceState(Path(state_dir)).read_endpoint()
        return cls(host, port, **kw)

    # -- transport -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        """A fresh connection; raises raw ``OSError`` on failure so the
        retry loops treat a refused/reset *connect* exactly like a
        severed mid-stream read — both get a fresh socket and another
        attempt, and only exhaustion surfaces a typed ServiceError."""
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )

    def _rpc(self, msg: dict[str, Any]) -> dict[str, Any]:
        """One request/reply exchange, retried over a fresh socket.

        Retryable: connect failures (``ConnectionRefusedError``…), a
        mid-stream ``ECONNRESET``/``EOF`` during the response read, a
        socket timeout, and frames torn (``truncated``) or stalled
        (``stalled``) mid-transfer — every RPC is idempotent, so a
        reply lost in transit is safe to re-request.  Frame *damage*
        (bad CRC, bad magic, version skew) is not retried: garbage from
        a live peer will be garbage again.
        """
        drops = 0
        while True:
            try:
                with self._connect() as sock:
                    protocol.send_frame(sock, msg)
                    reply = protocol.recv_frame(sock)
            except (EOFError, OSError, ProtocolError) as exc:
                drops += 1
                self._dropped(
                    exc, drops, f"service at {self.host}:{self.port} was "
                    "unreachable or dropped the connection",
                )
            else:
                return self._check_reply(reply)

    def _dropped(self, exc: Exception, drops: int, what: str) -> None:
        """An exchange failed, the ``drops``-th time in a row: re-raise
        what a fresh socket cannot cure, give up past ``max_retries``,
        else back off and let the caller go again."""
        if isinstance(exc, ProtocolError) and exc.reason not in (
            "truncated", "stalled"
        ):
            raise exc
        if drops > self.max_retries:
            raise ServiceError(f"{what} {drops} time(s): {exc}") from exc
        time.sleep(self._backoff(drops - 1))

    @staticmethod
    def _check_reply(reply: "dict[str, Any] | bytes") -> dict[str, Any]:
        if not isinstance(reply, dict):
            raise ProtocolError(
                "expected a JSON reply frame", reason="bad-payload"
            )
        if reply.get("ok"):
            return reply
        error = reply.get("error") or {}
        code = error.get("code", "")
        message = error.get("message", "service error")
        if code in _ADMISSION_CODES:
            raise AdmissionError(message, code=code)
        if code == protocol.ERR_NOT_FOUND:
            raise JobNotFound(message)
        raise ServiceError(f"[{code}] {message}")

    # -- RPCs ----------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Liveness + queue/counter snapshot from the daemon."""
        return self._rpc(protocol.request(protocol.REQ_PING))

    def submit(
        self, spec: ServiceJobSpec, rerun: bool = False
    ) -> dict[str, Any]:
        """Submit a job; returns ``{job_id, state, reattached, position}``."""
        return self._rpc(protocol.request(
            protocol.REQ_SUBMIT, spec=spec.to_dict(), rerun=rerun,
        ))

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        """One job's record, or every known job plus service counters."""
        msg = protocol.request(protocol.REQ_STATUS)
        if job_id is not None:
            msg["job_id"] = job_id
        return self._rpc(msg)

    def result(self, job_id: str) -> dict[str, Any]:
        """The finished job's record + stored report (DONE jobs)."""
        return self._rpc(protocol.request(protocol.REQ_RESULT, job_id=job_id))

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued or running job (terminal states are a no-op)."""
        return self._rpc(protocol.request(protocol.REQ_CANCEL, job_id=job_id))

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain and exit."""
        return self._rpc(protocol.request(protocol.REQ_SHUTDOWN))

    def agents(self) -> dict[str, Any]:
        """The agent pool snapshot: per-agent state, latency, inflight."""
        return self._rpc(protocol.request(protocol.REQ_AGENTS))

    def register_agent(self, addr: str) -> dict[str, Any]:
        """Add one agent to the pool; returns ``{addr, created}``."""
        return self._rpc(protocol.request(protocol.REQ_REGISTER, addr=addr))

    def deregister_agent(self, addr: str) -> dict[str, Any]:
        """Drop one agent from the pool; returns ``{removed}``."""
        return self._rpc(protocol.request(protocol.REQ_DEREGISTER, addr=addr))

    # -- waiting -------------------------------------------------------------

    def wait(
        self,
        job_id: str,
        on_transition: "Callable[[JobRecord], None] | None" = None,
        timeout_s: float | None = None,
    ) -> JobRecord:
        """Stream state transitions until the job finishes.

        Uses the server's ``watch`` stream; a dropped stream re-watches
        (transitions may be re-observed, never lost).  ``on_transition``
        fires once per distinct observed state.
        """
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        last_state: str | None = None
        drops = 0
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(last state: {last_state})"
                )
            try:
                with self._connect() as sock:
                    protocol.send_frame(sock, protocol.request(
                        protocol.REQ_WATCH, job_id=job_id,
                    ))
                    while True:
                        reply = self._check_reply(protocol.recv_frame(sock))
                        record = JobRecord.from_dict(reply["job"])
                        drops = 0
                        if record.state != last_state:
                            last_state = record.state
                            if on_transition is not None:
                                on_transition(record)
                        if record.finished:
                            return record
            except (EOFError, OSError, ProtocolError) as exc:
                drops += 1
                self._dropped(exc, drops, f"watch stream for {job_id} dropped")

    def submit_and_wait(
        self,
        spec: ServiceJobSpec,
        rerun: bool = False,
        on_transition: "Callable[[JobRecord], None] | None" = None,
        timeout_s: float | None = None,
    ) -> tuple[JobRecord, "dict[str, Any] | None"]:
        """Submit, stream transitions, then fetch the stored report."""
        submitted = self.submit(spec, rerun=rerun)
        record = self.wait(
            submitted["job_id"], on_transition=on_transition,
            timeout_s=timeout_s,
        )
        reply = self.result(record.job_id)
        return JobRecord.from_dict(reply["job"]), reply.get("report")
