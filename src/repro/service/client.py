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
from repro.util.retry import Retry, transient

#: Error codes that map to AdmissionError.
_ADMISSION_CODES = (
    protocol.ERR_QUEUE_FULL,
    protocol.ERR_BUDGET_EXCEEDED,
    protocol.ERR_TENANT_BUDGET,
    protocol.ERR_OVERLOADED,
    protocol.ERR_DRAINING,
)

#: The reconnect budget of every exchange: three retries after the
#: first failure, backing off from 50 ms.  Every client uses seed 0, so
#: a fleet that saw the same drop backs off in lockstep rather than
#: decorrelated; a budget this small keeps that storm to four
#: connections per client.
_RETRIES = 3
_RETRY_BASE_S = 0.05


class ServiceClient:
    """Blocking client bound to one daemon endpoint."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    @classmethod
    def from_state_dir(cls, state_dir: "str | Path", **kw: Any) -> "ServiceClient":
        """Connect to the daemon advertised in ``state_dir/endpoint.json``."""
        host, port = ServiceState(Path(state_dir)).read_endpoint()
        return cls(host, port, **kw)

    # -- transport -----------------------------------------------------------

    def _rpc(
        self,
        msg: dict[str, Any],
        done: "Callable[[dict[str, Any]], bool] | None" = None,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """Send ``msg`` and read replies until ``done(reply)`` (the first
        reply, by default), over a fresh connection after each drop.

        Every request is idempotent, so a refused connect, a reset or a
        timeout, and a reply torn (``truncated``) or ``stalled`` in
        transit are all retried alike, on :mod:`repro.util.retry`'s
        budget; a stream's budget resets with every reply it delivers.
        Frame *damage* (bad CRC, bad magic, version skew) is re-raised:
        garbage from a live peer will be garbage again.  Past
        ``deadline`` every connect and read is cut short and
        ``TimeoutError`` is raised.
        """
        retry = Retry(_RETRIES, base_s=_RETRY_BASE_S)
        while True:
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=self._left(deadline)
                ) as sock:
                    protocol.send_frame(sock, msg)
                    while True:
                        reply = self._check_reply(protocol.recv_frame(
                            sock, timeout_s=self._left(deadline),
                        ))
                        if done is None or done(reply):
                            return reply
                        retry.reset()
            except (EOFError, OSError, ProtocolError) as exc:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(str(exc)) from exc
                if not retry.again(exc):
                    if not transient(exc):
                        raise
                    raise ServiceError(
                        f"{msg['type']} to service at {self.host}:"
                        f"{self.port} failed {retry.failures} time(s): {exc}"
                    ) from exc

    def _left(self, deadline: float | None) -> float:
        """The socket timeout: the client's, or less when a deadline nears."""
        if deadline is None:
            return self.timeout_s
        return max(1e-3, min(self.timeout_s, deadline - time.monotonic()))

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
        fires once per distinct observed state.  ``timeout_s`` bounds
        the whole wait, a silent stream included.
        """
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        last_state: str | None = None

        def observe(reply: dict[str, Any]) -> bool:
            nonlocal last_state
            record = JobRecord.from_dict(reply["job"])
            if record.state != last_state:
                last_state = record.state
                if on_transition is not None:
                    on_transition(record)
            return record.finished

        try:
            reply = self._rpc(
                protocol.request(protocol.REQ_WATCH, job_id=job_id),
                done=observe, deadline=deadline,
            )
        except TimeoutError:
            raise ServiceError(
                f"timed out waiting for job {job_id} "
                f"(last state: {last_state})"
            ) from None
        return JobRecord.from_dict(reply["job"])

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
