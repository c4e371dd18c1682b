"""The transport codec: how task and result payloads cross a fork.

Both halves of a forked worker pair share one transport object (it rides
the fork); :meth:`pack` runs on whichever side produces a payload and
:meth:`unpack` on whichever side consumes it, with the worker's pipe
between them carrying only the small control frames pack returns.

:class:`PipeTransport` is the plain path: the whole pickled payload is
the control frame and rides the worker's pipe.  :class:`ShmTransport`
pickles with protocol 5 — out-of-band buffers included, so a NumPy
histogram delta's cells are never copied into the pickle stream — and
writes ``[pickle blob | buffer 0 | buffer 1 | …]`` into one
shared-memory segment; the frame is just the segment name and layout.
Payloads below ``inline_max`` stay on the pipe (a segment per tiny
result would cost more than it saves).

Receiving is one ``mmap`` and one ``pickle.loads`` straight out of the
segment.  Out-of-band buffers are copied into parent-owned bytearrays
during the load — deliberately, so no reconstructed object can alias a
segment after it is unlinked — which still halves the copies of the
pipe path (pipe: worker write + parent read; shm: one read).
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.errors import ConfigError
from repro.util.logging import get_logger
from repro.xfer.segments import SegmentPool, shm_available, write_segment

try:  # pragma: no cover - platform guard mirrors segments.py
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover
    _shm_mod = None  # type: ignore[assignment]

logger = get_logger(__name__)

TRANSPORT_PIPE = "pipe"
TRANSPORT_SHM = "shm"
TRANSPORT_AUTO = "auto"

_TRANSPORTS = (TRANSPORT_AUTO, TRANSPORT_PIPE, TRANSPORT_SHM)

#: Payloads smaller than this ride the worker's pipe even under shm.
DEFAULT_INLINE_MAX = 16 * 1024

#: Control-frame tags.
_TAG_INLINE = "i"
_TAG_SEGMENT = "s"


def resolve_transport(value: "str | None") -> str:
    """Validate and concretize a transport choice to ``pipe`` or ``shm``.

    ``auto`` (and ``None``) picks shared memory when the box supports it.
    An explicit ``shm`` on a box without working shared memory degrades
    to ``pipe`` with a warning rather than failing the job — the
    transport changes speed, never feasibility.
    """
    value = TRANSPORT_AUTO if value is None else str(value).lower()
    if value not in _TRANSPORTS:
        raise ConfigError(
            f"unknown transport {value!r}; choose one of "
            + ", ".join(_TRANSPORTS)
        )
    if value == TRANSPORT_PIPE:
        return TRANSPORT_PIPE
    if shm_available():
        return TRANSPORT_SHM
    if value == TRANSPORT_SHM:
        logger.warning(
            "shared-memory transport requested but unavailable "
            "(no usable /dev/shm); falling back to pipe transport"
        )
    return TRANSPORT_PIPE


class PipeTransport:
    """The synchronous-pickle-over-the-pipe baseline transport."""

    kind = TRANSPORT_PIPE

    def pack(self, payload: Any, *, keep: bool = False) -> tuple:
        """One in-band frame; ``keep`` is meaningless without segments."""
        return (_TAG_INLINE, pickle.dumps(payload, protocol=5), ())

    def unpack(self, frame: tuple) -> Any:
        """Decode a frame produced by :meth:`pack`."""
        tag, blob, buffers = frame
        return pickle.loads(blob, buffers=buffers)

    # Segment-lifecycle hooks, inert on the pipe path so callers need no
    # per-transport branches.

    def release(self, frame: tuple) -> None:
        """No segment to drop."""

    def reap(self, pid: "int | None" = None) -> int:
        """No segments to reap; always 0."""
        return 0

    def cleanup(self) -> int:
        """No segments to clean up; always 0."""
        return 0


class ShmTransport:
    """Shared-memory frames for large payloads, pipe frames for small."""

    kind = TRANSPORT_SHM

    def __init__(
        self,
        nonce: "str | None" = None,
        inline_max: int = DEFAULT_INLINE_MAX,
    ) -> None:
        self.pool = SegmentPool(nonce)
        self.inline_max = inline_max

    @property
    def nonce(self) -> str:
        return self.pool.nonce

    def pack(self, payload: Any, *, keep: bool = False) -> tuple:
        """Encode ``payload``; large ones go out-of-band via a segment.

        ``keep=True`` (parent-side task dispatch) leaves the segment
        mapped and tracked in the pool so a re-dispatch can reuse it;
        the caller releases it at wave end.  ``keep=False`` (worker-side
        results) closes the mapping immediately — the parent maps it by
        name and unlinks it after the read.
        """
        buffers: list[pickle.PickleBuffer] = []
        blob = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
        views = [b.raw() for b in buffers]
        total = len(blob) + sum(len(v) for v in views)
        if total < self.inline_max:
            return (_TAG_INLINE, blob, tuple(bytes(v) for v in views))
        name = self.pool.next_name()
        lens = tuple(len(v) for v in views)
        if keep:
            shm = _shm_mod.SharedMemory(create=True, size=max(1, total),
                                        name=name)
            offset = 0
            for part in (blob, *views):
                shm.buf[offset:offset + len(part)] = part
                offset += len(part)
            self.pool.adopt(name, shm)
        else:
            write_segment(name, [blob, *views])
        return (_TAG_SEGMENT, name, len(blob), lens)

    def unpack(self, frame: tuple) -> Any:
        """Decode a frame; segment frames are read in place and dropped.

        Raises :class:`~repro.xfer.segments.SegmentLost` when the named
        segment no longer exists (its worker died and was reaped) — the
        caller decides whether that is a stale duplicate or a real loss.
        """
        if frame[0] == _TAG_INLINE:
            return pickle.loads(frame[1], buffers=frame[2])
        _tag, name, blob_len, buf_lens = frame
        view = self.pool.attach(name)
        try:
            offset = blob_len
            buffers = []
            for length in buf_lens:
                # Copy out-of-band buffers so nothing the unpickler
                # builds can alias the segment past its unlink.
                buffers.append(bytearray(view[offset:offset + length]))
                offset += length
            return pickle.loads(view[:blob_len], buffers=buffers)
        finally:
            self.pool.release(name)

    def release(self, frame: tuple) -> None:
        """Drop a ``keep``-packed frame's segment (wave-end cleanup)."""
        if frame and frame[0] == _TAG_SEGMENT:
            self.pool.release(frame[1])

    def reap(self, pid: "int | None" = None) -> int:
        """Unlink a dead worker's stray segments (supervisor hook)."""
        return self.pool.reap(pid)

    def cleanup(self) -> int:
        """Job-exit guarantee: no segment of this job's nonce survives."""
        return self.pool.cleanup()


def make_transport(
    kind: "str | None" = TRANSPORT_AUTO,
    nonce: "str | None" = None,
    inline_max: int = DEFAULT_INLINE_MAX,
) -> "PipeTransport | ShmTransport":
    """Build the transport ``kind`` resolves to on this box."""
    if resolve_transport(kind) == TRANSPORT_SHM:
        return ShmTransport(nonce, inline_max=inline_max)
    return PipeTransport()
