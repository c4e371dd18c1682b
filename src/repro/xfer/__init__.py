"""repro.xfer — zero-copy shared-memory result transport.

The process backend's plain result path pushes every pickled
:class:`~repro.containers.base.ContainerDelta` through the worker's
pipe: the worker writes the bytes into a kernel socket buffer, the
parent reads them back out, and megabytes of combined map output cross
the kernel twice.  This package moves the payload out of the pipe:
workers write one pickle (protocol 5, out-of-band buffers included)
into a ``multiprocessing.shared_memory`` segment and post only a tiny
control frame — the segment name and layout — through the pipe.  The
parent maps the segment and unpickles straight out of it.

:mod:`repro.xfer.segments` owns segment naming and the leak-proof
lifecycle (ref-counted :class:`~repro.xfer.segments.SegmentPool`,
nonce-scoped reaping of crashed workers' strays);
:mod:`repro.xfer.transport` is the codec both halves of a fork share.
"""

from repro.xfer.segments import SegmentLost, SegmentPool, shm_available
from repro.xfer.transport import (
    TRANSPORT_AUTO,
    TRANSPORT_PIPE,
    TRANSPORT_SHM,
    PipeTransport,
    ShmTransport,
    make_transport,
    resolve_transport,
)

__all__ = [
    "SegmentLost",
    "SegmentPool",
    "shm_available",
    "TRANSPORT_AUTO",
    "TRANSPORT_PIPE",
    "TRANSPORT_SHM",
    "PipeTransport",
    "ShmTransport",
    "make_transport",
    "resolve_transport",
]
