"""Zero-copy byte windows over ingest buffers.

:class:`ByteSpan` is the currency of the zero-copy ingest path: a
``[start, stop)`` window over a bytes-like *base* (``bytes``,
``bytearray``, or an ``mmap.mmap``) that supports exactly the operations
the record codecs and split logic use — ``find``, ``len``, slicing,
``endswith`` — without ever copying the underlying buffer.  Slicing a
span yields ``bytes`` of just the requested range (records are small;
the buffers they come from are not), while :meth:`ByteSpan.span` carves
a narrower zero-copy window.

``memoryview`` cannot play this role because it neither exposes
``find`` nor knows its offset into the base object; ``ByteSpan`` keeps
the base and the offsets explicit, which also lets the process backend
describe a split as ``(path, offset, length)`` and rebuild the same
window over an ``mmap`` inside the worker.
"""

from __future__ import annotations

from typing import Any, Union

#: What map functions may see as their input split.
BytesLike = Union[bytes, bytearray, "ByteSpan"]


class ByteSpan:
    """A zero-copy ``[start, stop)`` window over a bytes-like base."""

    __slots__ = ("base", "start", "stop")

    def __init__(self, base: Any, start: int = 0, stop: int | None = None):
        length = len(base)
        if stop is None:
            stop = length
        if not 0 <= start <= stop <= length:
            raise ValueError(
                f"span [{start}, {stop}) outside base of {length} bytes"
            )
        self.base = base
        self.start = start
        self.stop = stop

    # -- sizing ------------------------------------------------------------

    def __len__(self) -> int:
        return self.stop - self.start

    def __bool__(self) -> bool:
        return self.stop > self.start

    # -- searching ---------------------------------------------------------

    def find(self, sub: bytes, start: int = 0, end: int | None = None) -> int:
        """``bytes.find`` semantics, with offsets relative to the span."""
        lo = self.start + min(max(start, 0), len(self))
        hi = self.stop if end is None else self.start + min(end, len(self))
        idx = self.base.find(sub, lo, hi)
        return -1 if idx == -1 else idx - self.start

    def endswith(self, suffix: bytes) -> bool:
        """True when the window's tail equals ``suffix``."""
        n = len(suffix)
        if n > len(self):
            return False
        return bytes(self.base[self.stop - n:self.stop]) == suffix

    def startswith(self, prefix: bytes) -> bool:
        """True when the window's head equals ``prefix``."""
        n = len(prefix)
        if n > len(self):
            return False
        return bytes(self.base[self.start:self.start + n]) == prefix

    # -- materializing -----------------------------------------------------

    def __getitem__(self, item: int | slice) -> Any:
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self))
            if step != 1:
                raise ValueError("ByteSpan slices must be contiguous")
            return bytes(self.base[self.start + start:self.start + stop])
        if item < 0:
            item += len(self)
        if not 0 <= item < len(self):
            raise IndexError("ByteSpan index out of range")
        return self.base[self.start + item]

    def tobytes(self) -> bytes:
        """The window's contents as one ``bytes`` copy."""
        return bytes(self.base[self.start:self.stop])

    def __bytes__(self) -> bytes:
        return self.tobytes()

    def __reduce__(self) -> tuple:
        # Only the window crosses a pickle: never the whole base, which
        # may be megabytes of chunk or an unpicklable ``mmap``.
        return (ByteSpan, (self.tobytes(),))

    def split(self, sep: bytes | None = None) -> list[bytes]:
        """``bytes.split`` over the window (materializes the pieces)."""
        return self.tobytes().split(sep)

    # -- narrowing ---------------------------------------------------------

    def span(self, start: int, stop: int) -> "ByteSpan":
        """A narrower zero-copy window, offsets relative to this span."""
        if not 0 <= start <= stop <= len(self):
            raise ValueError(
                f"sub-span [{start}, {stop}) outside span of {len(self)} bytes"
            )
        return ByteSpan(self.base, self.start + start, self.start + stop)

    # -- comparison / repr -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ByteSpan):
            return self.tobytes() == other.tobytes()
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self.tobytes() == bytes(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.tobytes())

    def __repr__(self) -> str:
        return f"ByteSpan([{self.start}:{self.stop}] of {len(self.base)}B base)"


def as_span(data: Any) -> ByteSpan:
    """``data`` as a :class:`ByteSpan` (no copy; spans pass through)."""
    if isinstance(data, ByteSpan):
        return data
    return ByteSpan(data)


def materialize(data: Any) -> bytes:
    """``data`` as real ``bytes`` (copies only when it must)."""
    if isinstance(data, bytes):
        return data
    if isinstance(data, ByteSpan):
        return data.tobytes()
    return bytes(data)
