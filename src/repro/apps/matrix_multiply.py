"""Matrix multiply — the Phoenix suite's dense-compute workload.

Phoenix's matrix_multiply hands each map task a block of A's rows to
multiply against the (shared, in-memory) B.  Here A's rows arrive as
input lines (``row_idx v0 v1 ...``), B is captured in the job closure,
map emits ``(row_idx, row @ B)`` and reduce is the identity (the
``JobSpec`` default) — the merge phase orders the product's rows.

A compute-bound map phase with a tiny ingest makes this the far end of
the Conclusion 1 spectrum: the chunk pipeline hides nearly *all* ingest
(the opposite of Fig. 7's link-bound word count).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.containers import ArrayContainer
from repro.core.job import JobSpec, MapContext
from repro.errors import WorkloadError
from repro.io.records import WholeLineCodec

_CODEC = WholeLineCodec()


def write_matrix_rows(path: str | Path, matrix: np.ndarray) -> int:
    """Serialize a 2-D matrix as ``row_idx v0 v1 ...`` lines."""
    if matrix.ndim != 2:
        raise WorkloadError("need a 2-D matrix")
    lines = []
    for idx, row in enumerate(matrix):
        lines.append(
            (str(idx) + " " + " ".join(repr(float(v)) for v in row)).encode()
        )
    data = b"\n".join(lines) + b"\n"
    Path(path).write_bytes(data)
    return len(data)


def parse_row(line: bytes) -> tuple[int, np.ndarray]:
    """Parse a ``row_idx v0 v1 ...`` line into (index, vector)."""
    parts = line.split()
    if len(parts) < 2:
        raise WorkloadError(f"matrix row line too short: {line[:40]!r}")
    return int(parts[0]), np.array([float(p) for p in parts[1:]])


def make_matmul_job(
    inputs: Sequence[str | Path],
    b_matrix: np.ndarray,
    name: str = "matmul",
) -> JobSpec:
    """Compute A @ B where A's rows come from ``inputs``."""
    if b_matrix.ndim != 2:
        raise WorkloadError("B must be 2-D")
    b = np.asarray(b_matrix, dtype=float)

    def map_fn(ctx: MapContext) -> None:
        for line in _CODEC.iter_lines(ctx.data):
            if not line.strip():
                continue
            row_idx, row = parse_row(line)
            if row.shape[0] != b.shape[0]:
                raise WorkloadError(
                    f"row {row_idx} has {row.shape[0]} cols, B has "
                    f"{b.shape[0]} rows"
                )
            ctx.emit(row_idx, tuple(float(x) for x in row @ b))

    return JobSpec(
        name=name,
        inputs=tuple(Path(p) for p in inputs),
        map_fn=map_fn,
        container_factory=ArrayContainer,
        codec=_CODEC,
    )


def result_matrix(output: list[tuple[int, tuple[float, ...]]]) -> np.ndarray:
    """Assemble the job output back into a dense product matrix."""
    if not output:
        raise WorkloadError("empty matmul output")
    rows = dict(output)
    n = max(rows) + 1
    if len(rows) != n:
        missing = sorted(set(range(n)) - set(rows))
        raise WorkloadError(f"missing product rows: {missing[:5]}")
    return np.array([rows[i] for i in range(n)])
