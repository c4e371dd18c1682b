"""PCA — the Phoenix suite's two-pass statistical workload.

Principal component analysis over row vectors needs two MapReduce
passes: pass 1 computes the column means, pass 2 the covariance matrix
of the centered data (each map task emits its split's partial
``X_c^T @ X_c`` and row count).  ``run_pca`` chains the passes and
diagonalizes the covariance — a realistic multi-job workload whose
second pass depends on the first's output.

Input format: ``write_matrix_rows``'s ``row_idx v0 v1 ...`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.apps.matrix_multiply import parse_row
from repro.containers import HashContainer
from repro.containers.combiners import Combiner
from repro.core.job import JobSpec, MapContext
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.errors import WorkloadError
from repro.io.records import WholeLineCodec

_CODEC = WholeLineCodec()


class _ArraySumCombiner(Combiner):
    """Componentwise summation of numpy arrays."""

    def initial(self, value: np.ndarray) -> np.ndarray:
        """Copy the first array (later updates mutate the state)."""
        return np.array(value, dtype=float)

    def update(self, state: np.ndarray, value: np.ndarray) -> np.ndarray:
        """Accumulate componentwise."""
        state += value
        return state

    def merge(self, state: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Partial sums add (into a new array: a task's state may arrive
        as a read-only view of its transport buffer)."""
        return state + other


def _array_container() -> HashContainer:
    return HashContainer(_ArraySumCombiner())


def make_mean_job(inputs: Sequence[str | Path], name: str = "pca-mean") -> JobSpec:
    """Pass 1: per-split partial column sums and counts."""

    def map_fn(ctx: MapContext) -> None:
        total: np.ndarray | None = None
        count = 0
        for line in _CODEC.iter_lines(ctx.data):
            if not line.strip():
                continue
            _idx, row = parse_row(line)
            total = row if total is None else total + row
            count += 1
        if count:
            ctx.emit("sum", total)
            ctx.emit("count", np.array([float(count)]))

    def reduce_fn(key: Hashable, values) -> Iterable[tuple[Hashable, tuple]]:
        acc = values[0]
        for v in values[1:]:
            acc = acc + v
        yield (key, tuple(float(x) for x in acc))

    return JobSpec(name=name, inputs=tuple(Path(p) for p in inputs),
                   map_fn=map_fn, reduce_fn=reduce_fn,
                   container_factory=_array_container, codec=_CODEC)


def make_covariance_job(
    inputs: Sequence[str | Path],
    means: np.ndarray,
    name: str = "pca-cov",
) -> JobSpec:
    """Pass 2: partial centered scatter matrices ``X_c^T @ X_c``."""
    mu = np.asarray(means, dtype=float)

    def map_fn(ctx: MapContext) -> None:
        rows = []
        for line in _CODEC.iter_lines(ctx.data):
            if not line.strip():
                continue
            _idx, row = parse_row(line)
            rows.append(row - mu)
        if rows:
            centered = np.array(rows)
            ctx.emit("scatter", centered.T @ centered)
            ctx.emit("count", np.array([[float(len(rows))]]))

    def reduce_fn(key: Hashable, values) -> Iterable[tuple[Hashable, tuple]]:
        acc = values[0]
        for v in values[1:]:
            acc = acc + v
        yield (key, tuple(map(tuple, np.atleast_2d(acc).tolist())))

    return JobSpec(name=name, inputs=tuple(Path(p) for p in inputs),
                   map_fn=map_fn, reduce_fn=reduce_fn,
                   container_factory=_array_container, codec=_CODEC)


@dataclass
class PCAResult:
    """Means, covariance and its eigendecomposition (descending)."""

    means: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray
    components: np.ndarray  # rows are principal directions

    @property
    def explained_variance_ratio(self) -> np.ndarray:
        """Fraction of total variance per component."""
        total = self.eigenvalues.sum()
        if total <= 0:
            raise WorkloadError("degenerate covariance (zero variance)")
        return self.eigenvalues / total


def run_pca(
    inputs: Sequence[str | Path],
    options: RuntimeOptions | None = None,
) -> PCAResult:
    """Two chained MapReduce passes, then an eigendecomposition."""
    runtime = PhoenixRuntime(options or RuntimeOptions.baseline())

    mean_out = dict(runtime.run(make_mean_job(inputs)).output)
    if "count" not in mean_out or "sum" not in mean_out:
        raise WorkloadError("PCA pass 1 produced no data (empty input?)")
    count = float(mean_out["count"][0])
    means = np.array(mean_out["sum"]) / count

    cov_out = dict(runtime.run(make_covariance_job(inputs, means)).output)
    n = float(np.array(cov_out["count"])[0][0])
    if n < 2:
        raise WorkloadError("PCA needs at least two rows")
    covariance = np.array(cov_out["scatter"]) / (n - 1)

    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    order = np.argsort(eigenvalues)[::-1]
    return PCAResult(
        means=means,
        covariance=covariance,
        eigenvalues=eigenvalues[order],
        components=eigenvectors[:, order].T,
    )
