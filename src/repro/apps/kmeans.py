"""k-means — iterative MapReduce, exercising the persistent-container
lineage the paper cites (Twister [8]).

Each iteration is one MapReduce job: map assigns every point to its
nearest centroid and emits ``(cluster, (vector, 1))``; the combiner sums
componentwise, so reduce receives per-cluster (sum, count) and produces
new centroids.  ``run_kmeans`` loops until movement falls below ``tol``
or ``max_iters`` elapses — a multi-round workload the scale-up runtime
serves without re-ingesting (points are parsed once per iteration from
the same in-memory chunks in a real deployment; here each iteration is an
independent job, which keeps the example honest about what the runtime
does and does not cache).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.containers.base import Container
from repro.containers.combiners import Combiner
from repro.containers.hash_container import HashContainer
from repro.core.job import JobSpec, MapContext
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.errors import ConfigError, WorkloadError
from repro.io.records import WholeLineCodec

_CODEC = WholeLineCodec()

Vector = tuple[float, ...]


class _VectorSumCombiner(Combiner):
    """Combine (vector, count) pairs by componentwise sum."""

    def initial(self, value: tuple[Vector, int]):
        return (list(value[0]), value[1])

    def update(self, state, value: tuple[Vector, int]):
        acc, count = state
        vec, n = value
        if len(vec) != len(acc):
            raise WorkloadError("inconsistent point dimensionality")
        for i, x in enumerate(vec):
            acc[i] += x
        return (acc, count + n)

    def merge(self, state, other):
        """A task's partial (sum, count) folds in like one more point."""
        return self.update(state, other)

    def finish(self, state):
        return [(tuple(state[0]), state[1])]


def parse_point(line: bytes) -> Vector:
    """Parse a whitespace-separated coordinate line into a vector."""
    return tuple(float(tok) for tok in line.split())


def nearest_centroid(point: Vector, centroids: Sequence[Vector]) -> int:
    """Index of the centroid closest to ``point`` (squared L2)."""
    best, best_d = 0, math.inf
    for idx, c in enumerate(centroids):
        d = sum((a - b) ** 2 for a, b in zip(point, c))
        if d < best_d:
            best, best_d = idx, d
    return best


def make_kmeans_iteration_job(
    inputs: Sequence[str | Path],
    centroids: Sequence[Vector],
    name: str = "kmeans-iter",
) -> JobSpec:
    """One assignment+update iteration as a MapReduce job."""
    centroids = [tuple(c) for c in centroids]

    def map_fn(ctx: MapContext) -> None:
        for line in _CODEC.iter_lines(ctx.data):
            if not line.strip():
                continue
            point = parse_point(line)
            ctx.emit(nearest_centroid(point, centroids), (point, 1))

    def reduce_fn(
        key: Hashable, values: Sequence[tuple[Vector, int]]
    ) -> Iterable[tuple[Hashable, Vector]]:
        dim = len(values[0][0])
        acc = [0.0] * dim
        count = 0
        for vec, n in values:
            for i, x in enumerate(vec):
                acc[i] += x
            count += n
        yield (key, tuple(a / count for a in acc))

    def container() -> Container:
        return HashContainer(_VectorSumCombiner())

    return JobSpec(
        name=name,
        inputs=tuple(Path(p) for p in inputs),
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        container_factory=container,
        codec=_CODEC,
    )


@dataclass
class KMeansResult:
    centroids: list[Vector]
    iterations: int
    converged: bool


def run_kmeans(
    inputs: Sequence[str | Path],
    initial_centroids: Sequence[Vector],
    max_iters: int = 10,
    tol: float = 1e-6,
    options: RuntimeOptions | None = None,
    use_session: bool = False,
) -> KMeansResult:
    """Iterate MapReduce jobs until centroids settle.

    ``use_session=True`` runs iterations through an
    :class:`repro.core.iterative.IterativeSession` (requires a chunked
    ``options``): the input is ingested once and later iterations map
    straight from the in-memory cache — the Twister-style reuse the
    paper's persistent container descends from.
    """
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    centroids = [tuple(c) for c in initial_centroids]
    if not centroids:
        raise ConfigError("need at least one initial centroid")
    session = None
    if use_session:
        from repro.core.iterative import IterativeSession

        if options is None:
            raise ConfigError("use_session requires chunked RuntimeOptions")
        session = IterativeSession(inputs, _CODEC, options)
        run_one = session.run
    else:
        runtime = PhoenixRuntime(options or RuntimeOptions.baseline())
        run_one = runtime.run
    for iteration in range(1, max_iters + 1):
        job = make_kmeans_iteration_job(inputs, centroids)
        result = run_one(job)
        updated = dict(result.output)
        new_centroids = [
            tuple(updated.get(idx, centroids[idx])) for idx in range(len(centroids))
        ]
        movement = max(
            math.dist(old, new) for old, new in zip(centroids, new_centroids)
        )
        centroids = new_centroids
        if movement <= tol:
            if session is not None:
                session.close()
            return KMeansResult(centroids, iteration, True)
    if session is not None:
        session.close()
    return KMeansResult(centroids, max_iters, False)
