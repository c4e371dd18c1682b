"""CPU-utilization trace utilities.

The paper's figures are collectl traces (total utilization vs wall-clock
with user/sys/iowait stacked).  These helpers reduce a sample list to the
statistics the figures communicate (mean utilization per window/phase)
and render terminal-friendly views (sparkline strips, CSV series for
external plotting).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    # annotation only: ``repro.analysis`` re-exports this module, so a
    # runtime import here would load the simulator into every runner
    from repro.simhw.monitor import UtilizationSample
    from repro.simrt.phases import PhaseSpan

_SPARK_CHARS = " .:-=+*#%@"


def mean_utilization(
    samples: Sequence[UtilizationSample],
    t0: float = 0.0,
    t1: float = float("inf"),
    busy_only: bool = False,
) -> float:
    """Mean total (or busy-only) utilization % over a time window."""
    window = [s for s in samples if t0 <= s.time <= t1]
    if not window:
        return 0.0
    if busy_only:
        return sum(s.busy_pct for s in window) / len(window)
    return sum(s.total_pct for s in window) / len(window)


def phase_mean_utilization(
    samples: Sequence[UtilizationSample], spans: Iterable[PhaseSpan],
    busy_only: bool = False,
) -> dict[str, float]:
    """Mean utilization % per recorded phase span."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = mean_utilization(
            samples, span.start, span.end, busy_only=busy_only
        )
    return out


def sparkline(
    samples: Sequence[UtilizationSample], width: int = 80,
    busy_only: bool = False,
) -> str:
    """A one-line terminal rendering of the utilization trace.

    Buckets samples into ``width`` columns; each glyph encodes the bucket
    mean on a 0-100% scale.  Good enough to *see* Fig. 1's step-down or
    Fig. 5b's dense spikes in a test log.
    """
    if not samples:
        return ""
    t_max = samples[-1].time or 1.0
    buckets: list[list[float]] = [[] for _ in range(width)]
    for s in samples:
        idx = min(width - 1, int(s.time / t_max * width))
        buckets[idx].append(s.busy_pct if busy_only else s.total_pct)
    glyphs = []
    for bucket in buckets:
        if not bucket:
            glyphs.append(" ")
            continue
        level = sum(bucket) / len(bucket) / 100.0
        glyphs.append(_SPARK_CHARS[min(len(_SPARK_CHARS) - 1,
                                       int(level * (len(_SPARK_CHARS) - 1) + 0.5))])
    return "".join(glyphs)


def trace_csv(samples: Sequence[UtilizationSample]) -> str:
    """The trace as CSV (time,user,sys,iowait,total) for external plotting."""
    lines = ["time_s,user_pct,sys_pct,iowait_pct,total_pct"]
    for s in samples:
        lines.append(
            f"{s.time:.3f},{s.user_pct:.2f},{s.sys_pct:.2f},"
            f"{s.iowait_pct:.2f},{s.total_pct:.2f}"
        )
    return "\n".join(lines) + "\n"


def step_levels(
    samples: Sequence[UtilizationSample], t0: float, t1: float,
    threshold_pct: float = 2.0,
) -> list[float]:
    """Distinct utilization plateaus in a window (Fig. 1's 'steps').

    Consecutive samples whose busy% differs by less than ``threshold_pct``
    belong to one plateau; returns the plateau means in time order.
    """
    window = [s for s in samples if t0 <= s.time <= t1]
    levels: list[list[float]] = []
    for s in window:
        if levels and abs(levels[-1][-1] - s.busy_pct) < threshold_pct:
            levels[-1].append(s.busy_pct)
        else:
            levels.append([s.busy_pct])
    return [sum(level) / len(level) for level in levels]
