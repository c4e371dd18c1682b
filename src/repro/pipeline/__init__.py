"""The ingest chunk pipeline (double buffering and its N-reader form)."""

from repro.pipeline.prefetch import PrefetchPipeline, RoundTiming

__all__ = ["PrefetchPipeline", "RoundTiming"]
