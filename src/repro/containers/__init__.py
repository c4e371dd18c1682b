"""Intermediate key-value containers (Phoenix++'s container abstraction).

Phoenix++ generalizes across workloads by letting the application choose
the intermediate container (paper section V.B):

* :class:`~repro.containers.hash_container.HashContainer` — keys hash to
  cells; right for word-count-shaped jobs where a huge input collapses to
  a small intermediate set (combining on insert).
* :class:`~repro.containers.array_container.ArrayContainer` — Phoenix's
  "unlocked storage": every map task appends to its own pre-assigned
  segment with no synchronization; right for sort-shaped jobs whose
  intermediate set is as large as the input and whose keys are unique.

SupMR additionally requires containers to be **persistent** across map
rounds (section III.C): `begin_round()` may be called many times, and the
container keeps accumulating — it is created on the first mapper wave and
only torn down after the reducers run.
"""

from repro.containers.array_container import ArrayContainer
from repro.containers.base import (
    Container,
    ContainerStats,
    Emitter,
    RecordPartition,
)
from repro.containers.fixed_array import FixedArrayContainer
from repro.containers.combiners import (
    CountCombiner,
    FirstCombiner,
    ListCombiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.containers.hash_container import HashContainer

__all__ = [
    "Container",
    "ContainerStats",
    "Emitter",
    "RecordPartition",
    "HashContainer",
    "ArrayContainer",
    "FixedArrayContainer",
    "SumCombiner",
    "CountCombiner",
    "ListCombiner",
    "MinCombiner",
    "MaxCombiner",
    "FirstCombiner",
]
