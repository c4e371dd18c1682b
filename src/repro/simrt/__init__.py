"""Simulated MapReduce runtimes on the simulated testbed.

These drive :mod:`repro.simhw` machines through the same phase structure
as the executable runtimes, using the calibrated per-application cost
model in :mod:`repro.simrt.costmodel` — this is how the repository
regenerates the paper's 60-155 GB experiments (Table II, Figs. 1/3/5/6/7)
on hardware that cannot natively run them (see DESIGN.md, substitution
note).

A model that predicts this repository's own code carries a sim-vs-real
test, as :mod:`repro.simrt.qos_model` does (``tests/qos/test_sim_vs_real.py``);
the rest are paper-scale and are checked against the paper's cells.
"""

from repro.simrt.costmodel import (
    PAPER_SORT,
    PAPER_WORDCOUNT,
    AppCostProfile,
    GB_SI,
    MB_SI,
)
from repro.simrt.hdfs_case import simulate_hdfs_case_study
from repro.simrt.openmp_sim import simulate_openmp_sort
from repro.simrt.phases import PhaseSpan, SimJobResult
from repro.simrt.phoenix_sim import simulate_phoenix_job
from repro.simrt.supmr_sim import simulate_supmr_job

__all__ = [
    "AppCostProfile",
    "PAPER_WORDCOUNT",
    "PAPER_SORT",
    "MB_SI",
    "GB_SI",
    "PhaseSpan",
    "SimJobResult",
    "simulate_phoenix_job",
    "simulate_supmr_job",
    "simulate_openmp_sort",
    "simulate_hdfs_case_study",
]
