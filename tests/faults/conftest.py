"""Fixtures for the fault-injection test package.

CI runs this package twice with different ``FAULT_SEED`` values (the
``faults`` leg of the soak job); locally the seed defaults to 0.  Every test that
builds a :class:`~repro.faults.plan.FaultPlan` should take the
``fault_seed`` fixture so the whole package is exercised under each
seed without per-test plumbing.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def fault_seed() -> int:
    """Seed for FaultPlans, from the FAULT_SEED env var (default 0)."""
    return int(os.environ.get("FAULT_SEED", "0"))
