"""Analytic scale-out comparator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simrt.costmodel import GB_SI, PAPER_SORT, PAPER_WORDCOUNT
from repro.simrt.scaleout_sim import (
    ScaleOutSpec,
    crossover_nodes,
    estimate_scaleout_job,
)


class TestScaleOutSpec:
    def test_defaults_reasonable(self):
        spec = ScaleOutSpec()
        assert spec.nodes == 16
        assert spec.node_nic_bw < spec.node_disk_bw * 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScaleOutSpec(nodes=0)
        with pytest.raises(ConfigError):
            ScaleOutSpec(node_disk_bw=0)


class TestEstimate:
    def test_map_phase_disk_bound_for_wordcount(self):
        est = estimate_scaleout_job(PAPER_WORDCOUNT, 155 * GB_SI,
                                    ScaleOutSpec(nodes=16))
        share = 155 * GB_SI / 16
        assert est.map_s == pytest.approx(share / (100e6), rel=0.01)

    def test_more_nodes_faster_map(self):
        small = estimate_scaleout_job(PAPER_WORDCOUNT, 155 * GB_SI,
                                      ScaleOutSpec(nodes=8))
        big = estimate_scaleout_job(PAPER_WORDCOUNT, 155 * GB_SI,
                                    ScaleOutSpec(nodes=32))
        assert big.map_s < small.map_s
        assert big.total_s < small.total_s

    def test_coordination_floor_prevents_perfect_scaling(self):
        huge = estimate_scaleout_job(PAPER_WORDCOUNT, 155 * GB_SI,
                                     ScaleOutSpec(nodes=512))
        assert huge.total_s > huge.coordination_s

    def test_sort_shuffle_visible(self):
        # sort's intermediate set equals the input: a real shuffle
        est = estimate_scaleout_job(PAPER_SORT, 60 * GB_SI,
                                    ScaleOutSpec(nodes=16))
        assert est.shuffle_s > 10.0

    def test_wordcount_shuffle_negligible(self):
        est = estimate_scaleout_job(PAPER_WORDCOUNT, 155 * GB_SI,
                                    ScaleOutSpec(nodes=16))
        assert est.shuffle_s < 0.1

    def test_energy_grows_with_cluster_size(self):
        e8 = estimate_scaleout_job(PAPER_SORT, 60 * GB_SI,
                                   ScaleOutSpec(nodes=8)).energy_j
        e64 = estimate_scaleout_job(PAPER_SORT, 60 * GB_SI,
                                    ScaleOutSpec(nodes=64)).energy_j
        assert e64 > e8

    def test_invalid_input_bytes(self):
        with pytest.raises(ConfigError):
            estimate_scaleout_job(PAPER_SORT, 0)


class TestCrossover:
    def test_crossover_found_for_typical_totals(self):
        n = crossover_nodes(PAPER_WORDCOUNT, 155 * GB_SI,
                            scaleup_total_s=407.0)
        assert n is not None
        assert 2 <= n <= 16

    def test_unbeatable_target_returns_none(self):
        n = crossover_nodes(PAPER_WORDCOUNT, 155 * GB_SI,
                            scaleup_total_s=10.0, max_nodes=64)
        assert n is None

    def test_crossover_monotone_in_target(self):
        fast = crossover_nodes(PAPER_SORT, 60 * GB_SI, scaleup_total_s=100.0)
        slow = crossover_nodes(PAPER_SORT, 60 * GB_SI, scaleup_total_s=400.0)
        assert fast is None or slow is None or slow <= fast
