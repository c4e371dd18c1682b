"""Out-of-core runs through both real runtimes: byte-identical output.

The subsystem's acceptance bar: with a budget small enough to force
several spill runs, word count and terasort must produce output
byte-identical to the unbudgeted in-memory run, the accounted peak must
stay under the budget, and the spill counters must surface in the
result and the JSON report.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from operator import itemgetter

import pytest

from repro.analysis.report import job_result_dict
from repro.apps.sortapp import make_sort_job
from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.supmr import SupMRRuntime
from repro.spill import DEFAULT_MERGE_FAN_IN


def check_spilled(result, baseline, min_runs=3):
    assert result.output == baseline.output  # byte-identical
    stats = result.spill_stats
    assert stats is not None
    assert stats.runs >= min_runs
    assert stats.spilled_bytes > 0
    assert stats.peak_accounted_bytes <= stats.budget_bytes
    assert stats.within_budget
    assert result.counters["spill_runs"] == stats.runs
    assert result.counters["spilled_bytes"] == stats.spilled_bytes
    return stats


class TestPhoenixSpill:
    def test_wordcount_byte_identical(self, text_file):
        baseline = PhoenixRuntime().run(make_wordcount_job([text_file]))
        budgeted = PhoenixRuntime(
            RuntimeOptions.baseline().with_(memory_budget="64KB")
        ).run(make_wordcount_job([text_file]))
        check_spilled(budgeted, baseline)

    def test_sort_byte_identical(self, terasort_file):
        baseline = PhoenixRuntime().run(make_sort_job([terasort_file]))
        budgeted = PhoenixRuntime(
            RuntimeOptions.baseline().with_(memory_budget="96KB")
        ).run(make_sort_job([terasort_file]))
        check_spilled(budgeted, baseline)

    def test_no_budget_reports_no_spill(self, text_file):
        result = PhoenixRuntime().run(make_wordcount_job([text_file]))
        assert result.spill_stats is None
        assert "spill_runs" not in result.counters
        assert "spill" not in job_result_dict(result)


class TestSupMRSpill:
    def test_wordcount_byte_identical(self, text_file):
        options = RuntimeOptions.supmr_interfile("16KB")
        baseline = SupMRRuntime(options).run(make_wordcount_job([text_file]))
        budgeted = SupMRRuntime(
            options.with_(memory_budget="64KB")
        ).run(make_wordcount_job([text_file]))
        check_spilled(budgeted, baseline)

    def test_sort_byte_identical(self, terasort_file):
        options = RuntimeOptions.supmr_interfile("25KB")
        baseline = SupMRRuntime(options).run(make_sort_job([terasort_file]))
        budgeted = SupMRRuntime(
            options.with_(memory_budget="96KB")
        ).run(make_sort_job([terasort_file]))
        check_spilled(budgeted, baseline)

    def test_large_budget_never_spills(self, text_file):
        options = RuntimeOptions.supmr_interfile("16KB",).with_(
            memory_budget="256MB"
        )
        baseline = SupMRRuntime(
            RuntimeOptions.supmr_interfile("16KB")
        ).run(make_wordcount_job([text_file]))
        budgeted = SupMRRuntime(options).run(make_wordcount_job([text_file]))
        assert budgeted.output == baseline.output
        assert budgeted.spill_stats.runs == 0
        assert budgeted.spill_stats.peak_accounted_bytes > 0


class TestReporting:
    def test_json_report_carries_spill_section(self, text_file):
        result = PhoenixRuntime(
            RuntimeOptions.baseline().with_(memory_budget="64KB")
        ).run(make_wordcount_job([text_file]))
        data = job_result_dict(result)
        spill = data["spill"]
        assert spill["runs"] == result.spill_stats.runs
        assert spill["within_budget"] is True
        assert spill["budget_bytes"] == 64 * 1024
        assert data["timings"]["spill_s"] >= 0
        assert data["timings"]["spill_s"] == pytest.approx(
            result.timings.spill_s
        )

    def test_external_merge_bounded_fan_in(self, text_file):
        # word count is charged per folded state (about 500 per map
        # task here), not per raw emit, so the budget is small enough
        # for more runs than one merge pass of the default fan-in takes
        result = PhoenixRuntime(
            RuntimeOptions.baseline().with_(memory_budget="24KB")
        ).run(make_wordcount_job([text_file]))
        stats = result.spill_stats
        assert stats.merge_fan_in == DEFAULT_MERGE_FAN_IN == 8
        assert stats.runs > 8
        assert stats.merge_passes > 1
        assert stats.merge_rewritten_bytes > 0


def duplicate_keys(src, dst):
    """``src``'s terasort records with keys deliberately repeated: every
    third record takes its neighbour's key, every fortieth one hot key —
    ties inside a run, across runs and across the resident leg."""
    records = [r for r in src.read_bytes().split(b"\r\n") if r]
    hot = records[0][:10]
    for i in range(1, len(records)):
        if i % 3 == 0:
            records[i] = records[i - 1][:10] + records[i][10:]
        if i % 40 == 0:
            records[i] = hot + records[i][10:]
    dst.write_bytes(b"\r\n".join(records) + b"\r\n")
    return dst


class TestRecordsNotGroups:
    """Between the budget gate and the reducer a record stays a record."""

    @pytest.fixture
    def grouping_calls(self, monkeypatch):
        import repro.spill.manager as manager

        calls = []
        real = manager.group_sorted_pairs

        def counting(pairs):
            calls.append(1)
            return real(pairs)

        monkeypatch.setattr(manager, "group_sorted_pairs", counting)
        return calls

    def test_unique_key_sort_builds_no_wrapper(
        self, terasort_file, grouping_calls
    ):
        options = RuntimeOptions.supmr_interfile("25KB")
        baseline = SupMRRuntime(options).run(make_sort_job([terasort_file]))
        budgeted = SupMRRuntime(
            options.with_(memory_budget="40KB")
        ).run(make_sort_job([terasort_file]))
        stats = check_spilled(budgeted, baseline, min_runs=9)
        assert stats.merge_passes > 1  # consolidation ran too
        # The only code that wraps a record's value per key was never
        # reached: not at spill, not in either merge pass, not at reduce.
        assert grouping_calls == []
        assert stats.spilled_records == stats.combine_pairs_in <= 3000
        assert stats.combine_reduction == 1.0

    DUP_OPTIONS = RuntimeOptions.supmr_interfile("25KB", num_reducers=2).with_(
        # Serial: under the thread backend "emit order" into a budgeted
        # container is whatever order the mapper threads ran in.
        memory_budget="40KB", executor_backend="serial"
    )

    def test_duplicated_keys_come_out_in_emit_order(
        self, terasort_file, tmp_path, grouping_calls
    ):
        from repro.apps.sortapp import reference_sort

        dup = duplicate_keys(terasort_file, tmp_path / "dup.dat")
        result = SupMRRuntime(self.DUP_OPTIONS).run(make_sort_job([dup]))
        stats = result.spill_stats
        assert stats.runs >= 9 and stats.merge_passes > 1
        # Equal keys come out in emit order: the stable sort of the input.
        assert result.output == reference_sort([dup])
        assert stats.spilled_records == stats.combine_pairs_in
        # The identity reducer took the merged records as they were:
        # repeated keys or not, nobody gathered a key's values for it.
        assert grouping_calls == []
        distinct = len({key for key, _value in result.output})
        assert result.container_stats.distinct_keys == distinct < len(
            result.output
        )

    def test_duplicated_keys_are_grouped_for_a_reducer_that_wants_groups(
        self, terasort_file, tmp_path, grouping_calls
    ):
        from repro.apps.sortapp import reference_sort

        dup = duplicate_keys(terasort_file, tmp_path / "dup.dat")
        reduced = []

        def count_values(key, values):
            reduced.append((key, list(values)))
            return [(key, len(values))]

        job = replace(make_sort_job([dup]), reduce_fn=count_values)
        result = SupMRRuntime(self.DUP_OPTIONS).run(job)
        assert result.spill_stats.runs >= 9
        # Grouping still happens, at the reduce edge: each key reached
        # the reducer once, with all its values in emit order.
        assert grouping_calls
        expected = [
            (key, [value for _key, value in records])
            for key, records in groupby(reference_sort([dup]), itemgetter(0))
        ]
        assert sorted(reduced) == expected
        assert len(reduced) == len({key for key, _values in reduced})
        assert result.output == [
            (key, len(values)) for key, values in expected
        ]
