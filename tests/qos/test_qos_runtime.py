"""End-to-end throttled runs: digest identity, counters, fault sites.

The load-bearing property: throttling only *delays* I/O — an
``io_budget`` of any size changes wall-clock, never bytes, so output
digests are identical to the unthrottled run's.
"""

from __future__ import annotations

import pytest

from repro.analysis.timeline import render_qos_summary
from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.supmr import SupMRRuntime
from repro.errors import ConfigError
from repro.faults import parse_faults
from repro.parallel.backends import fork_available
from repro.shard import ShardedRuntime


def supmr_options(**kw) -> RuntimeOptions:
    return RuntimeOptions.supmr_interfile("64KB").with_(**kw)


class TestDigestIdentity:
    def test_supmr_digest_unchanged_by_throttle(self, text_file):
        job = make_wordcount_job([text_file])
        plain = SupMRRuntime(supmr_options()).run(job)
        # generous budget: the run pays a few waits, not minutes
        throttled = SupMRRuntime(
            supmr_options(io_budget="64MB", tenant="acme")
        ).run(job)
        assert throttled.output_digest() == plain.output_digest()
        assert throttled.output == plain.output

    def test_phoenix_digest_unchanged_by_throttle(self, text_file):
        job = make_wordcount_job([text_file])
        plain = PhoenixRuntime().run(job)
        throttled = PhoenixRuntime(
            RuntimeOptions().with_(io_budget="64MB")
        ).run(job)
        assert throttled.output_digest() == plain.output_digest()

    def test_digest_stable_across_budgets(self, text_file):
        job = make_wordcount_job([text_file])
        digests = {
            SupMRRuntime(supmr_options(io_budget=budget)).run(job)
            .output_digest()
            for budget in ("1MB", "16MB", "512MB")
        }
        assert len(digests) == 1

    def test_spill_path_digest_unchanged_by_throttle(self, text_file):
        job = make_wordcount_job([text_file])
        base = RuntimeOptions.supmr_interfile("16KB").with_(
            memory_budget="64KB"
        )
        plain = SupMRRuntime(base).run(job)
        throttled = SupMRRuntime(base.with_(io_budget="32MB")).run(job)
        assert throttled.output_digest() == plain.output_digest()
        # spill writes are metered too: more bytes than the input alone
        assert throttled.counters["throttle_bytes"] > plain.input_bytes


class TestThrottleCounters:
    def test_counters_surface_on_the_result(self, text_file):
        result = SupMRRuntime(
            supmr_options(io_budget="64MB", tenant="acme")
        ).run(make_wordcount_job([text_file]))
        assert result.counters["tenant"] == "acme"
        assert result.counters["io_budget_bps"] == 64 * 1024 * 1024
        assert result.counters["throttle_bytes"] == result.input_bytes
        assert result.counters["throttle_wait_s"] >= 0.0

    def test_unthrottled_runs_carry_no_qos_counters(self, text_file):
        result = SupMRRuntime(supmr_options()).run(
            make_wordcount_job([text_file])
        )
        assert "io_budget_bps" not in result.counters
        assert "throttle_bytes" not in result.counters

    def test_tight_budget_actually_waits(self, text_file):
        # ~200KB input against a 100KB/s budget with a tiny burst: the
        # run must spend >= 1s waiting (bytes - burst) / rate
        result = SupMRRuntime(
            supmr_options(io_budget="100KB", io_burst="32KB")
        ).run(make_wordcount_job([text_file]))
        floor = (result.input_bytes - 32 * 1024) / (100 * 1024)
        assert result.counters["throttle_wait_s"] >= floor * 0.5
        assert result.counters["throttle_waits"] >= 1

    def test_render_qos_summary_line(self, text_file):
        result = SupMRRuntime(
            supmr_options(io_budget="64MB", tenant="acme")
        ).run(make_wordcount_job([text_file]))
        line = render_qos_summary(result.counters)
        assert line.startswith("qos:")
        assert "tenant=acme" in line
        assert render_qos_summary({}) == ""


class _FakeTime:
    """Stands in for the ``time`` module inside ``repro.qos.throttle``:
    sleeping advances the clock instead of the wall.  Forked shard
    workers inherit it, each with its own copy."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestShardedBudget:
    def test_shard_workers_meter_their_share_of_the_budget(
        self, text_file, monkeypatch
    ):
        # --shards 2 --io-budget 64KB: each shard worker charges its
        # block's ingest reads to a 32KB/s bucket and ships the tallies
        # home, where they are summed.
        monkeypatch.setattr("repro.qos.throttle.time", _FakeTime())
        job = make_wordcount_job([text_file])
        options = RuntimeOptions.supmr_interfile("32KB", 2, 4).with_(
            num_shards=2
        )
        plain = ShardedRuntime(options).run(job)
        throttled = ShardedRuntime(
            options.with_(io_budget="64KB", tenant="acme")
        ).run(job)
        assert throttled.output_digest() == plain.output_digest()
        counters = throttled.counters
        assert counters["tenant"] == "acme"
        assert counters["throttle_bytes"] >= plain.input_bytes
        assert counters["io_budget_bps"] == 64 * 1024
        # ~100KB per shard against a 32KB/s share (32KB burst): seconds
        # of (fake) waiting in each worker, none of it on the wall
        assert counters["throttle_waits"] >= 2
        assert counters["throttle_wait_s"] >= 2.0
        assert "throttle_bytes" not in plain.counters


class TestThrottleFaultSite:
    def test_injected_stalls_slow_but_do_not_corrupt(self, text_file):
        job = make_wordcount_job([text_file])
        plain = SupMRRuntime(supmr_options()).run(job)
        stalled = SupMRRuntime(supmr_options(
            io_budget="64MB",
            fault_plan=parse_faults("qos.throttle.stall=0.25", seed=7),
        )).run(job)
        assert stalled.output_digest() == plain.output_digest()
        assert stalled.counters.get("throttle_stalls", 0) >= 1
        assert stalled.counters["throttle_wait_s"] > 0


class TestOptionValidation:
    def test_io_budget_parsed_and_validated(self):
        # sizes are normalised to integer bytes/second at construction
        assert (
            RuntimeOptions().with_(io_budget="4MB").io_budget == 4 * 1024 * 1024
        )
        with pytest.raises(ConfigError):
            RuntimeOptions(io_budget="0")
        with pytest.raises(ConfigError):
            RuntimeOptions(io_budget="not-a-size")

    def test_io_burst_requires_a_budget(self):
        with pytest.raises(ConfigError):
            RuntimeOptions(io_burst="1MB")
        RuntimeOptions(io_budget="1MB", io_burst="1MB")  # fine together

    def test_tenant_must_be_non_empty(self):
        with pytest.raises(ConfigError):
            RuntimeOptions(tenant="")
