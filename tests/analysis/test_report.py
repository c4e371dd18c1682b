"""JSON result reports."""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import job_result_dict, sim_result_dict, to_json
from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.core.supmr import run_ingest_mr
from repro.simrt.costmodel import GB_SI, PAPER_SORT
from repro.simrt.phoenix_sim import simulate_phoenix_job


@pytest.fixture(scope="module")
def wc_result(text_file):
    return run_ingest_mr(make_wordcount_job([text_file]),
                         RuntimeOptions.supmr_interfile("32KB"))


class TestJobResultReport:
    def test_dict_fields(self, wc_result):
        data = job_result_dict(wc_result)
        assert data["runtime"] == "supmr"
        assert data["n_chunks"] == wc_result.n_chunks
        assert data["timings"]["read_map_combined"] is True
        assert len(data["timings"]["rounds"]) == wc_result.n_chunks + 1
        assert "output" not in data

    def test_output_included_on_request(self, wc_result):
        data = job_result_dict(wc_result, include_output=True)
        assert len(data["output"]) == wc_result.n_output_pairs
        # bytes keys decoded for JSON
        assert isinstance(data["output"][0][0], str)

    def test_json_round_trips(self, wc_result):
        text = to_json(wc_result)
        parsed = json.loads(text)
        assert parsed["job"] == "wordcount"
        assert parsed["counters"]["merge_algorithm"] == "pway"


class TestSimResultReport:
    def test_sim_dict_fields(self):
        result = simulate_phoenix_job(PAPER_SORT, 1 * GB_SI,
                                      monitor_interval=1.0)
        data = sim_result_dict(result)
        assert data["app"] == "sort"
        assert data["spans"][0]["name"] == "read"
        assert data["samples"][0]["time"] == 0.0
        json.dumps(data)  # fully serializable

    def test_to_json_dispatches_on_type(self):
        result = simulate_phoenix_job(PAPER_SORT, 1 * GB_SI,
                                      monitor_interval=1.0)
        parsed = json.loads(to_json(result))
        assert parsed["runtime"] == "phoenix"


class TestCliJson:
    def test_wordcount_json_flag(self, text_file, capsys):
        from repro.cli import main

        assert main(["wordcount", str(text_file), "--chunk-size", "64KB",
                     "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["runtime"] == "supmr"
        assert parsed["n_output_pairs"] > 0


class TestImportFootprint:
    def test_report_does_not_load_the_simulator(self):
        """Every service runner and every one-shot ``--json`` imports
        ``repro.analysis.report``; none of them simulates anything."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        probe = (
            "import sys, repro.analysis, repro.analysis.report\n"
            "print([m for m in sys.modules\n"
            "       if m.startswith(('repro.simhw', 'repro.simrt'))])\n"
            "print([n for n in repro.analysis.__all__\n"
            "       if not hasattr(repro.analysis, n)])\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.splitlines()
        assert out == ["[]", "[]"]
