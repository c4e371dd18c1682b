"""The whole command at a fiftieth of the size: every workload timed and
traced in child processes, results gathered and well-formed."""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_whole_command_at_small_scale():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--seed", "3",
         "--scale", "0.02", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    latest = json.loads((BENCH_DIR / "results" / "latest.json").read_text())
    assert latest["schema_version"] == 1
    assert latest["seed"] == 3
    assert {"cpu_count", "workers", "python", "shm_available",
            "tmp_filesystem"} <= set(latest["environment"])
    assert list(latest["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, both in latest["workloads"].items():
        timed, traced = both["end_to_end"], both["per_layer"]
        assert timed["failed"] == 0 and traced["failed"] == 0, name
        assert set(timed["metrics"]) == {
            m["name"] for m in SPEC["end_to_end"]}
        assert set(traced["metrics"]) == {
            m["name"] for m in SPEC["per_layer"]}
        job_s = timed["metrics"]["job_s"]
        assert job_s["n"] == len(job_s["samples"]) >= 5
        assert job_s["q1"] <= job_s["median"] <= job_s["q3"]
        assert job_s["unit"] == "s"
        assert name in done.stdout
    trace = json.loads((BENCH_DIR / "results" / "trace.json").read_text())
    assert {s["workload"] for s in trace["spans"]} == set(latest["workloads"])
    assert all({"name", "workload", "start", "end", "parent"} <= set(s)
               for s in trace["spans"])
    leftovers = [p.name for p in (BENCH_DIR / "results").glob("work-*")]
    assert leftovers == []
