#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --seed 1             # everything: timed, then traced
    python3 bench/run.py --seed 1 --trace 0   # the timed runs only
    python3 bench/run.py --seed 1 --trace 1   # the traced runs only
    python3 bench/run.py --selfcheck          # timed set twice, vs the bounds
    python3 bench/run.py --workload sort_spill --seed 1 --seconds 15 --trace 0

The last form is what ``BENCHMARK.json``'s command expands to: one
workload in this process, every metric printed by name with its unit,
and one JSON object as the last line of standard output.  Without
``--workload`` each workload runs in its own fresh child process and the
results are gathered into ``bench/results/latest.json`` and
``bench/results/trace.json``.  ``bench/README.md`` has the tables.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
#: A child gets this long before the parent gives up on it.
CHILD_TIMEOUT_S = 900


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process, and end with the result line")
    parser.add_argument("--seed", type=int, default=1,
                        help="input generation seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each timed run measures "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0: timed runs (end-to-end metrics); 1: traced "
                        "runs (per-layer metrics); default: both, traced last")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the timed set twice and compare the two "
                        "against each metric's bound")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier, for the smoke test "
                        "only; numbers at other scales are not comparable")
    return parser.parse_args(argv)


def record_path(workload: str, trace: int) -> Path:
    return RESULTS_DIR / f"{workload}.trace{trace}.json"


# -- one workload, in this process -------------------------------------------


def run_one(args: argparse.Namespace, spec: dict) -> int:
    from benchlib import host, report
    from benchlib.timed import RunContext, run_timed
    from benchlib.traced import run_traced
    from benchlib.workloads import BY_NAME

    import_s = time.perf_counter() - _STARTED
    if args.workload not in BY_NAME:
        print(f"unknown workload {args.workload!r}; known: "
              + ", ".join(BY_NAME), file=sys.stderr)
        return 2
    trace = args.trace or 0
    workdir = RESULTS_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    host.use_tempdir(workdir / "tmp")
    ctx = RunContext(
        workload=BY_NAME[args.workload], seed=args.seed,
        seconds=args.seconds, scale=args.scale,
        workers=host.worker_count(), src_dir=SRC_DIR, workdir=workdir,
        import_s=import_s,
    )
    try:
        environment = host.environment(workdir)
        measured = run_traced(ctx) if trace else run_timed(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    header = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": trace, "environment": environment,
    }
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    record = report.run_record(measured, declared, header)
    stored = dict(record)
    if trace:
        stored["spans"] = measured["spans"]
    report.write_json(record_path(args.workload, trace), stored)
    print("\n".join(report.table(record)))
    print(report.contract_line(record))
    return 0


# -- every workload, each in a fresh child -----------------------------------


def run_child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """One workload in a fresh process (so peak RSS is per workload)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", str(args.scale),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {done.returncode}:\n"
            f"{done.stdout}\n{done.stderr}"
        )
    return json.loads(record_path(workload, trace).read_text())


def run_set(args: argparse.Namespace, spec: dict, trace: int) -> dict:
    from benchlib import report

    records = {}
    for workload in (w["name"] for w in spec["workloads"]):
        record = run_child(args, workload, trace)
        records[workload] = record
        print("\n".join(report.table(record)), flush=True)
    return records


def run_all(args: argparse.Namespace, spec: dict) -> int:
    from benchlib import SCHEMA_VERSION, report

    timed = run_set(args, spec, 0) if args.trace in (None, 0) else {}
    traced = run_set(args, spec, 1) if args.trace in (None, 1) else {}
    spans = []
    for record in traced.values():
        spans.extend(record.pop("spans"))
    some = next(iter((timed or traced).values()))
    latest = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "environment": some["environment"],
        "workloads": {
            name: {
                "end_to_end": timed.get(name),
                "per_layer": traced.get(name),
            }
            for name in (w["name"] for w in spec["workloads"])
        },
    }
    report.write_json(RESULTS_DIR / "latest.json", latest)
    if traced:
        report.write_json(RESULTS_DIR / "trace.json", {
            "schema_version": SCHEMA_VERSION, "seed": args.seed,
            "spans": spans,
        })
    failed = sum(
        r["failed"] for r in list(timed.values()) + list(traced.values())
    )
    print(f"wrote {RESULTS_DIR / 'latest.json'}; failed jobs: {failed}")
    return 1 if failed else 0


def selfcheck(args: argparse.Namespace, spec: dict) -> int:
    from benchlib import report

    first = run_set(args, spec, 0)
    second = run_set(args, spec, 0)
    rows = report.compare_sets(first, second, spec["end_to_end"])
    failed = sum(r["failed"] for r in list(first.values()) + list(second.values()))
    for row in rows:
        verdict = "ok" if row["within_bound"] else "EXCEEDS BOUND"
        print(
            f"{row['workload']:<15} {row['metric']:<16} "
            f"{row['first']:>11.5g} {row['second']:>11.5g} {row['unit']:<5} "
            f"diff {row['relative_difference']:6.1%} "
            f"bound {row['bound']:.0%}  {verdict}"
        )
    report.write_json(RESULTS_DIR / "selfcheck.json", {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "failed_jobs": failed, "rows": rows,
    })
    ok = failed == 0 and all(row["within_bound"] for row in rows)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").exists():
        print(f"nothing to benchmark: {SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    from benchlib import host

    host.adopt_orphans()
    try:
        if args.workload:
            return run_one(args, spec)
        if args.selfcheck:
            return selfcheck(args, spec)
        return run_all(args, spec)
    finally:
        # nothing this run started outlives it, whichever way it ends
        for cmdline in host.end_children():
            print(f"killed a process left running: {cmdline}",
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
