#!/usr/bin/env python
"""CI smoke: shm and pipe transports agree on faulted and sharded jobs.

Drives the real CLI end to end across both result transports:

1. generate a corpus and run a supervised process-backend wordcount
   with seeded worker kills (``worker.crash=once`` — hangs are left to
   the test suite: the CLI's 30s default lease would dominate a smoke)
   under the pipe transport — the reference — recording its output
   digest;
2. rerun the identical job under the shared-memory transport and
   require a byte-identical digest;
3. run the job sharded (``--shards 2``) with a seeded shard loss under
   both transports and require the same digest again;
4. run a terasort ``sort`` — array deltas, every record crossing the
   process boundary, where word count's hash deltas carry a tenth of the
   input — with the same seeded worker kills under both transports and
   require one digest;
5. after every run, require that no ``rxf*`` shared-memory segment is
   left behind in ``/dev/shm`` — the no-leak guarantee, including the
   crash paths the fault plan just exercised.

Exits non-zero (failing the CI job) on any divergence or leak.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))

_DIGEST_RE = re.compile(r"^\s*digest:\s*([0-9a-f]{64})\s*$", re.MULTILINE)

FAULTS = "worker.crash=once"
SHARD_FAULTS = "shard.worker_loss=once"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=ENV, timeout=600,
    )


def digest_of(proc: subprocess.CompletedProcess, label: str) -> str:
    match = _DIGEST_RE.search(proc.stdout)
    if proc.returncode != 0 or match is None:
        sys.exit(
            f"{label} failed (rc={proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return match.group(1)


def shm_segments() -> set[str]:
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("rxf")}
    except OSError:
        return set()


def main() -> int:
    before = shm_segments()
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="xfer_smoke_") as tmp:
        corpus = Path(tmp) / "corpus.txt"
        gen = run_cli("gen", "text", str(corpus), "--size", "256KB",
                      "--seed", "5")
        if gen.returncode != 0:
            sys.exit(f"corpus generation failed:\n{gen.stdout}\n{gen.stderr}")

        records = Path(tmp) / "records.dat"
        gen = run_cli("gen", "terasort", str(records), "--records", "3000",
                      "--seed", "5")
        if gen.returncode != 0:
            sys.exit(f"record generation failed:\n{gen.stdout}\n{gen.stderr}")

        knobs = ("--chunk-size", "16KB", "--backend", "process",
                 "--mappers", "4", "--reducers", "3")
        base = ("wordcount", str(corpus), *knobs)

        def faulted(label: str, *extra: str,
                    job: tuple[str, ...] = base) -> str:
            proc = run_cli(*job, "--faults", FAULTS, "--fault-seed", "7",
                           *extra)
            digest = digest_of(proc, label)
            leaked = shm_segments() - before
            if leaked:
                failures.append(f"{label}: leaked segments {sorted(leaked)}")
            print(f"{label:28s} digest {digest[:12]}")
            return digest

        reference = faulted("faulted pipe", "--transport", "pipe")
        if faulted("faulted shm", "--transport", "shm") != reference:
            failures.append("faulted shm: digest diverged from pipe baseline")

        def sharded(label: str, transport: str) -> str:
            proc = run_cli(*base, "--shards", "2",
                           "--faults", SHARD_FAULTS, "--fault-seed", "3",
                           "--transport", transport)
            digest = digest_of(proc, label)
            leaked = shm_segments() - before
            if leaked:
                failures.append(f"{label}: leaked segments {sorted(leaked)}")
            print(f"{label:28s} digest {digest[:12]}")
            return digest

        shard_pipe = sharded("sharded+lost pipe", "pipe")
        shard_shm = sharded("sharded+lost shm", "shm")
        if shard_pipe != shard_shm:
            failures.append("sharded job: shm digest diverged from pipe")
        if shard_pipe != reference:
            failures.append(
                "sharded job digest diverged from the unsharded reference"
            )

        sort_job = ("sort", str(records), *knobs)
        sort_pipe = faulted("faulted sort pipe", "--transport", "pipe",
                            job=sort_job)
        sort_shm = faulted("faulted sort shm", "--transport", "shm",
                           job=sort_job)
        if sort_pipe != sort_shm:
            failures.append("sort job: shm digest diverged from pipe")

    if failures:
        print("\nXFER SMOKE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("xfer smoke passed: all digests identical, /dev/shm clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
