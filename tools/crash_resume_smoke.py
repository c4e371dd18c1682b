#!/usr/bin/env python
"""CI smoke: SIGKILL a checkpointed job mid-run, resume, diff digests.

Exercises the whole crash-safety story end to end through the real CLI,
once per leg:

1. generate an input and run the job uninterrupted, recording the
   output digest;
2. start the same job with ``--checkpoint-dir``, poll the journal, and
   ``kill -9`` the process as soon as the leg's condition holds;
3. run again with ``--resume`` and require the digest to match step 1.

The **wordcount** leg kills once an ingest round is journaled.  The
**budgeted sort** leg runs under ``--memory-budget`` and kills once at
least three spill runs are sealed in the journal: the resume adopts
them (each re-verified against its header CRC), spills the rest and
merges old and new runs together — and must leave no ``repro-spill-*``
directory behind.

Exits non-zero (failing the CI job) on any divergence.  If a job
finishes before the kill lands (fast runner), the input is grown and
the round trip retried a few times before giving up as inconclusive.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))

_DIGEST_RE = re.compile(r"^\s*digest:\s*([0-9a-f]{64})\s*$", re.MULTILINE)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=ENV, timeout=600,
    )


def digest_of(proc: subprocess.CompletedProcess) -> str:
    match = _DIGEST_RE.search(proc.stdout)
    if proc.returncode != 0 or match is None:
        sys.exit(
            f"CLI run failed (rc={proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return match.group(1)


def kill_mid_run(job: list[str], ckpt: Path, ready) -> bool:
    """Start a checkpointed run; SIGKILL once ``ready(journal state)``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *job,
         "--checkpoint-dir", str(ckpt)],
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    journal = ckpt / "journal.json"
    deadline = time.monotonic() + 300
    try:
        while time.monotonic() < deadline and proc.poll() is None:
            if journal.exists():
                try:
                    state = json.loads(journal.read_text())["payload"]
                except (ValueError, KeyError, OSError):
                    time.sleep(0.002)
                    continue
                if state["stage"] == "mapping" and ready(state):
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=60)
                    print(
                        f"  killed mid-run with rounds "
                        f"{state['completed_rounds']} and "
                        f"{len(state['spill_runs'])} spill run(s) journaled"
                    )
                    return True
            time.sleep(0.002)
        proc.wait(timeout=60)
        return False
    finally:
        if proc.poll() is None:  # pragma: no cover - defensive
            proc.kill()


def spill_dirs() -> set[Path]:
    return set(Path(tempfile.gettempdir()).glob("repro-spill-*"))


def round_trip(name: str, tmp: Path, generate, job, ready) -> None:
    """One leg: reference run, kill, resume, compare.  ``generate(n)``
    writes attempt ``n``'s input (larger each time) and returns its
    path; ``job(path)`` is the CLI argv that runs it."""
    for attempt in range(3):
        path = generate(attempt)
        print(f"{name}, attempt {attempt + 1}: {path.stat().st_size} bytes")
        leaked_before = spill_dirs()
        reference = digest_of(run_cli(*job(path)))
        print(f"  reference digest {reference}")

        ckpt = tmp / f"{name}-ckpt-{attempt}"
        if not kill_mid_run(job(path), ckpt, ready):
            print("  job finished before the kill; growing the input")
            continue

        resumed = run_cli(*job(path), "--checkpoint-dir", str(ckpt), "--resume")
        resumed_digest = digest_of(resumed)
        if "resume: restored" not in resumed.stdout:
            sys.exit(f"resumed run did not report a resume:\n{resumed.stdout}")
        if resumed_digest != reference:
            sys.exit(
                f"DIGEST MISMATCH after resume: "
                f"{resumed_digest} != {reference}"
            )
        leaked = spill_dirs() - leaked_before
        if leaked:
            sys.exit(f"spill directories left behind: {sorted(leaked)}")
        print(f"  resumed digest   {resumed_digest} (identical)")
        print(f"{name}: crash/resume round trip OK")
        return
    sys.exit(f"{name}: could not kill the job mid-run after 3 attempts")


def generated(path: Path, kind: str, *size: str) -> Path:
    """``supmr gen KIND PATH SIZE... --seed 5``; returns ``path``."""
    gen = run_cli("gen", kind, str(path), *size, "--seed", "5")
    if gen.returncode != 0:
        sys.exit(f"{kind} generation failed:\n{gen.stderr}")
    return path


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="crash-resume-smoke-"))
    round_trip(
        "wordcount", tmp,
        lambda n: generated(
            tmp / "corpus.txt", "text", "--size", f"{2 * 2 ** n}MB"
        ),
        lambda path: ["wordcount", str(path), "--chunk-size", "64KB"],
        lambda state: bool(state["completed_rounds"]),
    )
    # A budget a sixth of the 6 MB input: 13 runs uninterrupted, so the
    # kill at 3 leaves most of them to the resumed process.
    round_trip(
        "budgeted-sort", tmp,
        lambda n: generated(
            tmp / "records.dat", "terasort",
            "--records", str(60_000 * 2 ** n),
        ),
        lambda path: ["sort", str(path), "--chunk-size", "128KB",
                      "--memory-budget", "1MB"],
        lambda state: len(state["spill_runs"]) >= 3,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
