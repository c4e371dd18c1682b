"""Multi-host sharded runs, in process: digests never depend on the wire.

Two real agents on localhost host the shard workers; the coordinator
talks to them over the framed TCP transport.  The acceptance bar is the
ISSUE's: byte-identical output digests across local, multi-host, and
every injected ``net.*`` fault run — including the ones that kill or
partition every peer mid-job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.faults.plan import (
    SITE_NET_CONN_DROP,
    SITE_NET_FRAME_CORRUPT,
    SITE_NET_HOST_LOSS,
    SITE_NET_PARTIAL_WRITE,
    SITE_NET_PARTITION,
    FaultPlan,
    FaultSpec,
)
from repro.faults.policy import RecoveryPolicy
from repro.parallel.backends import fork_available
from repro.shard import run_sharded

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

#: The checkout under test; its agents must import this tree's code.
_ROOT = Path(__file__).resolve().parents[2]


def _options(**overrides) -> RuntimeOptions:
    return RuntimeOptions.supmr_interfile("32KB", 2, 4).with_(
        num_shards=2, **overrides
    )


class _AgentProc:
    """One real ``supmr agent`` subprocess (it may be told to *die*)."""

    def __init__(self, tmp_path, name: str) -> None:
        addr_file = tmp_path / f"{name}.addr"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "agent",
                "--listen", "127.0.0.1:0",
                "--workdir", str(tmp_path / name),
                "--addr-file", str(addr_file),
                "--grace", "2.0",
            ],
            env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
            cwd=_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 10.0
        while not addr_file.exists():
            status = self.proc.poll()
            if status is not None:
                raise RuntimeError(
                    f"agent {name} exited with status {status} before it "
                    "wrote its address"
                )
            if time.monotonic() > deadline:
                self.close()
                raise TimeoutError(f"agent {name} wrote no address in 10 s")
            time.sleep(0.05)
        self.addr = addr_file.read_text().strip()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)


@pytest.fixture
def agents(tmp_path):
    first = _AgentProc(tmp_path, "agent-a")
    try:
        pair = (first, _AgentProc(tmp_path, "agent-b"))
    except BaseException:
        first.close()
        raise
    yield pair
    for srv in pair:
        srv.close()


@pytest.fixture(scope="module")
def local_digest(text_file) -> str:
    """The ground truth every networked run must reproduce exactly."""
    result = run_sharded(make_wordcount_job([text_file]), _options())
    return result.output_digest()


def _run_remote(text_file, agents, **overrides):
    options = _options(
        peers=",".join(srv.addr for srv in agents),
        net_timeout_s=1.0,
        **overrides,
    )
    return run_sharded(make_wordcount_job([text_file]), options)


class TestRemoteParity:
    def test_digest_matches_local(self, text_file, agents, local_digest):
        result = _run_remote(text_file, agents)
        assert result.output_digest() == local_digest
        assert result.counters["transport"] == "exchange-tcp"
        assert result.counters["net_peers"] == 2
        assert result.counters["net_host_losses"] == 0
        assert "net_fallback" not in result.counters

    @pytest.mark.parametrize("site", [
        SITE_NET_CONN_DROP,
        SITE_NET_FRAME_CORRUPT,
        SITE_NET_PARTIAL_WRITE,
        SITE_NET_HOST_LOSS,
        SITE_NET_PARTITION,
    ])
    def test_injected_fault_preserves_digest(
        self, text_file, agents, local_digest, site
    ):
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(
                site=site, once_per_scope=True, max_fires=2,
                duration_s=5.0 if site == SITE_NET_PARTITION else None,
            ),
        ))
        result = _run_remote(text_file, agents, fault_plan=plan)
        assert result.output_digest() == local_digest
        # In-run recovery absorbed the fault: no local re-run happened.
        assert "net_fallback" not in result.counters

    def test_host_loss_is_counted_and_recovered_in_run(
        self, text_file, agents, local_digest
    ):
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(site=SITE_NET_HOST_LOSS, once_per_scope=True),
        ))
        result = _run_remote(text_file, agents, fault_plan=plan)
        assert result.output_digest() == local_digest
        # once_per_scope rolls per link: every peer died mid-map, and
        # the ladder moved their shards home without a full re-run.
        assert result.counters["net_host_losses"] >= 1
        assert result.counters["net_hosts_lost"]
        assert "net_fallback" not in result.counters


class TestLocalFallback:
    def test_unabsorbable_failure_reruns_locally(
        self, text_file, agents, local_digest
    ):
        # With a zero retry budget the injected transfer corruption
        # exhausts immediately: the in-run ladder cannot absorb it, so
        # the whole job must fall back to a clean local re-run — where
        # the net.* site has no remote fetch to fire on.
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(site=SITE_NET_FRAME_CORRUPT, once_per_scope=True),
        ))
        result = _run_remote(
            text_file, agents,
            fault_plan=plan, recovery=RecoveryPolicy(max_retries=0),
        )
        assert result.output_digest() == local_digest
        assert result.counters["net_fallback"] == "local"
        assert "net.frame.corrupt" in result.counters["net_fallback_reason"]
        assert result.counters["transport"] == "exchange-file"
