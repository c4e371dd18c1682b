"""The one options table: every consumer is a loop over it, so these
tests are loops over it too.

``CHANGED`` names, for every :class:`RuntimeOptions` field, one valid
non-default value; a new field without a row here fails
``test_every_field_has_a_changed_value``, and one declared without its
``wire``/``fingerprint`` marks fails ``test_every_field_is_marked``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.apps.wordcount import make_wordcount_job
from repro.core.flags import RUNTIME_FLAGS, options_from_flags
from repro.core.options import (
    FINGERPRINT_FIELDS,
    WIRE_FIELDS,
    ChunkStrategy,
    MergeAlgorithm,
    RuntimeOptions,
)
from repro.faults import parse_faults
from repro.faults.policy import RecoveryPolicy
from repro.net.jobs import options_from_wire, options_to_wire
from repro.parallel.backends import ExecutorBackend
from repro.resilience.journal import job_fingerprint
from repro.service.jobspec import ServiceJobSpec

#: Valid against BASE, and different from it, field by field.
BASE = RuntimeOptions.supmr_interfile(
    "16KB", 2, 2, num_shards=2, io_budget="1MB", checkpoint_dir="/tmp/ckpt"
)
CHANGED = {
    "num_mappers": 7,
    "num_reducers": 7,
    "chunk_strategy": ChunkStrategy.HYBRID,
    "chunk_bytes": 32 * 1024,
    "files_per_chunk": 3,
    "chunk_schedule": (4096, 8192),
    "merge_algorithm": MergeAlgorithm.PAIRWISE,
    "pipelined_ingest": False,
    "memory_budget": 1 << 20,
    "fault_plan": parse_faults("ingest.read=once,map.task=0.5", seed=7),
    "recovery": RecoveryPolicy(max_retries=1, skip_budget=5),
    "executor_backend": ExecutorBackend.SERIAL,
    "checkpoint_dir": "/tmp/other-ckpt",
    "resume": True,
    "job_deadline_s": 5.0,
    "num_shards": 3,
    "shard_dir": "/tmp/shards",
    "io_budget": 2 << 20,
    "io_burst": 4096,
    "tenant": "acme",
    "io_priority": 2,
    "transport": "pipe",
    "peers": ("h:1",),
    "net_timeout_s": 3.0,
}
FIELDS = dataclasses.fields(RuntimeOptions)

#: ServiceJobSpec fields that describe the submission, not the runtime.
SUBMISSION_FIELDS = {"app", "inputs", "priority", "tag"}


class TestCompleteness:
    def test_every_field_is_marked(self):
        for f in FIELDS:
            assert set(f.metadata) == {"wire", "fingerprint"}, f.name

    def test_every_field_has_a_changed_value(self):
        assert set(CHANGED) == {f.name for f in FIELDS}
        for name, value in CHANGED.items():
            assert getattr(BASE.with_(**{name: value}), name) \
                != getattr(BASE, name), name

    def test_no_knob_added(self):
        assert len(FIELDS) == 24
        assert len(dataclasses.fields(ServiceJobSpec)) == 23
        # the 24 shared flags plus wordcount's --files-per-chunk / --top
        assert len(RUNTIME_FLAGS) == 26
        assert len({flag.name for flag in RUNTIME_FLAGS}) == 26

    def test_every_flag_lowers_to_real_fields(self):
        names = {f.name for f in FIELDS}
        for flag in RUNTIME_FLAGS:
            assert set(flag.lowers) <= names, flag.name
            assert flag.via is not None or len(flag.lowers) <= 1, flag.name

    def test_group_lowerings_stay_inside_their_rows(self):
        probes = [
            {"files_per_chunk": 2, "faults": "map.task=0.5", "fault_seed": 7,
             "retry": 2, "skip_budget": 5, "checkpoint_dir": "/tmp/c",
             "resume": True},
            {"chunk_size": "32KB"},
        ]
        for via in {flag.via for flag in RUNTIME_FLAGS if flag.via}:
            declared = {
                field for flag in RUNTIME_FLAGS if flag.via is via
                for field in flag.lowers
            }
            produced = {field for probe in probes for field in via(probe.get)}
            assert produced == declared, via.__name__

    def test_spec_fields_are_exactly_the_in_spec_flags(self):
        spec_fields = {
            f.name: f for f in dataclasses.fields(ServiceJobSpec)
            if f.name not in SUBMISSION_FIELDS
        }
        in_spec = {flag.dest: flag for flag in RUNTIME_FLAGS if flag.in_spec}
        assert set(spec_fields) == set(in_spec)
        for dest, flag in in_spec.items():
            default = flag.argparse.get(
                "default",
                False if flag.argparse.get("action") == "store_true" else None,
            )
            assert spec_fields[dest].default == default, flag.name

    def test_marks_match_the_parent_commit(self):
        assert {f.name for f in WIRE_FIELDS} == {
            "num_mappers", "num_reducers", "memory_budget",
            "merge_algorithm", "io_budget", "io_burst",
            "tenant", "io_priority", "recovery", "fault_plan",
        }
        # slot order is frozen: it is the order of the hashed tuple
        assert [f.name for f in FINGERPRINT_FIELDS] == [
            "chunk_strategy", "chunk_bytes", "files_per_chunk",
            "chunk_schedule", "num_reducers", "merge_algorithm",
            "memory_budget", "fault_plan",
        ]


class TestWire:
    @pytest.mark.parametrize("f", WIRE_FIELDS, ids=lambda f: f.name)
    def test_wire_field_survives_the_round_trip(self, f):
        options = BASE.with_(**{f.name: CHANGED[f.name]})
        wire = options_to_wire(options)
        assert json.loads(json.dumps(wire)) == wire
        rebuilt = options_from_wire(wire)
        assert getattr(rebuilt, f.name) == CHANGED[f.name]

    def test_only_marked_fields_travel(self):
        everything = BASE.with_(**{
            k: v for k, v in CHANGED.items() if k != "chunk_strategy"
        })
        assert set(options_to_wire(everything)) \
            == {f.name for f in WIRE_FIELDS}
        # without a fault plan the key is absent, not null
        assert set(options_to_wire(BASE)) \
            == {f.name for f in WIRE_FIELDS} - {"fault_plan"}

    def test_keys_from_an_older_sender_are_ignored(self):
        # these were settable, and rode the wire, until they became
        # constants
        current = options_to_wire(BASE)
        wire = {
            **current, "spill_merge_fan_in": 4,
            "recovery": {**current["recovery"], "verify_spills": False,
                         "backoff_factor": 3.0, "backoff_max_s": 1.0},
        }
        assert options_from_wire(wire) == options_from_wire(current)


class TestFingerprint:
    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_fingerprint_moves_only_with_marked_fields(self, f, text_file):
        job = make_wordcount_job([text_file])
        changed = BASE.with_(**{f.name: CHANGED[f.name]})
        moved = job_fingerprint(job, changed) != job_fingerprint(job, BASE)
        # e.g. num_mappers, job_deadline_s, executor_backend must not
        # move it: the degradation ladder resumes across those
        assert moved == (f in FINGERPRINT_FIELDS)


class TestLowering:
    def test_empty_string_is_unset(self):
        assert options_from_flags({"tenant": "", "peers": "", "chunk_size": ""}) \
            == RuntimeOptions()

    def test_retry_and_skip_budget_need_a_fault_plan(self):
        assert options_from_flags({"retry": 1, "skip_budget": 2}) \
            == RuntimeOptions()

    def test_resume_needs_a_checkpoint_dir(self):
        assert options_from_flags({"resume": True}) == RuntimeOptions()
        assert options_from_flags(
            {"resume": True, "checkpoint_dir": "/tmp/c"}
        ).resume is True
