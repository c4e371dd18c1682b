"""Durable service state: CRC envelopes, records, and checkpoint reaping."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.service.jobspec import ServiceJobSpec
from repro.service.state import (
    STATE_DONE,
    STATE_QUEUED,
    STATE_RUNNING,
    JobRecord,
    ServiceState,
    read_json_crc,
    write_json_crc,
)


class TestCrcEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        write_json_crc(path, {"a": 1, "nested": {"b": [1, 2]}})
        assert read_json_crc(path) == {"a": 1, "nested": {"b": [1, 2]}}

    def test_bit_flip_is_detected(self, tmp_path):
        path = tmp_path / "x.json"
        write_json_crc(path, {"value": "precious"})
        text = path.read_text().replace("precious", "worthless")
        path.write_text(text)
        with pytest.raises(ServiceError, match="CRC"):
            read_json_crc(path)

    def test_garbage_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("this is not json")
        with pytest.raises(ServiceError, match="unreadable"):
            read_json_crc(path)

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "x.json"
        write_json_crc(path, {"gen": 1})
        write_json_crc(path, {"gen": 2})
        assert read_json_crc(path) == {"gen": 2}
        assert not path.with_suffix(".json.tmp").exists()


class TestJobRecord:
    def test_round_trip(self):
        record = JobRecord(
            job_id="abc123", state=STATE_DONE, priority=2, seq=7,
            attempts=2, exit_code=0, digest="deadbeef", resumed=True,
            result_fetched=True,
        )
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_unknown_keys_are_ignored(self):
        data = JobRecord(job_id="a", state=STATE_QUEUED).to_dict()
        data["from_the_future"] = True
        assert JobRecord.from_dict(data).job_id == "a"

    def test_records_older_than_the_rusage_fields_load(self):
        data = JobRecord(job_id="a", state=STATE_DONE, attempts=1).to_dict()
        del data["cpu_s"], data["max_rss_mb"]
        record = JobRecord.from_dict(data)
        assert record.cpu_s is None and record.max_rss_mb is None
        measured = record.with_(cpu_s=0.05, max_rss_mb=37.2)
        assert JobRecord.from_dict(measured.to_dict()) == measured

    def test_finished_property(self):
        assert JobRecord(job_id="a", state=STATE_DONE).finished
        assert not JobRecord(job_id="a", state=STATE_RUNNING).finished


class TestServiceState:
    def _make_job(self, svc, tmp_path, n, **record_kw):
        src = tmp_path / f"in-{n}.txt"
        src.write_text("x y z\n")
        spec = ServiceJobSpec(app="wordcount", inputs=(str(src),))
        record = JobRecord(
            job_id=f"job-{n:02d}", state=STATE_QUEUED, seq=n,
        ).with_(**record_kw)
        svc.create_job(spec, record)
        return record

    def test_endpoint_round_trip(self, tmp_path):
        state = ServiceState(tmp_path / "svc")
        state.write_endpoint("127.0.0.1", 4567)
        assert state.read_endpoint() == ("127.0.0.1", 4567)
        state.clear_endpoint()
        with pytest.raises(ServiceError, match="daemon"):
            state.read_endpoint()

    def test_records_reload_in_admission_order(self, tmp_path):
        state = ServiceState(tmp_path / "svc")
        for n in (2, 0, 1):
            self._make_job(state, tmp_path, n)
        fresh = ServiceState(tmp_path / "svc")
        assert [r.seq for r in fresh.load_all_records()] == [0, 1, 2]

    def test_spec_round_trips_through_disk(self, tmp_path):
        state = ServiceState(tmp_path / "svc")
        record = self._make_job(state, tmp_path, 0)
        fresh = ServiceState(tmp_path / "svc")
        spec = fresh.load_spec(record.job_id)
        assert spec.app == "wordcount"

    def test_result_round_trip(self, tmp_path):
        state = ServiceState(tmp_path / "svc")
        record = self._make_job(state, tmp_path, 0)
        report = json.dumps({"digest": "cafe"})
        state.write_result(record.job_id, report)
        assert json.loads(state.read_result(record.job_id)) == {
            "digest": "cafe"
        }
        with pytest.raises(ServiceError, match="no stored result"):
            state.read_result("nope")

    def test_reap_keeps_retention_most_recent(self, tmp_path):
        state = ServiceState(tmp_path / "svc")
        for n in range(4):
            self._make_job(
                state, tmp_path, n,
                state=STATE_DONE, exit_code=0, result_fetched=True,
            )
        reaped = state.reap_checkpoints(retention=2)
        assert reaped == ["job-00", "job-01"]
        assert not state.checkpoint_dir("job-00").exists()
        assert state.checkpoint_dir("job-02").exists()
        assert state.checkpoint_dir("job-03").exists()
        # records and results survive the reap — only checkpoints go
        assert state.load_record("job-00").state == STATE_DONE

    def test_reap_spares_unfetched_and_live_jobs(self, tmp_path):
        state = ServiceState(tmp_path / "svc")
        self._make_job(state, tmp_path, 0, state=STATE_DONE, exit_code=0)
        self._make_job(state, tmp_path, 1, state=STATE_RUNNING)
        assert state.reap_checkpoints(retention=0) == []
        assert state.checkpoint_dir("job-00").exists()
        assert state.checkpoint_dir("job-01").exists()
