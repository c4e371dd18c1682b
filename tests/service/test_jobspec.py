"""ServiceJobSpec: serialization, stable ids, and CLI option parity."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.flags import RUNTIME_FLAGS, options_from_flags
from repro.errors import ConfigError
from repro.service.cli import spec_from_args
from repro.service.jobspec import ServiceJobSpec

#: One sample value per runtime flag, and the other flags it needs
#: beside it to be valid (or to mean anything).
FLAG_SAMPLES = {
    "--files-per-chunk": (["2"], []),
    "--top": (["3"], []),
    "--mappers": (["2"], []),
    "--reducers": (["3"], []),
    "--backend": (["process"], []),
    "--baseline": ([], ["--chunk-size", "32KB"]),
    "--chunk-size": (["32KB"], []),
    "--memory-budget": (["1MB"], []),
    "--timeline": ([], []),
    "--json": ([], []),
    "--faults": (["ingest.read=once,map.task=0.5"], []),
    "--fault-seed": (["7"], ["--faults", "map.task=0.5"]),
    "--retry": (["2"], ["--faults", "map.task=0.5"]),
    "--skip-budget": (["5"], ["--faults", "map.task=0.5"]),
    "--checkpoint-dir": (["/tmp/ckpt"], []),
    "--resume": ([], ["--checkpoint-dir", "/tmp/ckpt"]),
    "--job-deadline": (["2.5"], []),
    "--shards": (["2"], []),
    "--shard-dir": (["/tmp/shards"], ["--shards", "2"]),
    "--peers": (["127.0.0.1:9"], ["--shards", "2"]),
    "--net-timeout": (["3.5"], []),
    "--io-budget": (["4MB"], []),
    "--io-burst": (["1MB"], ["--io-budget", "4MB"]),
    "--tenant": (["acme"], []),
    "--io-priority": (["2"], []),
    "--transport": (["pipe"], []),
}


def _spec(**kw) -> ServiceJobSpec:
    base = {"app": "wordcount", "inputs": ("a.txt", "b.txt")}
    base.update(kw)
    return ServiceJobSpec(**base)


class TestSerialization:
    def test_dict_round_trip(self):
        spec = _spec(
            chunk_size="32KB", memory_budget="1MB", backend="process",
            faults="ingest.read=once", retry=2, shards=2, priority=3,
            tag="run-a",
        )
        assert ServiceJobSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_round_trip(self):
        spec = _spec()
        assert ServiceJobSpec.from_dict(spec.to_dict()) == spec

    def test_retired_fields_are_dropped_whatever_their_value(self):
        data = {**_spec().to_dict(), "ingest_readers": 2, "ingest_depth": None}
        assert ServiceJobSpec.from_dict(data) == _spec()

    def test_unknown_field_is_typed_error(self):
        data = _spec().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ConfigError, match="warp_factor"):
            ServiceJobSpec.from_dict(data)

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="missing"):
            ServiceJobSpec.from_dict({"app": "wordcount"})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            ServiceJobSpec.from_dict(["not", "a", "dict"])

    @pytest.mark.parametrize("field, value", [
        ("app", 3),                      # str
        ("tenant", {"a": 1}),            # str (unhashable: broke the queue)
        ("priority", "hi"),              # int (broke WeightedFairQueue.pop)
        ("mappers", True),               # int: a bool is not one
        ("mappers", 2.0),                # int: a float is not one
        ("baseline", 1),                 # bool: an int is not one
        ("retry", "2"),                  # int | None
        ("job_deadline", "2.5"),         # float | None
        ("chunk_size", 32768),           # str | None
        ("inputs", "a.txt"),             # tuple[str, ...]: not a string
        ("inputs", ["a.txt", 7]),        # tuple[str, ...]: of strings
    ])
    def test_mistyped_field_is_typed_error(self, field, value):
        data = {**_spec().to_dict(), field: value}
        with pytest.raises(ConfigError, match=f"field '{field}' must be"):
            ServiceJobSpec.from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("job_deadline", 3),             # an int is a float
        ("chunk_size", None),            # None where the field allows it
        ("inputs", ("a.txt",)),          # a tuple as well as a JSON array
    ])
    def test_well_typed_field_is_not_coerced(self, field, value):
        spec = ServiceJobSpec.from_dict({**_spec().to_dict(), field: value})
        assert spec.job_id() == _spec(**{field: value}).job_id()

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError, match="unknown app"):
            _spec(app="raytracer")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError, match="input"):
            _spec(inputs=())


class TestJobId:
    def test_identical_specs_share_an_id(self):
        assert _spec().job_id() == _spec().job_id()

    def test_id_is_12_hex_digits(self):
        job_id = _spec().job_id()
        assert len(job_id) == 12
        int(job_id, 16)

    def test_any_knob_changes_the_id(self):
        base = _spec().job_id()
        assert _spec(mappers=8).job_id() != base
        assert _spec(chunk_size="64KB").job_id() != base
        assert _spec(inputs=("a.txt",)).job_id() != base

    def test_tag_distinguishes_deliberate_duplicates(self):
        assert _spec(tag="one").job_id() != _spec(tag="two").job_id()
        assert _spec(tag="one").job_id() != _spec().job_id()

    def test_id_is_pinned_across_upgrades(self):
        # a resubmission after an upgrade must reattach to the job dir
        # the previous build created.  Changed once on purpose, from
        # e40a33c8325f, when the spec lost ingest_readers / ingest_depth:
        # the id hashes every field, defaults included.  Jobs already in
        # a state dir keep the id their record holds.
        assert _spec().job_id() == "eb962a584f65"

    def test_id_survives_a_serialization_round_trip(self):
        spec = _spec(memory_budget="2MB", priority=1)
        assert ServiceJobSpec.from_dict(spec.to_dict()).job_id() \
            == spec.job_id()


class TestOptionParity:
    """A submitted spec and the equivalent one-shot CLI invocation must
    lower to the *same* RuntimeOptions — that is what makes their output
    digests byte-identical."""

    def _cli_options(self, argv):
        return options_from_flags(vars(build_parser().parse_args(argv)))

    def test_every_flag_has_a_sample(self):
        assert set(FLAG_SAMPLES) == {flag.name for flag in RUNTIME_FLAGS}

    @pytest.mark.parametrize("flag", RUNTIME_FLAGS, ids=lambda f: f.name)
    def test_flag_parity_or_refusal(self, flag, capsys):
        """Each flag alone: honoured one-shot, and either lowered
        identically from a submitted spec or refused by ``submit``."""
        value, beside = FLAG_SAMPLES[flag.name]
        app = flag.apps[0]
        one_shot = self._cli_options([app, "in.dat", *beside, flag.name, *value])
        if flag.lowers:
            assert one_shot != self._cli_options([app, "in.dat", *beside])
        submit = ["submit", "--state-dir", "D", app, "in.dat", *beside]
        if not flag.in_spec:
            with pytest.raises(SystemExit) as excinfo:
                main([*submit, flag.name, *value])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            return
        spec = spec_from_args(
            build_parser().parse_args([*submit, flag.name, *value])
        )
        assert spec.to_options() == one_shot
        assert ServiceJobSpec.from_dict(spec.to_dict()).to_options() == one_shot

    def test_chunked_wordcount_parity(self):
        cli = self._cli_options([
            "wordcount", "c.txt", "--chunk-size", "32KB",
            "--memory-budget", "1MB", "--backend", "process",
        ])
        spec = ServiceJobSpec(
            app="wordcount", inputs=("c.txt",), chunk_size="32KB",
            memory_budget="1MB", backend="process",
        )
        assert spec.to_options() == cli

    def test_baseline_parity(self):
        cli = self._cli_options(
            ["wordcount", "c.txt", "--baseline", "--mappers", "2"]
        )
        spec = ServiceJobSpec(
            app="wordcount", inputs=("c.txt",), baseline=True, mappers=2,
        )
        assert spec.to_options() == cli

    def test_fault_plan_parity(self):
        cli = self._cli_options([
            "wordcount", "c.txt", "--chunk-size", "16KB",
            "--faults", "ingest.read=once,map.task=0.5",
            "--fault-seed", "7", "--retry", "2", "--skip-budget", "5",
        ])
        spec = ServiceJobSpec(
            app="wordcount", inputs=("c.txt",), chunk_size="16KB",
            faults="ingest.read=once,map.task=0.5", fault_seed=7,
            retry=2, skip_budget=5,
        )
        assert spec.to_options() == cli

    def test_sharded_sort_parity(self):
        cli = self._cli_options(
            ["sort", "r.dat", "--chunk-size", "50KB", "--shards", "2"]
        )
        spec = ServiceJobSpec(
            app="sort", inputs=("r.dat",), chunk_size="50KB", shards=2,
        )
        assert spec.to_options() == cli

    def test_priority_and_tag_do_not_leak_into_options(self):
        plain = _spec(chunk_size="32KB")
        tagged = _spec(chunk_size="32KB", priority=9, tag="x")
        assert plain.to_options() == tagged.to_options()

    def test_service_assigned_dirs(self):
        options = _spec(chunk_size="32KB", shards=2).to_options(
            checkpoint_dir="/tmp/ckpt", resume=True, shard_dir="/tmp/shards",
        )
        assert options.checkpoint_dir == "/tmp/ckpt"
        assert options.resume is True
        assert options.shard_dir == "/tmp/shards"
        assert options.num_shards == 2


class TestBuildJob:
    def test_wordcount_job(self):
        job = _spec().build_job()
        assert job.map_fn is not None

    def test_sort_job(self):
        job = _spec(app="sort", inputs=("r.dat",)).build_job()
        assert job.map_fn is not None


class TestRunnerClassification:
    """A spec carrying a bad knob must exit with the usage code and an
    error.json — never an unhandled traceback (exit 1, no report)."""

    def test_bad_chunk_size_is_classified_usage(self, tmp_path):
        import json

        from repro.exitcodes import EXIT_USAGE
        from repro.service.runner import run_job_dir
        from repro.service.state import write_json_crc

        corpus = tmp_path / "c.txt"
        corpus.write_text("alpha beta alpha\n")
        job_dir = tmp_path / "job"
        job_dir.mkdir()
        spec = _spec(inputs=(str(corpus),), chunk_size="banana")
        write_json_crc(job_dir / "spec.json", spec.to_dict())

        assert run_job_dir(job_dir) == EXIT_USAGE
        error = json.loads((job_dir / "error.json").read_text())
        assert error["exit_code"] == EXIT_USAGE
        assert error["type"] == "ConfigError"
