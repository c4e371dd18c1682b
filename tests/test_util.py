"""Utility helpers: stable hashing and unit formatting."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.util.hashing import _MIN_COLUMN, stable_hash, stable_hash_many
from repro.util.units import GB, KB, MB, fmt_bytes, fmt_seconds, parse_size


class TestStableHash:
    def test_distinct_types_do_not_collide_trivially(self):
        assert stable_hash(b"1") != stable_hash("1") != stable_hash(1)

    def test_bool_is_not_int(self):
        assert stable_hash(True) != stable_hash(1)

    def test_none_supported(self):
        assert isinstance(stable_hash(None), int)

    def test_tuples_supported(self):
        assert stable_hash((1, "a")) == stable_hash((1, "a"))

    def test_cross_process_stability(self):
        # The whole point: identical across interpreter runs despite
        # PYTHONHASHSEED randomization.
        code = ("from repro.util.hashing import stable_hash;"
                "print(stable_hash('partition-key'))")
        outs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env={"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin"},
                cwd=Path(__file__).resolve().parents[1] / "src",
                check=True,
            ).stdout.strip()
            for seed in (1, 2)
        }
        assert len(outs) == 1

    @given(st.one_of(st.binary(), st.text(), st.integers(), st.floats(
        allow_nan=False), st.booleans(), st.none()))
    def test_property_deterministic_and_64bit(self, key):
        h = stable_hash(key)
        assert h == stable_hash(key)
        assert 0 <= h < 2**64


_MIXED_KEY = st.one_of(
    st.binary(max_size=40), st.text(max_size=20), st.integers(), st.none(),
    st.booleans(), st.tuples(st.integers(), st.text(max_size=5)),
)


class TestStableHashMany:
    """The batch hash is the per-key hash, value for value."""

    @given(st.lists(_MIXED_KEY, max_size=120))
    def test_mixed_batch_equals_one_at_a_time(self, keys):
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    @given(st.one_of(st.lists(st.binary(max_size=64), max_size=200),
                     st.lists(st.text(max_size=24), max_size=200)))
    def test_one_kind_batch_equals_one_at_a_time(self, keys):
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    def test_fixed_width_batch_and_long_stragglers(self):
        # Wide enough for the column path, with an empty key and a few
        # keys far longer than the rest finished by the scalar loop.
        keys = [b"%010d" % i for i in range(300)]
        keys[7:7] = [b"", b"z" * 1000, b"y" * 999]
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]
        assert stable_hash_many(iter(keys[:40])) == stable_hash_many(keys)[:40]

    @given(st.integers(0, 40), st.integers(0, 80), st.data())
    def test_one_width_batch_equals_one_at_a_time(self, width, n, data):
        # Keys all of one width are hashed down the columns of a matrix;
        # the width (zero included) and the batch size are free.
        keys = data.draw(st.lists(
            st.binary(min_size=width, max_size=width), min_size=n, max_size=n,
        ))
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    @pytest.mark.parametrize("n", [_MIN_COLUMN - 1, _MIN_COLUMN, _MIN_COLUMN + 1])
    def test_batches_around_the_column_threshold(self, n):
        keys = [b"%010d" % (i * 7919) for i in range(n)]
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]
        words = ["w%09d" % i for i in range(n)]
        assert stable_hash_many(words) == [stable_hash(w) for w in words]

    @given(st.integers(0, 99), st.binary(max_size=30))
    def test_one_ragged_key_among_uniform_ones(self, where, odd):
        keys = [b"%010d" % i for i in range(100)]
        keys[where] = odd
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    def test_str_keys_one_width_in_characters_not_in_utf8(self):
        # Equal ``len`` as str, unequal once encoded: the width that
        # counts is the encoded one, so this batch is ragged...
        keys = ["naïve", "naive", "na\u20acve", "na\U0001f600ve"] * 8
        assert len(set(map(len, keys))) == 1
        assert len({len(k.encode()) for k in keys}) == 4
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]
        # ...and this one uniform, though its character counts differ.
        keys = ["\u20ac", "abc", "\u00e9x"] * 8
        assert {len(k.encode()) for k in keys} == {3}
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    def test_subclasses_take_the_per_key_path(self):
        class Tagged(bytes):
            pass

        keys = [Tagged(b"a"), b"a", "a", Tagged(b"")] * 10
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    def test_empty_batch(self):
        assert stable_hash_many([]) == []


class TestParseSize:
    def test_plain_numbers(self):
        assert parse_size("1024") == 1024
        assert parse_size(2048) == 2048

    def test_suffixes(self):
        assert parse_size("1KB") == KB
        assert parse_size("2mb") == 2 * MB
        assert parse_size("1.5GB") == int(1.5 * GB)
        assert parse_size("3 MiB") == 3 * MB

    def test_bad_inputs(self):
        for bad in ("", "abc", "1XB", "-5MB", -1):
            with pytest.raises(ConfigError):
                parse_size(bad)


class TestFormatting:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512B"
        assert fmt_bytes(1536) == "1.50KB"
        assert fmt_bytes(3 * GB) == "3.00GB"

    def test_fmt_seconds_paper_style(self):
        assert fmt_seconds(471.751) == "471.75s"


class TestPublish:
    def test_reader_never_sees_an_empty_or_partial_file(self, tmp_path):
        """A poller racing a re-publishing writer reads one whole
        generation or another — never the gap between truncate and
        write that a bare ``write_text`` leaves open."""
        import threading

        from repro.util.atomic import publish

        path = tmp_path / "agent.addr"
        generations = {f"127.0.0.1:{port}\n" * 200 for port in (4000, 5000)}
        publish(path, min(generations))
        stop = threading.Event()

        def rewrite():
            while not stop.is_set():
                for text in generations:
                    publish(path, text)

        writer = threading.Thread(target=rewrite)
        writer.start()
        try:
            seen = {path.read_text() for _ in range(3000)}
        finally:
            stop.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert seen <= generations
        assert not (tmp_path / "agent.addr.tmp").exists()

    def test_bytes_chunks_are_concatenated(self, tmp_path):
        from repro.util.atomic import publish

        publish(tmp_path / "blob", b"head", b"body", fsync=True)
        assert (tmp_path / "blob").read_bytes() == b"headbody"

    def test_envelope_raises_the_callers_error(self, tmp_path):
        from repro.errors import CheckpointError
        from repro.util.atomic import read_json_crc, write_json_crc

        path = tmp_path / "journal.json"
        write_json_crc(path, {"stage": "mapping"})
        assert read_json_crc(path, CheckpointError, "journal") \
            == {"stage": "mapping"}
        path.write_text(path.read_text().replace("mapping", "mopping"))
        with pytest.raises(CheckpointError, match="journal failed its CRC"):
            read_json_crc(path, CheckpointError, "journal")
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="CRC"):
            read_json_crc(path, CheckpointError, "journal")

    def test_agent_addr_file_goes_through_publish(self, tmp_path, monkeypatch):
        from repro.cli import build_parser
        from repro.net import agent

        class FakeServer:
            addr = "127.0.0.1:9"

            def __init__(self, **kwargs):
                pass

            def serve_forever(self):
                pass

            def close(self):
                pass

        published = []
        monkeypatch.setattr(agent, "AgentServer", FakeServer)
        monkeypatch.setattr(agent.signal, "signal", lambda *args: None)
        monkeypatch.setattr(
            agent, "publish", lambda path, text: published.append((path, text))
        )
        addr_file = str(tmp_path / "a.addr")
        args = build_parser().parse_args(["agent", "--addr-file", addr_file])
        assert agent.cmd_agent(args) == 0
        assert published == [(addr_file, "127.0.0.1:9\n")]
