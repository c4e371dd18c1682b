"""Utility helpers: stable hashing and unit formatting."""

from __future__ import annotations

import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.util.hashing import stable_hash, stable_hash_many
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
                cwd="/root/repo/src", check=True,
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
