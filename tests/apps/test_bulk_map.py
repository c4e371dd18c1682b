"""The bundled apps' windowed, bulk-emitting map functions.

Each converted app parses a window of its split with C primitives and
hands the container one batch (``emit_many``) or one folded delta
(``emit_combined``).  The references are the app's own ``reference_*``
and the per-record mapper it replaced, kept here: same output, same
pre-combine emit count, on every backend, for every kind of ``ctx.data``
and however the split falls across windows.
"""

from __future__ import annotations

import dataclasses
import mmap
import re

import pytest

from repro.apps.grep import make_grep_job, reference_grep
from repro.apps.histogram import (
    bucket_of,
    make_histogram_job,
    reference_histogram,
)
from repro.apps.inverted_index import make_inverted_index_job, reference_index
from repro.apps.sortapp import make_sort_job, reference_sort
from repro.apps.string_match import make_string_match_job, reference_match
from repro.apps.wordcount import make_wordcount_job, reference_wordcount
from repro.containers import ArrayContainer
from repro.core.job import MapContext
from repro.core.options import RuntimeOptions
from repro.core.supmr import SupMRRuntime
from repro.errors import WorkloadError
from repro.faults import parse_faults
from repro.io import records
from repro.io.records import TeraRecordCodec, TextCodec, WholeLineCodec
from repro.io.span import ByteSpan
from repro.parallel.backends import fork_available
from repro.workloads import generate_terasort_file

BACKENDS = [
    "serial",
    "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        not fork_available(), reason="needs os.fork")),
]

_NEEDLES = (b"ab", b"the", b"zq")
_PATTERN = rb"a.a|^$"
_LINES = WholeLineCodec()


# -- the per-record mappers the bulk ones replaced ---------------------------

def wordcount_per_record(ctx: MapContext) -> None:
    for word in TextCodec().iter_words(ctx.data):
        ctx.emit(word, 1)


def sort_per_record(ctx: MapContext) -> None:
    for key, payload in TeraRecordCodec().iter_pairs(ctx.data):
        ctx.emit(key, payload)


def grep_per_record(ctx: MapContext) -> None:
    compiled = re.compile(_PATTERN)
    for line in _LINES.iter_lines(ctx.data):
        if compiled.search(line):
            ctx.emit(line, 1)


def match_per_record(ctx: MapContext) -> None:
    for line in _LINES.iter_lines(ctx.data):
        for needle in _NEEDLES:
            hits = line.count(needle)
            if hits:
                ctx.emit(needle, hits)


def histogram_per_record(ctx: MapContext) -> None:
    for line in _LINES.iter_lines(ctx.data):
        stripped = line.strip()
        if stripped:
            ctx.emit(bucket_of(float(stripped), 0, 64, 16), 1)


def index_per_record(ctx: MapContext) -> None:
    for line in _LINES.iter_lines(ctx.data):
        if not line.strip():
            continue
        doc, tab, text = line.partition(b"\t")
        if not tab:
            raise WorkloadError(f"index line missing doc id: {line[:40]!r}")
        for word in text.split():
            ctx.emit(word, doc)


# -- inputs: blank lines, CRLF lines, no trailing delimiter ------------------

def _text(n_lines: int = 400) -> bytes:
    words = [b"alpha", b"banana", b"the", b"abab", b"zebra", b"qat", b"a-a"]
    lines = []
    for i in range(n_lines):
        line = b" ".join(words[(i * 3 + j) % len(words)] for j in range(i % 6))
        if i % 7 == 0:
            line += b"\r"  # a CRLF line: the \r stays part of the record
        lines.append(line)  # i % 6 == 0 gives blank lines
    return b"\n".join(lines) + b"\nlast line has no newline"


def _numbers(n: int = 900) -> bytes:
    lines = [b" %d.5 " % ((i * 37) % 80 - 8) for i in range(n)]
    lines[5] = b""
    lines[9] = b"   \r"
    return b"\n".join(lines)


def _index_lines(n: int = 300) -> bytes:
    lines = [
        b"doc%d\t%s" % (i % 11, b" ".join(
            b"w%d" % ((i + j) % 17) for j in range(i % 5 + 1)))
        for i in range(n)
    ]
    lines[3] = b""
    lines[8] = b"  "
    return b"\r\n".join(lines)  # every line ends in \r: part of the last word


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bulk-map")
    paths = {}
    for name, data in (
        ("text", _text()), ("numbers", _numbers()), ("index", _index_lines()),
    ):
        paths[name] = directory / f"{name}.txt"
        paths[name].write_bytes(data)
    paths["tera"] = directory / "records.dat"
    generate_terasort_file(paths["tera"], 700, seed=5)
    return paths


#: name -> (job factory over the inputs, per-record mapper, reference)
APPS = {
    "wordcount": (
        lambda p: make_wordcount_job([p["text"]]),
        wordcount_per_record,
        lambda p: reference_wordcount([p["text"]]),
    ),
    "sort": (
        lambda p: make_sort_job([p["tera"]]),
        sort_per_record,
        lambda p: reference_sort([p["tera"]]),
    ),
    "grep": (
        lambda p: make_grep_job([p["text"]], _PATTERN),
        grep_per_record,
        lambda p: reference_grep([p["text"]], _PATTERN),
    ),
    "string_match": (
        lambda p: make_string_match_job([p["text"]], _NEEDLES),
        match_per_record,
        lambda p: reference_match([p["text"]], _NEEDLES),
    ),
    "histogram": (
        lambda p: make_histogram_job([p["numbers"]], 0, 64, 16),
        histogram_per_record,
        lambda p: reference_histogram([p["numbers"]], 0, 64, 16),
    ),
    "histogram_fixed": (
        lambda p: make_histogram_job([p["numbers"]], 0, 64, 16,
                                     container="fixed"),
        histogram_per_record,
        lambda p: reference_histogram([p["numbers"]], 0, 64, 16),
    ),
    "inverted_index": (
        lambda p: make_inverted_index_job([p["index"]]),
        index_per_record,
        lambda p: reference_index([p["index"]]),
    ),
}


def _as_reference(name: str, output: list) -> object:
    return list(output) if name == "sort" else dict(output)


def _options(backend: str, chunk: str = "8KB") -> RuntimeOptions:
    return RuntimeOptions.supmr_interfile(
        chunk, num_mappers=3, num_reducers=2
    ).with_(executor_backend=backend)


@pytest.fixture(params=["one-window", "many-windows"])
def window(request, monkeypatch):
    """Splits here are a few KB: smaller than the real window, and —
    with the window shrunk — several times larger than it."""
    if request.param == "many-windows":
        monkeypatch.setattr(records, "MAP_WINDOW_BYTES", 512)
    return request.param


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_bulk_map_matches_reference_and_per_record(
    app, backend, window, inputs
):
    make_job, per_record, reference = APPS[app]
    bulk = SupMRRuntime(_options(backend)).run(make_job(inputs))
    slow = SupMRRuntime(_options(backend)).run(
        dataclasses.replace(make_job(inputs), map_fn=per_record)
    )
    assert bulk.output, "the job produced nothing; the test is vacuous"
    assert bulk.output == slow.output
    assert _as_reference(app, bulk.output) == reference(inputs)
    assert bulk.container_stats == slow.container_stats


class TestCtxDataKinds:
    """``ctx.data`` is bytes-like: the map functions must not care which."""

    @staticmethod
    def _recorded(map_fn, data) -> list:
        recorder = ArrayContainer()
        recorder.begin_round()
        map_fn(MapContext(data, recorder.emitter(0), 0))
        (segment,) = recorder.drain().items or ([],)
        return segment

    @pytest.mark.parametrize("app", ["wordcount", "sort", "grep",
                                     "string_match", "histogram",
                                     "inverted_index"])
    def test_bytes_bytearray_and_mmap_span_agree(
        self, app, window, inputs, tmp_path
    ):
        make_job, _per_record, _reference = APPS[app]
        job = make_job(inputs)
        raw = job.inputs[0].read_bytes()
        with open(job.inputs[0], "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            expected = self._recorded(job.map_fn, raw)
            assert expected
            assert self._recorded(job.map_fn, bytearray(raw)) == expected
            assert self._recorded(job.map_fn, ByteSpan(mapped)) == expected
            assert all(
                type(key) in (bytes, int) for key, _value in expected
            ), "keys must be hashable bytes, not bytearray or span slices"
        finally:
            mapped.close()

    def test_empty_split_emits_nothing(self, inputs):
        for app in APPS:
            job = APPS[app][0](inputs)
            if app != "histogram_fixed":
                assert self._recorded(job.map_fn, b"") == []


class TestWindows:
    def test_windows_are_record_aligned_and_cover_the_data(self, monkeypatch):
        monkeypatch.setattr(records, "MAP_WINDOW_BYTES", 64)
        for codec, data in (
            (TextCodec(), _text(60)),
            (TeraRecordCodec(), b"".join(
                b"%010d %s\r\n" % (i, b"x" * (i % 30)) for i in range(40))),
        ):
            for source in (data, bytearray(data), ByteSpan(data, 3)):
                windows = list(codec.iter_windows(source))
                assert b"".join(windows) == bytes(source)
                assert all(type(w) is bytes for w in windows)
                assert len(windows) > 3
                for w in windows[:-1]:
                    assert w.endswith(codec.delimiter)
                    assert len(w) >= 64

    def test_window_constant_bounds_a_window(self):
        data = b"word " * 11 + b"\n"
        big = data * (3 * records.MAP_WINDOW_BYTES // len(data))
        windows = list(TextCodec().iter_windows(big))
        assert len(windows) == 3
        assert max(map(len, windows)) < records.MAP_WINDOW_BYTES + len(data)

    def test_split_records_is_iter_records(self):
        codec = WholeLineCodec()
        for data in (b"", b"\n", b"a", b"a\n", b"a\n\nb", b"\n\na\n\n"):
            assert codec.split_records(data) == list(codec.iter_records(data))

    def test_split_pairs_is_iter_pairs(self):
        codec = TeraRecordCodec(key_len=3)
        data = b"abc 123\r\n\r\nxyz \r\nkey tail"
        assert codec.split_pairs(data) == list(codec.iter_pairs(data))
        assert codec.split_pairs(b"") == []


class TestShortTerasortRecord:
    def _message(self, fn, data) -> str:
        with pytest.raises(WorkloadError) as excinfo:
            fn(data)
        return str(excinfo.value)

    def test_same_error_as_per_record(self, tmp_path):
        data = (b"0123456789 payload\r\n" * 3) + b"short\r\n" + (
            b"9876543210 more\r\n")
        codec = TeraRecordCodec()
        expected = self._message(lambda d: list(codec.iter_pairs(d)), data)
        assert "terasort record too short: b'short'" == expected
        assert self._message(codec.split_pairs, data) == expected
        path = tmp_path / "bad.dat"
        path.write_bytes(data)
        for backend in ("serial", "thread"):
            with pytest.raises(WorkloadError, match="too short: b'short'"):
                SupMRRuntime(_options(backend)).run(make_sort_job([path]))

    def test_key_without_separator_is_short(self):
        codec = TeraRecordCodec()
        data = b"0123456789\r\n"
        assert self._message(codec.split_pairs, data) == self._message(
            lambda d: list(codec.iter_pairs(d)), data)


_FAULTS = "ingest.read=once,map.task=once,record.corrupt=0.02"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", ["wordcount", "sort"])
def test_fault_plans_screen_before_map_and_never_double_emit(
    app, backend, window, inputs
):
    """``record.corrupt`` quarantines records before any map function
    sees the split and ``map.task`` fires before it runs, so a bulk
    mapper under faults equals the per-record mapper under the same
    plan: same survivors, each emitted once."""
    make_job, per_record, _reference = APPS[app]

    def run(job):
        return SupMRRuntime(_options(backend).with_(
            fault_plan=parse_faults(_FAULTS, seed=9)
        )).run(job)

    bulk = run(make_job(inputs))
    slow = run(dataclasses.replace(make_job(inputs), map_fn=per_record))
    clean = SupMRRuntime(_options(backend)).run(make_job(inputs))
    assert bulk.counters["faults_injected"] > 0
    assert bulk.counters["fault_retries"] > 0
    assert bulk.counters["records_quarantined"] > 0
    for counter in ("faults_injected", "fault_retries", "records_quarantined"):
        assert bulk.counters[counter] == slow.counters[counter]
    assert bulk.output == slow.output
    assert bulk.container_stats == slow.container_stats
    # quarantined records are gone, nothing is counted twice
    assert bulk.container_stats.emits < clean.container_stats.emits
    if app == "sort":
        assert len(bulk.output) == (
            len(clean.output) - bulk.counters["records_quarantined"]
        )


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
def test_budgeted_wordcount_spills_the_same_runs_on_serial_and_process(
    text_file,
):
    """Both backends charge one folded state per distinct word per map
    task (a task here is one window), so the same bytes are charged and
    the budget cuts the same number of runs — on serial it used to be
    charged per raw emit.  (Which states share a run may differ: a
    worker's delta lists them in shard order, a window's in first-seen
    order.)"""
    results = {
        backend: SupMRRuntime(
            _options(backend, chunk="16KB").with_(memory_budget="32KB")
        ).run(make_wordcount_job([text_file]))
        for backend in ("serial", "process")
    }
    serial, process = results["serial"], results["process"]
    assert serial.spill_stats.runs >= 3
    assert serial.spill_stats.runs == process.spill_stats.runs
    assert serial.output == process.output
    assert serial.container_stats == process.container_stats
