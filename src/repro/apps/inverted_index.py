r"""Inverted index — word -> sorted list of documents containing it.

The many-small-files workload shape (intra-file chunking's natural
customer).  Because chunk coalescing erases file boundaries, documents
self-identify: each input line is ``<doc-id>\t<text>``.  Map emits
``(word, doc_id)``; reduce dedups and sorts the posting list.
"""

from __future__ import annotations

from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.containers import HashContainer, ListCombiner
from repro.core.job import JobSpec, MapContext
from repro.errors import WorkloadError
from repro.io.records import WholeLineCodec

_CODEC = WholeLineCodec()


def index_map(ctx: MapContext) -> None:
    r"""Parse ``doc\tword word ...`` lines; emit (word, doc).

    A window's postings are gathered per word first (the ListCombiner
    state: docs in emit order), then handed over as one delta.
    """
    for window in _CODEC.iter_windows(ctx.data):
        postings: dict[bytes, list[bytes]] = {}
        emits = 0
        for line in _CODEC.split_records(window):
            if not line.strip():
                continue
            doc, _tab, text = line.partition(b"\t")
            if not _tab:
                raise WorkloadError(f"index line missing doc id: {line[:40]!r}")
            words = text.split()
            emits += len(words)
            for word in words:
                postings.setdefault(word, []).append(doc)
        ctx.emit_combined(postings, emits)


def index_reduce(
    key: Hashable, values: Sequence[bytes]
) -> Iterable[tuple[Hashable, tuple[bytes, ...]]]:
    """Posting list: sorted, de-duplicated doc ids."""
    yield (key, tuple(sorted(set(values))))


def make_inverted_index_job(
    inputs: Sequence[str | Path], name: str = "inverted-index"
) -> JobSpec:
    """An inverted-index job over self-identifying line files."""
    return JobSpec(
        name=name,
        inputs=tuple(Path(p) for p in inputs),
        map_fn=index_map,
        reduce_fn=index_reduce,
        container_factory=lambda: HashContainer(ListCombiner()),
        codec=_CODEC,
    )


def reference_index(
    inputs: Sequence[str | Path],
) -> dict[bytes, tuple[bytes, ...]]:
    """Naive posting-list construction for verification."""
    postings: dict[bytes, set[bytes]] = {}
    for path in inputs:
        for line in _CODEC.iter_lines(Path(path).read_bytes()):
            if not line.strip():
                continue
            doc, _tab, text = line.partition(b"\t")
            for word in text.split():
                postings.setdefault(word, set()).add(doc)
    return {w: tuple(sorted(docs)) for w, docs in postings.items()}


def write_index_corpus(
    directory: str | Path,
    docs: dict[str, str],
) -> list[Path]:
    r"""Write ``doc-id -> text`` as one ``<id>\t<line>`` file per doc."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for doc_id in sorted(docs):
        lines = [
            f"{doc_id}\t{line}".encode("utf-8")
            for line in docs[doc_id].splitlines()
            if line.strip()
        ]
        path = out_dir / f"{doc_id}.txt"
        path.write_bytes(b"\n".join(lines) + b"\n" if lines else b"")
        paths.append(path)
    return paths
