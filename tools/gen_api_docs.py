#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings, and
docs/options.md from the runtime-options table and the serve flags.

Walks every public module under ``repro``, collects the first docstring
paragraph of each module and of its public classes/functions, and emits
a single markdown reference; then renders ``RUNTIME_FLAGS``, the
``RuntimeOptions`` field marks and the ``ServiceConfig`` flags as tables.  Run after API or option
changes:

    python tools/gen_api_docs.py

A test (tests/test_documentation.py) keeps both generated files in sync.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import inspect
import pkgutil
from pathlib import Path


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return ""
    return inspect.cleandoc(doc).split("\n\n")[0].replace("\n", " ")


def iter_public_modules():
    """Public repro modules in name order."""
    import repro

    mods = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(p.startswith("_") for p in info.name.split(".")[1:]):
            continue
        mods.append(importlib.import_module(info.name))
    return sorted(mods, key=lambda m: m.__name__)


def public_items(module):
    """(kind, name, signature, summary) for the module's own public API."""
    items = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            items.append(("class", name, "", first_paragraph(obj.__doc__)))
        elif inspect.isfunction(obj):
            try:
                sig = str(inspect.signature(obj))
            except (TypeError, ValueError):  # pragma: no cover
                sig = "(...)"
            if len(sig) > 70:
                sig = "(...)"
            items.append(("def", name, sig, first_paragraph(obj.__doc__)))
    return items


def render() -> str:
    """The full api.md text."""
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand.",
        "Summaries are the first paragraph of each item's docstring;",
        "see the source for full documentation.",
        "",
    ]
    for module in iter_public_modules():
        items = public_items(module)
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        summary = first_paragraph(module.__doc__)
        if summary:
            lines.append(summary)
            lines.append("")
        for kind, name, sig, doc in items:
            entry = f"- **`{name}{sig}`** ({kind})"
            if doc:
                entry += f" — {doc}"
            lines.append(entry)
        if items:
            lines.append("")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None or value == ():
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, enum.Enum):
        value = value.value
    if dataclasses.is_dataclass(value):
        value = f"{type(value).__name__}()"
    return f"`{value}`"


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines + [""]


def render_options() -> str:
    """The full options.md text."""
    from repro.core.flags import RUNTIME_FLAGS
    from repro.core.options import RuntimeOptions
    from repro.service.core import ServiceConfig
    from repro.service.jobspec import ServiceJobSpec

    fields = {f.name: f for f in dataclasses.fields(RuntimeOptions)}
    spec_defaults = {
        f.name: f.default for f in dataclasses.fields(ServiceJobSpec)
    }

    def rides(f) -> bool:
        return f.metadata["wire"] is not False

    def fingerprinted(f) -> bool:
        return f.metadata["fingerprint"] is not None

    flag_rows = []
    for flag in RUNTIME_FLAGS:
        lowers = ", ".join(f"`{name}`" for name in flag.lowers) or "—"
        if flag.via is not None:
            lowers += f" (via `{flag.via.__name__}`)"
        default = spec_defaults.get(
            flag.dest, flag.argparse.get("default")
        ) if flag.argparse.get("action") != "store_true" else False
        flag_rows.append([
            f"`{flag.name}`" + (
                "" if len(flag.apps) > 1 else f" ({flag.apps[0]} only)"
            ),
            _cell(flag.dest if flag.in_spec else None),
            lowers,
            _cell(default),
            _cell(flag.in_spec),
            _cell(any(rides(fields[name]) for name in flag.lowers)),
            _cell(any(fingerprinted(fields[name]) for name in flag.lowers)),
            flag.argparse.get("help", "—"),
        ])
    decided = {name: [] for name in fields}
    for flag in RUNTIME_FLAGS:
        for name in flag.lowers:
            decided[name].append(f"`{flag.name}`")
    field_rows = [
        [
            f"`{f.name}`",
            _cell(f.default),
            ", ".join(decided[f.name]) or "— (library only)",
            _cell(rides(f)),
            _cell(fingerprinted(f)),
        ]
        for f in fields.values()
    ]
    lines = [
        "# Runtime options",
        "",
        "Generated by `tools/gen_api_docs.py` from",
        "`repro.core.flags.RUNTIME_FLAGS` and the field marks on",
        "`repro.core.options.RuntimeOptions` — do not edit by hand.  The",
        "same table builds the `supmr wordcount` / `sort` / `submit`",
        "parsers, lowers a namespace or a `ServiceJobSpec` to",
        "`RuntimeOptions` (`options_from_flags`), and decides what the",
        "wire form (`repro.net.jobs`) and the journal fingerprint",
        "(`repro.resilience.journal.job_fingerprint`) carry.",
        "",
        "## Flags",
        "",
        "*Rides in spec*: `supmr submit <app>` offers the flag and the",
        "`ServiceJobSpec` field of the same name carries it; the others",
        "are one-shot only (the service assigns checkpoint and shard",
        "directories itself, and report formats mean nothing to a daemon).",
        "*To remote worker* / *in fingerprint* are those of the fields the",
        "flag decides.  A value of None or an empty string is unset.",
        "",
    ]
    lines += _table(
        ["flag", "spec field", "`RuntimeOptions` field", "default",
         "rides in spec", "to remote worker", "in fingerprint", "help"],
        flag_rows,
    )
    lines += [
        "## `RuntimeOptions` fields",
        "",
        "*To remote worker*: the field is a key of `options_to_wire` — the",
        "subset a shard worker on another host reads; placement-side knobs",
        "(peers, directories, the executor backend) stay behind, so one",
        "wire form is valid on any host.  *In fingerprint*: changing the",
        "field changes `job_fingerprint`, so a journal written under the",
        "old value refuses to resume; everything else (mapper count,",
        "backend, deadlines, QoS) may differ between the run that wrote a",
        "checkpoint and the run that resumes it.",
        "",
    ]
    lines += _table(
        ["field", "default", "decided by", "to remote worker",
         "in fingerprint"],
        field_rows,
    )
    lines += [
        "## What `--reducers` counts",
        "",
        "`--reducers` / `num_reducers` is a **partition** count on every",
        "backend.  Under `--backend process` the forked pool is sized by",
        "`--mappers` alone: map input is on disk and any worker can `mmap`",
        "it, but reduce input is the parent's container, so the partitions",
        "are reduced in the parent (as `serial` does) instead of being",
        "pickled out to a worker and back.  It is also the number of",
        "balanced output ranges the p-way merge cuts with multisequence",
        "selection; the ranges are merged in the parent on every backend —",
        "the merge forks nothing.",
        "",
        "## `supmr serve` flags",
        "",
        "Read off the fields of `repro.service.core.ServiceConfig`: each",
        "field declares its flag, help text and `add_argument` extras once",
        "(`_flag`), `repro.cli` builds the `serve` parser by looping over",
        "the fields, and a flag left off the command line keeps the field's",
        "default.  Besides these, `--state-dir` is shared by every service",
        "subcommand, and `--faults` / `--fault-seed` lower to `fault_plan`.",
        "",
    ]
    lines += _table(
        ["flag", "`ServiceConfig` field", "default", "help"],
        [
            [f"`{f.metadata['flag']}`", f"`{f.name}`", _cell(f.default),
             f.metadata["help"]]
            for f in dataclasses.fields(ServiceConfig) if "flag" in f.metadata
        ],
    )
    return "\n".join(lines)


def main() -> None:
    """Write docs/api.md and docs/options.md under the repository root."""
    docs = Path(__file__).resolve().parents[1] / "docs"
    for name, text in (("api.md", render()), ("options.md", render_options())):
        out = docs / name
        out.write_text(text)
        print(f"wrote {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
