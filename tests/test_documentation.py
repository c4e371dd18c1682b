"""Documentation quality gates.

Every public module, class and function in ``repro`` must carry a
docstring (the README promises "doc comments on every public item"),
and the repo-level documents must exist and reference each other.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]


def iter_public_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")[1:]):
            continue
        yield importlib.import_module(info.name)


ALL_MODULES = list(iter_public_modules())


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=[m.__name__ for m in ALL_MODULES])
def test_module_docstrings(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module.__name__} lacks a module docstring"
    )


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=[m.__name__ for m in ALL_MODULES])
def test_public_callables_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(obj):
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_"):
                    continue
                if not inspect.isfunction(meth):
                    continue
                if meth.__name__ != meth_name:
                    continue  # dataclass field default, not a method
                if not (meth.__doc__ and meth.__doc__.strip()):
                    undocumented.append(f"{name}.{meth_name}")
    assert not undocumented, (
        f"{module.__name__}: undocumented public items: {undocumented}"
    )


class TestRepoDocuments:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md",
                                     "EXPERIMENTS.md",
                                     "docs/architecture.md",
                                     "docs/calibration.md",
                                     "docs/extensions.md"])
    def test_exists_and_nonempty(self, doc):
        path = REPO / doc
        assert path.is_file() and path.stat().st_size > 500, doc

    def test_design_covers_every_paper_artifact(self):
        design = (REPO / "DESIGN.md").read_text()
        for artifact in ("Table II", "Fig 1", "Fig 3", "Fig 5", "Fig 6",
                         "Fig 7"):
            assert artifact in design, f"DESIGN.md missing {artifact}"

    def test_experiments_records_all_artifacts(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("Table II", "Fig. 1", "Fig. 3", "Fig. 5", "Fig. 6",
                         "Fig. 7"):
            assert artifact in experiments

    def test_generated_api_reference_in_sync(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
        )
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        current = (REPO / "docs" / "api.md").read_text()
        assert current == gen.render(), (
            "docs/api.md is stale; run python tools/gen_api_docs.py"
        )
        current = (REPO / "docs" / "options.md").read_text()
        assert current == gen.render_options(), (
            "docs/options.md is stale; run python tools/gen_api_docs.py"
        )

    def test_subprocesses_run_the_tree_under_test(self):
        # A child started with a fixed absolute cwd, or a PYTHONPATH
        # relative to one, imports whatever checkout sits there: run from
        # any other copy, the test would pass against the wrong code.
        pinned = re.compile(
            r"\bcwd\s*=\s*[rbf]?[\"']/"
            r"|PYTHONPATH[\"']?\]?\s*[:=]\s*[rbf]?[\"'](?!/)"
        )
        offenders = sorted(
            f"{path.relative_to(REPO)}:{lineno}: {line.strip()}"
            for path in (REPO / "tests").rglob("*.py")
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pinned.search(line)
        )
        assert not offenders, offenders

    def test_named_tools_exist(self):
        # The dated benchmark report names scripts of its time.
        docs = [
            REPO / "README.md",
            REPO / ".claude" / "skills" / "verify" / "SKILL.md",
            REPO / ".github" / "workflows" / "ci.yml",
            *(path for path in sorted((REPO / "docs").glob("*.md"))
              if path.name != "pr25-benchmark-report.md"),
        ]
        missing = sorted(
            f"{doc.relative_to(REPO)}: {name}"
            for doc in docs
            for name in re.findall(r"(?<![\w/.])tools/[\w-]+\.py",
                                   doc.read_text())
            if not (REPO / name).is_file()
        )
        assert not missing, missing

    def test_ci_soak_matrix_runs_every_leg(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "soak", REPO / "tools" / "soak.py"
        )
        soak = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(soak)
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        job = ci[ci.index("\n  soak:\n"):]
        legs = re.search(r"^ +leg: \[(.*)\]$", job, re.MULTILINE)
        assert legs, "ci.yml's soak job has no leg matrix"
        assert [leg.strip() for leg in legs.group(1).split(",")] == list(
            soak.LEGS
        )
