"""Documentation quality gates.

Every public module, class and function in ``repro`` must carry a
docstring (the README promises "doc comments on every public item"),
and the repo-level documents must exist and reference each other.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
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
