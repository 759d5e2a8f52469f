"""Drift gates for the reference pages under ``docs/``.

Documentation that can drift silently is worse than none, so the
reference pages are held to the code by tier-1 tests:

* the env-knob table in ``docs/reference/env-knobs.md`` must name
  exactly the ``REPRO_*`` variables the library reads — a knob added
  to ``src/`` without a row here (or a row whose knob was removed)
  fails the suite;
* ``.github/workflows/ci.yml`` may only name ``REPRO_*`` variables
  that page documents, so a deleted knob cannot linger as a CI axis
  that silently selects nothing;
* the backend-spec table must cover every registry name and every
  parameterized spec form ``ensure_backend_spec`` accepts, and its
  example specs must actually validate;
* the store-codec table in ``docs/architecture.md`` must name exactly
  the keys of the store's delta and compressor tables;
* every module under ``src/repro/cluster/`` and
  ``src/repro/storage/backend/`` must be named in
  ``docs/architecture.md``, so the package maps cannot rot;
* every backticked ``ClassName.attr`` in ``README.md`` and
  ``docs/architecture.md`` whose class the storage, delta, cluster or
  core package exports must still have that attribute, so the prose
  cannot go on naming a method or counter after the code is gone;
* every relative link in ``README.md`` and ``docs/`` must resolve to
  a real file;
* every third-party module imported under ``src/`` must be declared in
  ``pyproject.toml``'s ``dependencies``, and ``import repro`` must
  succeed without the undeclared ones.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compression import codec_names
from repro.delta import delta_codec_names
from repro.storage.backend import BACKEND_NAMES, ensure_backend_spec

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs"
KNOBS = DOCS / "reference" / "env-knobs.md"
CI = REPO / ".github" / "workflows" / "ci.yml"


def _src_knobs() -> set[str]:
    """Every REPRO_* name readable anywhere under src/."""
    found = set()
    for path in (REPO / "src").rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    return found


def _documented_knobs() -> set[str]:
    """Knob names from the reference table's rows (not prose)."""
    found = set()
    for line in KNOBS.read_text().splitlines():
        match = re.match(r"\|\s*`(REPRO_[A-Z_]+)`", line)
        if match:
            found.add(match.group(1))
    return found


class TestKnobTable:
    def test_table_matches_src_exactly(self):
        src = _src_knobs()
        documented = _documented_knobs()
        assert documented == src, (
            f"docs/reference/env-knobs.md table drifted: "
            f"missing rows for {sorted(src - documented)}, "
            f"stale rows for {sorted(documented - src)}")

    def test_fault_seed_is_footnoted_not_tabled(self):
        # REPRO_FAULT_SEED is a tests/CI convention, not a library
        # knob: it must be explained but must not claim a table row.
        text = KNOBS.read_text()
        assert "REPRO_FAULT_SEED" in text
        assert "REPRO_FAULT_SEED" not in _documented_knobs()
        assert not any("REPRO_FAULT_SEED" in p.read_text()
                       for p in (REPO / "src").rglob("*.py"))

    def test_ci_names_only_documented_knobs(self):
        # The table's knobs plus the footnoted test-suite convention.
        known = _documented_knobs() | {"REPRO_FAULT_SEED"}
        in_ci = set(re.findall(r"REPRO_[A-Z_]+", CI.read_text()))
        assert in_ci <= known, (
            f"ci.yml names undocumented (deleted?) knobs: "
            f"{sorted(in_ci - known)}")


class TestBackendSpecs:
    def test_registry_names_documented(self):
        text = KNOBS.read_text()
        for name in BACKEND_NAMES:
            assert re.search(rf"`{name}", text), \
                f"backend {name!r} missing from env-knobs.md"

    def test_spec_forms_documented(self):
        text = KNOBS.read_text()
        for form in ("object[:durable]", "striped:<n>[:<child>]",
                     "faulty:<seed>[:<inner>]"):
            assert form in text, \
                f"spec form {form!r} missing from env-knobs.md"

    def test_documented_examples_validate(self):
        # Every concrete backtick-quoted spec in the docs must be a
        # spec ensure_backend_spec actually accepts.
        text = KNOBS.read_text()
        specs = re.findall(
            r"`((?:local|durable|memory|object|striped|faulty)"
            r"(?::[A-Za-z0-9:]+)?)`", text)
        assert specs
        for spec in specs:
            assert ensure_backend_spec(spec) == spec


STORE_CODEC_ROW = re.compile(r"^\|\s*(delta|compressor)\s*\|\s*`([^`]+)`",
                             re.M)


def test_store_codec_table_names_exactly_the_store_tables():
    rows = STORE_CODEC_ROW.findall((DOCS / "architecture.md").read_text())
    assert rows, "the gate matched nothing: table moved?"
    documented = {table: sorted(name for kind, name in rows
                                if kind == table)
                  for table in ("delta", "compressor")}
    assert documented == {"delta": sorted(delta_codec_names()),
                          "compressor": sorted(codec_names())}, (
        f"docs/architecture.md store-codec table drifted: {documented}")


def _unnamed_modules(package: str) -> list[str]:
    """Modules of ``src/repro/<package>/`` that ``docs/architecture.md``
    does not name as ``<package>/<module>.py``."""
    text = (DOCS / "architecture.md").read_text()
    modules = sorted(
        path.name for path in (REPO / "src/repro" / package).glob("*.py")
        if path.name != "__init__.py")
    assert modules, f"no modules under src/repro/{package}: gate moved?"
    return [name for name in modules if f"{package}/{name}" not in text]


def test_architecture_names_every_cluster_module():
    missing = _unnamed_modules("cluster")
    assert not missing, (
        f"docs/architecture.md does not name cluster modules {missing}")


def test_architecture_names_every_backend_module():
    missing = _unnamed_modules("storage/backend")
    assert not missing, (
        f"docs/architecture.md does not name backend modules {missing}")


MEMBER = re.compile(r"`([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")
PACKAGES = ("repro.storage", "repro.delta", "repro.cluster", "repro.core")


def test_named_class_members_exist():
    packages = [importlib.import_module(name) for name in PACKAGES]
    checked, stale = 0, set()
    for path in (REPO / "README.md", DOCS / "architecture.md"):
        for owner, member in MEMBER.findall(path.read_text()):
            cls = next((getattr(package, owner) for package in packages
                        if hasattr(package, owner)), None)
            if cls is None:
                continue  # a file name, or a class kept private
            checked += 1
            if not hasattr(cls, member) and \
                    member not in getattr(cls, "__dataclass_fields__", {}):
                stale.add(f"{path.name}: {owner}.{member}")
    assert checked, "the gate matched nothing: pattern or docs moved"
    assert not stale, f"docs name members that no longer exist: {stale}"


LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")


def _markdown_files():
    return [REPO / "README.md", *sorted(DOCS.rglob("*.md"))]


@pytest.mark.parametrize("path", _markdown_files(),
                         ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(path):
    for target in LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue  # same-page anchor
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), \
            f"{path.relative_to(REPO)} links to missing {target!r}"


def _declared_dependencies() -> set[str]:
    """Project names on ``pyproject.toml``'s ``dependencies = [...]``
    line, read with a regex: Python 3.10 has no ``tomllib``."""
    text = (REPO / "pyproject.toml").read_text()
    line = re.search(r"^dependencies\s*=\s*\[(.*)\]", text, re.M)
    assert line, "pyproject.toml has no one-line dependencies list"
    return {re.match(r"[A-Za-z0-9_.-]+", spec.strip()).group(0)
            for spec in re.findall(r'"([^"]+)"', line.group(1))}


def _src_imports() -> dict[str, str]:
    """Top-level module of every absolute import under ``src/``, with
    the first file importing it."""
    found: dict[str, str] = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0],
                                 str(path.relative_to(REPO)))
    return found


def test_src_imports_only_declared_dependencies():
    imported = _src_imports()
    assert "numpy" in imported, "the gate matched nothing: src moved?"
    declared = _declared_dependencies()
    undeclared = {name: path for name, path in imported.items()
                  if name != "repro" and name not in declared
                  and name not in sys.stdlib_module_names}
    assert not undeclared, (
        f"src/ imports modules pyproject.toml does not declare: "
        f"{undeclared}")


def test_import_repro_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None; import repro, repro.cli"],
        env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
