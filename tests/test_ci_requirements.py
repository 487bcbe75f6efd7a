"""CI dependency manifest: every third-party import is installable.

The tier-1 CI job installs exactly ``requirements-ci.txt`` on a fresh
runner, so a module imported by the package or the test suites but
missing from that file fails the job at import time. This walks every
absolute import under the scanned trees with :mod:`ast` and checks that
each top-level module outside the standard library and outside the repo
is listed.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Trees whose imports CI must satisfy (package, tests, benches).
SCANNED = ("src", "tests", "benchmarks", "perfbench")

#: Optional imports behind a guard, installed only on their own CI leg.
OPTIONAL = {
    "numba": "guarded import in repro.backend.numba_backend; the numba CI leg installs it",
}


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _local_modules() -> set[str]:
    local = {p.name for p in (ROOT / "src").iterdir() if p.is_dir()}
    for tree in SCANNED:
        local.update(p.stem for p in (ROOT / tree).glob("*.py"))
    return local


def _requirements() -> set[str]:
    lines = (ROOT / "requirements-ci.txt").read_text().splitlines()
    return {
        line.split("#")[0].strip().lower().replace("-", "_")
        for line in lines
        if line.split("#")[0].strip()
    }


def test_third_party_imports_are_in_requirements():
    imported: dict[str, str] = {}
    for tree in SCANNED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for name in _imported_modules(path):
                imported.setdefault(name, str(path.relative_to(ROOT)))
    exempt = set(sys.stdlib_module_names) | _local_modules() | set(OPTIONAL)
    missing = {
        name: where
        for name, where in imported.items()
        if name not in exempt and name.lower() not in _requirements()
    }
    assert not missing, f"imports missing from requirements-ci.txt: {missing}"
