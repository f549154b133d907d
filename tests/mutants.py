"""Mutation check: every committed mutant must make its named tests fail.

Each entry of ``mutants.json`` gives a file under ``src/``, an exact text
that occurs in it once, the text that replaces it, and the fast test node
ids that must fail under that edit. The runner copies ``src/``, ``tests/``
and ``pyproject.toml`` into a temporary directory, checks that every named
test passes there unmodified, and then, for each entry in turn, applies
its edit to the copy, runs its tests and restores the file. It exits 1 if
a named test passes under its mutant (the mutant survives), or if an
entry's text is not found exactly once.

    python tests/mutants.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def outcomes(tree: Path, tests: list[str]) -> dict[str, str]:
    """Each named test's outcome (PASSED, FAILED, ERROR, ...) in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    seen = {}
    for line in proc.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome in ("PASSED", "FAILED", "ERROR", "SKIPPED", "XFAIL", "XPASS"):
            seen[rest.split(" - ", 1)[0]] = outcome
    return {test: seen.get(test, "NOT RUN") for test in tests}


def main() -> int:
    mutants = json.loads((Path(__file__).with_name("mutants.json")).read_text(encoding="utf-8"))
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        every_test = sorted({test for m in mutants for test in m["tests"]})
        for test, outcome in outcomes(tree, every_test).items():
            if outcome != "PASSED":
                failures.append(f"unmutated: {test} {outcome}, expected PASSED")
        for m in mutants:
            path = tree / m["file"]
            original = path.read_text(encoding="utf-8")
            if original.count(m["old"]) != 1:
                failures.append(f"{m['name']}: the old text occurs {original.count(m['old'])} times in {m['file']}")
                continue
            path.write_text(original.replace(m["old"], m["new"]), encoding="utf-8")
            try:
                results = outcomes(tree, m["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            for test, outcome in results.items():
                print(f"{m['name']}: {test} {outcome}")
                if outcome not in ("FAILED", "ERROR"):
                    failures.append(f"{m['name']}: {test} {outcome}, expected FAILED")
    for failure in failures:
        print(f"mutant check: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
