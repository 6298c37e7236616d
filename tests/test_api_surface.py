"""Every name the package exports has a caller in a command, criterion, script or benchmark."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "renewal_lab" / "__init__.py"
#: exported with no caller outside the tests: the tests' independent recomputation of the
#: intensity that thinning judges against, kept until a compensator check replaces it
EXEMPT = ["intensity_path"]


def test_every_export_is_referenced_outside_the_tests():
    tree = ast.parse(INIT.read_text())
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    files = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py")) if p != INIT]
    lines = [line for p in files for line in p.read_text().splitlines()]
    unreferenced = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unreferenced.append(name)
    assert len(names) > 50
    assert unreferenced == EXEMPT
