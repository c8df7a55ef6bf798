"""No subsystem that only tests can reach: every top-level public def,
class or assigned name in ``skewer_ray/`` must be named somewhere
outside ``tests/`` — the package itself, ``tools/``, ``bench.py``,
``__ray_entry__.py`` or ``perfbench/`` (its test file excluded) — other
than on its own definition line.

``#`` comments are dropped before the search, but a mention in a
docstring still counts as a use, so the check is a lower bound on
test-only code; it never flags a name a run reaches."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "skewer_ray"

# names only tests use today, each with its reason
ALLOWED = {
    "TcpClientSink": "client sink, waiting for a deliver step",
    "RelpClientSink": "client sink, waiting for a deliver step",
    "GraylogClientSink": "client sink, waiting for a deliver step",
    "NatsClientSink": "client sink, waiting for a deliver step",
    "RedisClientSink": "client sink, waiting for a deliver step",
    "decode_fullavro": "test oracle: reads back the fullavro encoder",
    "bulk_ack_statuses": "test oracle: folds a simulated bulk exchange",
    "read_encrypted": "reader that checks an encrypted partition",
    "generate_skew_table": "skew fixture generator for the skew tests",
    "HttpClientSink": "client sink, waiting for a deliver step",
}


def _search_files() -> list[Path]:
    files = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py"))
    files += [ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    return files + [p for p in sorted((ROOT / "perfbench").rglob("*.py"))
                    if p.name != "test_perfbench.py"]


def _code_lines(path: Path) -> list[str]:
    """The file's lines with every ``#`` comment cut off."""
    lines = path.read_text().splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def _names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for t in targets:
            for n in ast.walk(t):
                if isinstance(n, ast.Name):
                    yield n.id


def _public_defs():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in _names(node):
                if not name.startswith("_"):
                    yield path, node.lineno, name


def test_every_public_name_is_used_outside_tests():
    """Unused names are exactly the allowlist: a new test-only name
    fails, and so does an allowlisted name that is now used (or gone)."""
    # word → the (file, line) places that name it
    places: dict[str, set] = {}
    for p in _search_files():
        for i, line in enumerate(_code_lines(p), 1):
            for word in re.findall(r"\w+", line):
                places.setdefault(word, set()).add((p, i))
    unused = {}
    for path, lineno, name in _public_defs():
        if not places.get(name, set()) - {(path, lineno)}:
            unused[name] = f"{path.relative_to(ROOT)}:{lineno} {name}"
    extra = sorted(v for k, v in unused.items() if k not in ALLOWED)
    assert not extra, "used only by tests:\n" + "\n".join(extra)
    assert set(unused) == set(ALLOWED), \
        f"allowlisted but used or gone: {sorted(set(ALLOWED) - set(unused))}"
