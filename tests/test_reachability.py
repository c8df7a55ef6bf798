"""No subsystem that only tests can reach: every top-level public def,
class or assigned name in ``skewer_ray/`` must be named somewhere
outside ``tests/`` — the package itself, ``tools/``, ``bench.py``,
``__ray_entry__.py`` or ``perfbench/`` (its test file excluded) — other
than on its own definition line.

``#`` comments are dropped before the search, but a mention in a
docstring still counts as a use, so the check is a lower bound on
test-only code; it never flags a name a run reaches.

The same holds for parameters: every defaulted parameter of a ``def``
in ``skewer_ray/``, ``bench.py``, ``tools/*.py`` or ``__ray_entry__.py``
must be passed by some call in those files, or it is a constant dressed
as an option. Calls match the callee by bare name (``f(...)`` and
``x.f(...)`` both match every ``def f``), so this too is a lower bound
on never-set parameters.

Memory that grows with the corpus is vetted too: each unbounded driver
pull (``take_all()`` without a limit) and each per-group UDF
(``map_groups``) in ``skewer_ray/`` sits in ``COLLECTS`` with the reason
its structure stays bounded."""

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
    "decode_fullavro": "test oracle: reads back the fullavro encoder",
    "bulk_ack_statuses": "test oracle: folds a simulated bulk exchange",
    "read_encrypted": "reader that checks an encrypted partition",
    "generate_skew_table": "skew fixture generator for the skew tests",
}


# defaulted parameters only tests set, each with its reason
SEAMS = {
    "connected_components(small_graph_max)":
        "forces the distributed path on a small test graph",
    "_group_counts(batch_size)":
        "small batches make the lineage count stream over several",
    "pack_sequences(budget)": "a small budget cuts packs on a small corpus",
    "pack_sequences(n_buckets)":
        "few buckets make packs straddle segment boundaries",
    "late_event_counts(lateness_us)": "sweeps the lateness bound",
    "late_event_counts(n_buckets)":
        "few buckets make the scan cross segment boundaries",
    "alert_windows(threshold)": "sweeps the firing threshold",
    "rate_limit(limit)": "sweeps the per-window limit",
    "cusum_changepoints(k)": "sweeps the CUSUM reference value",
    "cusum_changepoints(h)": "sweeps the CUSUM decision threshold",
    "decontaminate(mod)": "a denser benchmark slice on a small corpus",
    "tfidf_top_terms(k)": "checks the top-k cut at several k",
    "grok_extract(drop_unmatched)": "checks that unmatched rows are kept",
    "ivf_topk(nprobe)": "probing every list must equal the exact top-k",
    "matryoshka_rerank(prefix_dims)": "sweeps the prefix width",
    "matryoshka_rerank(m)": "sweeps the candidate count",
    "mmr_diversify(m)": "sweeps the candidate count",
    "heavy_hitters(k)": "a small k makes the summary truncate",
    "trending_terms(k)": "checks the top-k cut at several k",
}

# standard signatures, not options: the console entry point and the
# mapping protocol
_PROTOCOL = {("main", "argv"), ("get", "default")}


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


def _bare(node) -> str | None:
    """``f`` for ``f`` and for ``x.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls_and_values(files):
    """Every call by callee name, and the names used as values (passed,
    stored or returned rather than called): such a def may be called
    through any other name."""
    calls: dict[str, list] = {}
    values: set[str] = set()
    for p in files:
        tree = ast.parse(p.read_text())
        callees = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                callees.add(id(n.func))
                calls.setdefault(_bare(n.func), []).append(n)
        for n in ast.walk(tree):
            if id(n) not in callees and \
                    isinstance(getattr(n, "ctx", None), ast.Load):
                values.add(_bare(n))
    return calls, values


def _guarded_defs():
    """(path, enclosing class or None, def) for every def in the
    package and in the scripts a run starts from."""
    def walk(path, node, cls):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, ast.ClassDef):
                yield from walk(path, ch, ch.name)
            elif isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, cls, ch
                yield from walk(path, ch, None)
            else:
                yield from walk(path, ch, cls)
    scripts = sorted((ROOT / "tools").glob("*.py")) + [
        ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    for path in sorted(PACKAGE.rglob("*.py")) + scripts:
        yield from walk(path, ast.parse(path.read_text()), None)


def _defaulted(fn: ast.FunctionDef, bound: int):
    """(name, call position or None, default) of each defaulted
    parameter; the position of a bound method's parameter skips
    ``self``."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    for i, (arg, d) in enumerate(zip(pos[first:], a.defaults), first):
        yield arg.arg, i - bound, _expr(d)
    for arg, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield arg.arg, None, _expr(d)


def _expr(node) -> str:
    """A comparable form of an expression: ``K`` and ``m.K`` are equal."""
    return _bare(node) or ast.dump(node)


def _sets(call: ast.Call, param: str, pos, default: str) -> bool:
    """Whether ``call`` passes ``param`` a value other than its own
    default expression (passing the default sets nothing)."""
    if any(isinstance(x, ast.Starred) for x in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True                       # *args / **kwargs: maybe
    given = [k.value for k in call.keywords if k.arg == param]
    if pos is not None and len(call.args) > pos:
        given.append(call.args[pos])
    return any(_expr(v) != default for v in given)


def test_every_parameter_is_set_outside_tests():
    """Never-set defaulted parameters are exactly ``SEAMS``: a new one
    fails, and so does a seam that a run now sets (or that is gone).
    A constructor is matched through its class name; the test oracles
    in ``ALLOWED`` are skipped."""
    calls, values = _calls_and_values(_search_files())
    unset = {}
    for path, cls, fn in _guarded_defs():
        ctor = cls is not None and fn.name == "__init__"
        name = cls if ctor else fn.name
        if cls in ALLOWED or name in ALLOWED or name in values:
            continue
        static = any(_bare(d) == "staticmethod" for d in fn.decorator_list)
        bound = int(cls is not None and not static)
        label = name if ctor or cls is None else f"{cls}.{fn.name}"
        for param, pos, default in _defaulted(fn, bound):
            if (fn.name, param) in _PROTOCOL or any(
                    _sets(c, param, pos, default)
                    for c in calls.get(name, [])):
                continue
            key = f"{label}({param})"
            unset[key] = f"{path.relative_to(ROOT)}:{fn.lineno} {key}"
    extra = sorted(v for k, v in unset.items() if k not in SEAMS)
    assert not extra, "defaulted parameters no run sets:\n" + \
        "\n".join(extra)
    assert set(unset) == set(SEAMS), \
        f"allowlisted but set or gone: {sorted(set(SEAMS) - set(unset))}"


# unbounded driver pulls and per-group UDFs per file, each with the
# reason its structure does not grow with the corpus
COLLECTS = {
    "functions/similarity.py": (
        7, "query-sized: the |Q| query rows and labels, |Q|*k or |Q|*m "
           "candidates, and per-block partial sums per label"),
    "functions/curation.py": (
        4, "map_groups over fixed hash buckets, per-source top-k "
           "partials or quality levels, each group sorted alone"),
    "functions/dedup.py": (
        4, "map_groups over LSH bands' buckets; the driver pulls the "
           "pair graph only below small_graph_max edges"),
    "functions/decontam.py": (
        2, "the benchmark slice's shingles and positions, not the "
           "corpus's"),
    "pipelines/corpus.py": (
        2, "at most k rows per block; the bigram LM grows with the "
           "vocabulary (ROADMAP direction 4)"),
    "stages/buckets.py": (
        1, "grouped_by_bucket: a fixed number of hash buckets"),
    "functions/sketches.py": (1, "at most KMV_K hashes per block"),
    "functions/textstats.py": (1, "three sums per (lang, block)"),
    "functions/windows.py": (
        1, "map_groups over fixed time buckets, per-type sums out"),
    "pipelines/queries.py": (1, "the distinct roles per block"),
}


def _collects(path: Path) -> int:
    """``take_all()`` calls with no limit and ``map_groups`` calls."""
    n = 0
    for c in ast.walk(ast.parse(path.read_text())):
        if isinstance(c, ast.Call):
            name = _bare(c.func)
            n += name == "map_groups" or (
                name == "take_all" and not c.args and not c.keywords)
    return n


def test_every_collect_is_vetted():
    """The per-file counts equal ``COLLECTS``: a new site fails until
    it is vetted, and a file whose sites went must leave the list."""
    counts = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if n := _collects(path):
            counts[path.relative_to(PACKAGE).as_posix()] = n
    assert counts == {f: n for f, (n, _) in COLLECTS.items()}
