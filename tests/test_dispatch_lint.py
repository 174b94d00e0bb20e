"""Dispatch lint: algorithm dispatch lives in the registry, nowhere else.

The registry refactor's structural guarantee — adding an algorithm means
one ``register_algorithm()`` call, never editing per-kind branches — only
holds while no ``isinstance(x, She...)`` type-switching creeps back into
the framework.  This lint walks every Python file under ``src/`` and
fails on such a check outside ``core/registry.py`` (the one module
allowed to know the concrete classes).

Uses the AST, not a regex, so strings/docstrings/comments mentioning the
pattern don't trip it and aliased tuple forms ``isinstance(x, (SheA,
SheB))`` do.

A second rule keeps frame writes in one home.  Every insert writes
frames through ``core/batch.py`` (``apply_columnar``), whole-array
queries clean through the frames' own ``prepare_query_all``, and the
registry restores them; so no module under ``src/`` calls the removed
cleaning verbs or a private apply kernel, and only ``core/batch.py`` and
``core/registry.py`` branch on the frame classes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: the one module allowed to dispatch on concrete sketch classes
ALLOWED = {SRC / "repro" / "core" / "registry.py"}

#: class-name prefixes whose isinstance checks count as algorithm dispatch
DISPATCH_PREFIXES = ("She", "GenericShe")


#: the modules allowed to branch on the frame classes
FRAME_DISPATCH_ALLOWED = {
    SRC / "repro" / "core" / "batch.py",
    SRC / "repro" / "core" / "registry.py",
}

FRAME_CLASSES = {"HardwareFrame", "SoftwareFrame"}

#: cleaning verbs the frames no longer have, and SHE-MH's old private
#: apply kernel
REMOVED_VERBS = {
    "prepare_insert",
    "check_groups",
    "check_all_groups",
    "_insert_chunk",
}


def _names_in(node: ast.expr):
    """Bare names mentioned in an isinstance() second argument."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _names_in(elt)
    elif isinstance(node, ast.BinOp):  # ``A | B`` unions
        yield from _names_in(node.left)
        yield from _names_in(node.right)


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        hits = [
            name
            for name in _names_in(node.args[1])
            if name.startswith(DISPATCH_PREFIXES)
        ]
        if hits:
            found.append(f"{path}:{node.lineno}: isinstance on {', '.join(hits)}")
    return found


def test_no_isinstance_dispatch_outside_registry():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        offenders.extend(_violations(path))
    assert not offenders, (
        "algorithm dispatch belongs in repro/core/registry.py "
        "(register an AlgoDescriptor instead):\n" + "\n".join(offenders)
    )


def test_lint_actually_detects_dispatch(tmp_path):
    """The lint is live: a synthetic violation is caught."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(x):\n"
        "    if isinstance(x, (SheMinHash, SheCountMin)):\n"
        "        return 2\n"
        "    # isinstance(x, SheBloomFilter) in a comment is fine\n"
        "    s = 'isinstance(x, SheBitmap) in a string is fine'\n"
        "    return 1\n"
    )
    found = _violations(bad)
    assert len(found) == 1 and "SheMinHash" in found[0]


def _frame_write_violations(path: Path, allow_frame_dispatch: bool) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in REMOVED_VERBS:
            found.append(f"{path}:{node.lineno}: call to removed verb {name}")
        elif name == "isinstance" and len(node.args) == 2 and not allow_frame_dispatch:
            hits = sorted(FRAME_CLASSES.intersection(_names_in(node.args[1])))
            if hits:
                found.append(f"{path}:{node.lineno}: isinstance on {', '.join(hits)}")
    return found


def test_frame_writes_have_one_home():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(_frame_write_violations(path, path in FRAME_DISPATCH_ALLOWED))
    assert not offenders, (
        "inserts write frames through core/batch.py and the registry "
        "restores them; only those two modules dispatch on frame classes:\n"
        + "\n".join(offenders)
    )


def test_frame_write_lint_detects_violations(tmp_path):
    """The rule is live: removed verbs and frame dispatch are caught."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(sketch, t):\n"
        "    sketch.frame.prepare_insert(sketch.keys, t)\n"
        "    if isinstance(sketch.frame, HardwareFrame | SoftwareFrame):\n"
        "        sketch._insert_chunk(sketch.frame, t)\n"
        "    return isinstance(sketch.frame, (repro.core.SoftwareFrame,))\n"
        "    # sketch.frame.check_groups(t) in a comment is fine\n"
    )
    found = _frame_write_violations(bad, allow_frame_dispatch=False)
    assert len(found) == 4
    assert any("prepare_insert" in f for f in found)
    assert any("_insert_chunk" in f for f in found)
    assert sum("isinstance" in f for f in found) == 2
    assert len(_frame_write_violations(bad, allow_frame_dispatch=True)) == 2
