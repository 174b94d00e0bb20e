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

A third rule keeps replay on one path.  Worker restarts and crash
recovery both replay the engine's suffix log through
``StreamEngine._replay``, which stamps and partitions exactly as
``ingest`` does; so ``shard_ids`` and ``partition`` are called only in
``service/sharding.py`` and ``service/engine.py``, and none of the names
of the replay paths this replaced is left under ``src/``.

A fourth rule keeps one flush transport.  The process executor pickles
every batch through its worker pipe; the shared-memory ring it once
offered as an alternative is gone, so no module under ``src/`` imports
``repro.service.shm``, passes or accepts a ``transport`` argument, or
names the ring or the knobs that selected it.

A fifth rule keeps engine queries on one read path.  Point queries read
each key's owning shard and whole-array queries merge the live shards,
both through ``StreamEngine._read`` and the executors' one ``read``
verb, which answers where the shards live; so neither the descriptor's
per-kind fan-in choice (``query_fanin``), nor the engine's three
separate read routines ``_read`` replaced, nor the whole-shard view
fan-out the ``read`` verb replaced (the executors' ``peeks`` and the
engine's ``_probe_views``) are named under ``src/``.  The
``query_fanin`` latency stage keeps its name, so that name is allowed
as a string.

A sixth rule keeps one way for a batch to reach a shard.  Every arrival
goes through ``StreamEngine.ingest`` and every flush through the
executors' ``send_many`` / ``settle`` / ``flush_many``; admission
control checks, relief-flushes once and checks again, with no wait.
So the scalar ingest fork (``ingest_one`` and its buffer staging
``append_one``), the ``"block"`` policy's ``block_timeout_s`` and the
``sleep`` argument of ``StreamEngine.__init__``, the pre-registry
``_KindsView``, and a single-batch ``def flush`` in the executor
classes are all gone from ``src/``.  ``"block_timeout_s"`` stays a
retired config key old manifests carry, so it is allowed as a string.

A seventh rule keeps the group offsets derived.  ``d_gid = -floor(Tcycle
* gid / G)`` is a function of ``gid``, worked out where it is needed, so
no module under ``src/repro/core`` or ``src/repro/obs`` reads or assigns
an ``offsets`` attribute.  The RTL models under ``src/repro/hardware``
keep their own offset tables, as the hardware does, and are exempt.
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


#: the modules allowed to call the partitioning functions
PARTITION_ALLOWED = {
    SRC / "repro" / "service" / "sharding.py",
    SRC / "repro" / "service" / "engine.py",
}

PARTITION_CALLS = {"shard_ids", "partition"}

#: the replay paths ``StreamEngine._replay`` replaced: the supervisor's
#: pre-stamped batch buffer and its hook, its hand copy of the stamping
#: math, and the ingest bypass flag of the old WAL replay
REMOVED_REPLAY_NAMES = {
    "ReplayBuffer",
    "record_sent",
    "_replay_worker_from_wal",
    "_wal_replaying",
}

#: the removed shared-memory flush ring, its worker verb and the
#: constants, keywords and environment variable that selected it
REMOVED_TRANSPORT_NAMES = {
    "SlotRing",
    "shm_available",
    "flush_shm",
    "ring_slot_items",
    "MAX_RING_BYTES",
    "TRANSPORTS",
    "REPRO_TRANSPORT",
}

#: the engine read routines ``StreamEngine._read`` replaced, and the
#: shard-view fan-out the executors' ``read`` verb replaced
REMOVED_READ_NAMES = {
    "_surviving_snapshots",
    "_degraded_merged",
    "_synced_read",
    "peeks",
    "_probe_views",
}

#: the removed descriptor field; as a string it is the stage name
REMOVED_FANIN_FIELD = "query_fanin"

#: the scalar ingest fork, its buffer staging, the ``"block"`` policy's
#: wait bound and the pre-registry kinds view
REMOVED_SURFACE_NAMES = {
    "ingest_one",
    "append_one",
    "block_timeout_s",
    "_KindsView",
}

#: the packages in which no ``offsets`` attribute may appear
DERIVED_OFFSET_PACKAGES = (SRC / "repro" / "core", SRC / "repro" / "obs")

#: the modules whose classes may not define a single-batch ``flush``
EXECUTOR_MODULES = {
    SRC / "repro" / "service" / "executor.py",
    SRC / "repro" / "service" / "faults.py",
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


def _identifiers(node: ast.AST):
    """Names a node binds or mentions (string constants only whole)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.alias):
        yield node.name
        if node.asname:
            yield node.asname
    elif isinstance(node, ast.arg):
        yield node.arg
    elif isinstance(node, ast.keyword) and node.arg is not None:
        yield node.arg
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value  # getattr(x, "record_sent") style lookups


def _replay_violations(path: Path, allow_partition: bool) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    # partition functions imported under another name count as well
    callers = set(PARTITION_CALLS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            callers.update(
                a.asname for a in node.names
                if a.name in PARTITION_CALLS and a.asname
            )
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not allow_partition:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in callers:
                found.append(f"{path}:{node.lineno}: call to {name}")
        for name in _identifiers(node):
            if name in REMOVED_REPLAY_NAMES:
                line = getattr(node, "lineno", "?")
                found.append(f"{path}:{line}: removed replay name {name}")
    return found


def test_replay_has_one_path():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(_replay_violations(path, path in PARTITION_ALLOWED))
    assert not offenders, (
        "replay goes through StreamEngine._replay, and only sharding.py "
        "and engine.py partition keys:\n" + "\n".join(offenders)
    )


def test_replay_lint_detects_violations(tmp_path):
    """The rule is live: stray partitioning and old replay names are caught."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.service.sharding import shard_ids as _sids\n"
        "class ReplayBuffer:\n"
        "    def replay(self, engine, keys, times):\n"
        "        owners = _sids(keys, 4)\n"
        "        engine._wal_replaying = True\n"
        "        getattr(engine._supervisor, 'record_sent')\n"
        "        return sharding.partition(keys, times, owners, 4)\n"
        "    # record_sent(...) in a comment is fine\n"
        "    s = 'a ReplayBuffer in a string is fine'\n"
    )
    found = _replay_violations(bad, allow_partition=False)
    assert len(found) == 5
    assert sum("call to" in f for f in found) == 2
    assert any("ReplayBuffer" in f for f in found)
    assert any("_wal_replaying" in f for f in found)
    assert any("record_sent" in f for f in found)
    assert len(_replay_violations(bad, allow_partition=True)) == 3


def _transport_violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [
                f"{node.module}.{a.name}" for a in node.names
            ]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            modules = []
        if any(m == "repro.service.shm" for m in modules):
            found.append(f"{path}:{line}: import of repro.service.shm")
        if isinstance(node, (ast.arg, ast.keyword)) and (
            node.arg == "transport"
        ):
            found.append(f"{path}:{line}: transport argument")
        for name in _identifiers(node):
            if name in REMOVED_TRANSPORT_NAMES:
                found.append(f"{path}:{line}: removed transport name {name}")
    return found


def test_flush_has_one_transport():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(_transport_violations(path))
    assert not offenders, (
        "the process executor pickles every flush through its worker "
        "pipe; the shared-memory ring and its knobs are gone:\n"
        + "\n".join(offenders)
    )


def test_transport_lint_detects_violations(tmp_path):
    """The rule is live: the ring's module, names and knobs are caught."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import os\n"
        "from repro.service.shm import SlotRing\n"
        "from repro.service import shm\n"
        "def make(shards, transport='pickle'):\n"
        "    mode = os.environ.get('REPRO_TRANSPORT', 'pickle')\n"
        "    return ProcessExecutor(shards, ring_slot_items=64,\n"
        "                           transport=mode)\n"
        "# conn.send(('flush_shm', ...)) in a comment is fine\n"
        "s = 'a SlotRing in a sentence is fine'\n"
    )
    found = _transport_violations(bad)
    assert len(found) == 7
    assert sum("import of repro.service.shm" in f for f in found) == 2
    assert sum("transport argument" in f for f in found) == 2
    assert any("SlotRing" in f for f in found)
    assert any("REPRO_TRANSPORT" in f for f in found)
    assert any("ring_slot_items" in f for f in found)


def _read_path_violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        for name in _identifiers(node):
            if name in REMOVED_READ_NAMES:
                found.append(f"{path}:{line}: removed read routine {name}")
            elif name == REMOVED_FANIN_FIELD and not isinstance(node, ast.Constant):
                found.append(f"{path}:{line}: removed descriptor field {name}")
    return found


def test_queries_have_one_read_path():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(_read_path_violations(path))
    assert not offenders, (
        "engine queries read through StreamEngine._read, point queries "
        "from each key's owning shard; the per-kind fan-in and the old "
        "read routines are gone:\n" + "\n".join(offenders)
    )


def test_read_path_lint_detects_violations(tmp_path):
    """The rule is live: the fan-in field and old routines are caught."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class Descriptor:\n"
        "    query_fanin: str = 'merge'\n"
        "def answer(engine, desc, keys):\n"
        "    if desc.query_fanin == 'sum':\n"
        "        return engine._synced_read(engine._exec.peeks)\n"
        "    snaps, missing = engine._surviving_snapshots()\n"
        "    getattr(engine, '_degraded_merged')()\n"
        "    views = engine._probe_views()\n"
        "    return Descriptor(kind='cm', query_fanin='sum')\n"
        "class Executor:\n"
        "    def peeks(self, shard_ids=None):\n"
        "        return self._shards\n"
        "# engine._synced_read() in a comment is fine\n"
        "STAGES = ('apply', 'query_fanin')\n"
    )
    found = _read_path_violations(bad)
    assert len(found) == 9
    assert sum("descriptor field query_fanin" in f for f in found) == 3
    assert any("_synced_read" in f for f in found)
    assert any("_surviving_snapshots" in f for f in found)
    assert any("_degraded_merged" in f for f in found)
    assert sum("routine peeks" in f for f in found) == 2
    assert any("_probe_views" in f for f in found)


def _batch_path_violations(path: Path, executor_module: bool) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if not isinstance(node, ast.Constant):
            for name in _identifiers(node):
                if name in REMOVED_SURFACE_NAMES:
                    found.append(f"{path}:{line}: removed name {name}")
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if executor_module and item.name == "flush":
                found.append(
                    f"{path}:{item.lineno}: {node.name} defines flush"
                )
            if node.name == "StreamEngine" and item.name == "__init__":
                args = item.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == "sleep" for a in params):
                    found.append(
                        f"{path}:{item.lineno}: StreamEngine.__init__ "
                        "takes sleep"
                    )
    return found


def test_batches_have_one_way_to_a_shard():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(
            _batch_path_violations(path, path in EXECUTOR_MODULES)
        )
    assert not offenders, (
        "arrivals go through StreamEngine.ingest and flushes through "
        "send_many/settle/flush_many; the scalar fork, the block policy's "
        "wait and the single-batch executor flush are gone:\n"
        + "\n".join(offenders)
    )


def test_batch_path_lint_detects_violations(tmp_path):
    """The rule is live: the fork, the wait, the kinds view and an
    executor's single-batch flush are caught."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class StreamEngine:\n"
        "    def __init__(self, config, *, sleep=time.sleep):\n"
        "        self.config = config\n"
        "    def ingest_one(self, key):\n"
        "        self._buffers[0].append_one(key, 0)\n"
        "class _KindsView(Mapping):\n"
        "    pass\n"
        "class SerialExecutor:\n"
        "    def flush(self, shard_id, keys, times):\n"
        "        pass\n"
        "def flush():\n"
        "    return EngineConfig('cm', block_timeout_s=2.0)\n"
        "RETIRED = frozenset({'block_timeout_s'})\n"
        "# engine.ingest_one(7) in a comment is fine\n"
    )
    found = _batch_path_violations(bad, executor_module=True)
    assert len(found) == 6
    assert any("takes sleep" in f for f in found)
    assert any("SerialExecutor defines flush" in f for f in found)
    assert sum("removed name" in f for f in found) == 4
    assert any("block_timeout_s" in f for f in found)
    assert len(_batch_path_violations(bad, executor_module=False)) == 5


def _stored_offset_violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path}:{node.lineno}: offsets attribute"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "offsets"
    ]


def test_group_offsets_are_derived():
    offenders = []
    for package in DERIVED_OFFSET_PACKAGES:
        for path in sorted(package.rglob("*.py")):
            offenders.extend(_stored_offset_violations(path))
    assert not offenders, (
        "d_gid is derived from gid (HardwareFrame._phase); no frame or "
        "probe stores or reads a per-group offsets array:\n"
        + "\n".join(offenders)
    )


def test_stored_offset_lint_detects_violations(tmp_path):
    """The rule is live: reads and assignments of ``offsets`` are caught."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class Frame:\n"
        "    def __init__(self, g):\n"
        "        self.offsets = -((self.t_cycle * g) // self.num_groups)\n"
        "    def ages(self, gids, t):\n"
        "        return (t + self.offsets.take(gids)) % self.t_cycle\n"
        "# frame.offsets[gid] in a comment is fine\n"
        "s = 'frame.offsets in a string is fine'\n"
        "offsets = [0, -10]  # a local name is fine\n"
    )
    found = _stored_offset_violations(bad)
    assert len(found) == 2
    assert all("offsets attribute" in f for f in found)
