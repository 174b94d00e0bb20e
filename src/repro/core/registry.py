"""Descriptor-driven algorithm registry: one dispatch layer for SHE.

The paper's point is that SHE is *generic* — any ⟨C, K, F⟩ CSM sketch
lifts to sliding windows — and this module is where the codebase honours
that beyond the single-sketch layer.  An :class:`AlgoDescriptor` bundles
everything the surrounding system needs to treat an algorithm uniformly:

* its short engine ``kind`` and sketch class,
* the :class:`~repro.core.csm.CsmSpec` (when one exists),
* the constructor's size-argument name and a ``build`` factory,
* the cell-merge operator (derived from the spec's
  :class:`~repro.core.csm.UpdateKind` unless overridden) and the merge
  compatibility ``signature``,
* which typed queries it answers (the engine routes point queries to
  each key's owning shard and folds the shards for whole-array ones),
* the estimators that answer its whole-array queries from folded cell
  arrays (:func:`repro.core.merge.estimate`),
* serialize/deserialize hooks (``to_state`` / ``from_state``),
* memory-budget sizing (``from_memory``).

:func:`register_algorithm` installs a descriptor process-wide;
:func:`get_descriptor` / :func:`descriptor_of` look it up by kind string,
persisted class name, class, or instance.  The five paper algorithms are
registered at import, as is the ``"generic"`` lifting — so
``StreamEngine(kind="my-custom-csm")``, :mod:`repro.core.merge`,
:mod:`repro.persist` and the harness builders all work for a
user-registered algorithm without touching any of those modules.

This is deliberately the *only* module allowed to dispatch on concrete
SHE sketch classes; a CI lint (and ``tests/test_dispatch_lint.py``)
rejects ``isinstance(x, She...)`` anywhere else under ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from repro.core.csm import CellType, CsmSpec, UpdateKind
from repro.core.generic import GenericSheSketch
from repro.core.hardware_frame import HardwareFrame
from repro.core.she_bf import SheBloomFilter
from repro.core.she_bm import SheBitmap
from repro.core.she_cm import SheCountMin
from repro.core.she_hll import SheHyperLogLog
from repro.core.she_mh import SheMinHash

__all__ = [
    "AlgoDescriptor",
    "register_algorithm",
    "unregister_algorithm",
    "get_descriptor",
    "descriptor_of",
    "registered_kinds",
    "cell_merge_for",
    "GENERIC_KIND",
]

GENERIC_KIND = "generic"


#: the cell-wise combine each update function admits: the merge of two
#: substream sketches is exact iff the combine distributes over F.
_UPDATE_MERGE: dict[UpdateKind, Callable] = {
    UpdateKind.SET_ONE: np.maximum,   # OR on 0/1 bits
    UpdateKind.MAX_RANK: np.maximum,  # max rank
    UpdateKind.ADD_ONE: np.add,       # counts add
    UpdateKind.MIN_HASH: np.minimum,  # min hash values
}


def cell_merge_for(update: UpdateKind) -> Callable:
    """The cell-wise merge operator implied by an update function."""
    try:
        return _UPDATE_MERGE[update]
    except KeyError:  # pragma: no cover - UpdateKind is closed
        raise ValueError(f"no merge operator for update kind {update!r}")


# -- frame (de)serialisation helpers ------------------------------------------


def frame_kind(frame) -> str:
    """``"hardware"`` or ``"software"`` for a frame instance."""
    return "hardware" if isinstance(frame, HardwareFrame) else "software"


def frame_state(frame, prefix: str, arrays: dict, meta: dict) -> None:
    """Record one frame's resumable state under ``prefix``."""
    arrays[f"{prefix}cells"] = frame.cells
    if isinstance(frame, HardwareFrame):
        arrays[f"{prefix}marks"] = frame.marks
    else:
        meta[f"{prefix}boundaries"] = frame._boundaries_done


def restore_frame(frame, prefix: str, data, meta: dict) -> None:
    """Restore what :func:`frame_state` recorded into a fresh frame."""
    frame.cells[:] = data[f"{prefix}cells"]
    if isinstance(frame, HardwareFrame):
        frame.marks[:] = data[f"{prefix}marks"]
    else:
        frame._boundaries_done = int(meta[f"{prefix}boundaries"])


# -- compatibility signatures -------------------------------------------------


def _single_frame_signature(desc: "AlgoDescriptor", sketch) -> tuple:
    cfg = sketch.config
    # ``tolist`` gives the Python ints in one call, where converting
    # through the read-only ``seeds`` view cost a NumPy scalar per seed
    if hasattr(sketch, "hashes"):
        seeds = tuple(sketch.hashes._seeds.tolist())
    else:
        seeds = tuple(sketch._select._seeds.tolist() + sketch._value._seeds.tolist())
    return (
        desc.class_name,
        cfg.window,
        cfg.t_cycle,
        cfg.group_width,
        sketch.frame.num_cells,
        type(sketch.frame).__name__,
        seeds,
        getattr(sketch, "spec", None),
    )


def _two_stream_signature(desc: "AlgoDescriptor", sketch) -> tuple:
    cfg = sketch.config
    seeds = tuple(sketch._col_seeds[:4].tolist())
    return (desc.class_name, cfg.window, cfg.t_cycle, sketch.num_counters, seeds)


# -- default (de)serialisation hooks ------------------------------------------


def _default_to_state(desc: "AlgoDescriptor", sketch) -> tuple[dict, dict]:
    """Meta fields + arrays for a single-frame sketch built as
    ``cls(window, size, *, alpha, beta, group_width, frame, seed)``.

    This covers :class:`GenericSheSketch` subclasses out of the box; the
    five named classes override it to keep their archive layout
    byte-identical with the pre-registry format.
    """
    cfg = sketch.config
    params = {
        "window": cfg.window,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        desc.size_arg: sketch.frame.num_cells,
        "group_width": cfg.group_width,
        "seed": sketch.hashes.seed,
    }
    spec = getattr(sketch, "spec", None)
    if spec is not None:
        params["spec"] = spec_to_json(spec)
    meta = {
        "params": params,
        "frame": frame_kind(sketch.frame),
        "t": sketch.t,
    }
    arrays: dict = {}
    frame_state(sketch.frame, "f_", arrays, meta)
    return meta, arrays


def _default_from_state(desc: "AlgoDescriptor", meta: dict, data):
    params = dict(meta["params"])
    params.pop("spec", None)  # the class bakes its own spec in
    window = params.pop("window")
    size = params.pop(desc.size_arg)
    sketch = desc.build(window, size, frame=meta["frame"], **params)
    sketch.t = int(meta["t"])
    restore_frame(sketch.frame, "f_", data, meta)
    return sketch


def spec_to_json(spec: CsmSpec) -> dict:
    """A JSON-safe rendering of a ⟨C, K, F⟩ spec (for archives)."""
    return {
        "name": spec.name,
        "cell_type": spec.cell_type.value,
        "locations": spec.locations,
        "update": spec.update.value,
        "default_cell_bits": spec.default_cell_bits,
        "empty_value": spec.empty_value,
        "one_sided": spec.one_sided,
    }


def spec_from_json(data: dict) -> CsmSpec:
    """Rebuild a :class:`CsmSpec` recorded by :func:`spec_to_json`."""
    return CsmSpec(
        name=data["name"],
        cell_type=CellType(data["cell_type"]),
        locations=data["locations"],
        update=UpdateKind(data["update"]),
        default_cell_bits=int(data["default_cell_bits"]),
        empty_value=int(data["empty_value"]),
        one_sided=bool(data["one_sided"]),
    )


# -- the descriptor -----------------------------------------------------------


@dataclass(frozen=True)
class AlgoDescriptor:
    """Everything the framework needs to dispatch one algorithm.

    Attributes:
        kind: short engine/CLI kind string (``"bf"``, ``"cm"``, ...).
        cls: the sketch class.
        size_arg: the constructor's size-parameter name (``num_bits``,
            ``num_registers``, ``num_counters``, ``num_cells``).
        spec: the ⟨C, K, F⟩ CSM spec, when the algorithm has one.
        class_name: the kind string persisted in archives (defaults to
            ``cls.__name__``; must stay stable across renames).
        two_stream: True for two-stream sketches (SHE-MH shape): two
            frames, per-side clocks, ``insert_at(side, keys, times)``.
        cell_merge: cell-wise combine for same-config merges; derived
            from ``spec.update`` when omitted.
        queries: typed queries the algorithm answers (``"membership"``,
            ``"cardinality"``, ``"frequency"``, ``"similarity"``).
        degraded_caveat: what guarantee missing shards cost a
            ``strict=False`` query (:class:`DegradedAnswer.caveat`).
        shed_caveat: what guarantee is lost when admission control shed
            arrivals inside the current window (overload policies
            ``"shed_oldest"`` / ``"shed_newest"``) — the shed keys are
            simply absent from the sketch, which costs the same class
            of guarantee as a missing shard but only for the shed
            items, not the shard's whole key range.
        build: factory ``build(window, size, **sketch_kwargs)``;
            defaults to ``cls(window, size, **sketch_kwargs)``.
        from_memory: budget sizing ``(window, memory_bytes, **kwargs)``;
            defaults to ``cls.from_memory``.
        signature: merge-compatibility key of one sketch instance;
            merges are allowed only between equal signatures.
        estimators: whole-array query method name -> pure estimator
            ``(sketch, cells, times, *margs) -> answer`` over the cells
            a sketch holds at ``times`` (one array and one time per
            frame, e.g. a :func:`repro.core.merge.fold`); ``sketch``
            lends only its geometry.  The sketch's own query method
            calls the same function after ``prepare_query_all``, so the
            engine answers from folded shards without building a
            merged sketch.  A query with no estimator is answered by
            the method of a merged sketch.
        to_state: ``(descriptor, sketch) -> (meta_fields, arrays)`` for
            :func:`repro.persist.save_sketch`.
        from_state: ``(descriptor, meta, npz_data) -> sketch`` for
            :func:`repro.persist.load_sketch`.
    """

    kind: str
    cls: type
    size_arg: str
    spec: CsmSpec | None = None
    class_name: str = ""
    two_stream: bool = False
    cell_merge: Callable | None = None
    queries: frozenset = frozenset()
    degraded_caveat: str = (
        "missing shards' keys are unrepresented; per-key and aggregate "
        "answers may be incomplete"
    )
    shed_caveat: str = (
        "overload shedding dropped arrivals inside the current window; "
        "answers undercount the shed items"
    )
    build: Callable | None = None
    from_memory: Callable | None = None
    signature: Callable | None = None
    to_state: Callable | None = None
    from_state: Callable | None = None
    estimators: Mapping[str, Callable] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("descriptor needs a non-empty kind string")
        if not self.class_name:
            object.__setattr__(self, "class_name", self.cls.__name__)
        if self.cell_merge is None and self.spec is not None:
            object.__setattr__(self, "cell_merge", cell_merge_for(self.spec.update))
        if self.build is None:
            cls = self.cls
            object.__setattr__(
                self, "build", lambda window, size, **kw: cls(window, size, **kw)
            )
        if self.from_memory is None and hasattr(self.cls, "from_memory"):
            object.__setattr__(self, "from_memory", self.cls.from_memory)
        if self.signature is None:
            object.__setattr__(
                self,
                "signature",
                (_two_stream_signature if self.two_stream else _single_frame_signature),
            )
        if self.to_state is None:
            object.__setattr__(self, "to_state", _default_to_state)
        if self.from_state is None:
            object.__setattr__(self, "from_state", _default_from_state)
        object.__setattr__(self, "queries", frozenset(self.queries))
        object.__setattr__(self, "estimators", MappingProxyType(dict(self.estimators)))

    # bound conveniences so call sites read naturally ------------------------

    def merge_signature(self, sketch) -> tuple:
        return self.signature(self, sketch)

    def caveat(self, *, missing: bool = False, shed: bool = False) -> str | None:
        """The caveat a ``strict=False`` answer should carry.

        The engine's degraded-query path calls this with whether shards
        were missing from the read and whether any answering shard
        shed arrivals inside the current window; both can hold at once,
        in which case the caveats concatenate.
        """
        parts = []
        if missing:
            parts.append(self.degraded_caveat)
        if shed:
            parts.append(self.shed_caveat)
        return "; ".join(parts) if parts else None

    def sketch_state(self, sketch) -> tuple[dict, dict]:
        return self.to_state(self, sketch)

    def sketch_from_state(self, meta: dict, data):
        return self.from_state(self, meta, data)


# -- the process-wide registry ------------------------------------------------

_BY_KIND: dict[str, AlgoDescriptor] = {}
_BY_CLASS: dict[type, AlgoDescriptor] = {}
_BY_CLASS_NAME: dict[str, AlgoDescriptor] = {}


def register_algorithm(descriptor: AlgoDescriptor, *, replace_existing: bool = False) -> AlgoDescriptor:
    """Install a descriptor process-wide; returns it for chaining.

    Registration makes the algorithm mergeable
    (:mod:`repro.core.merge`), serialisable (:mod:`repro.persist`),
    servable (``StreamEngine(kind=...)`` with sharding, checkpoints,
    supervision and probes) and buildable by the harness.  See
    ``docs/extending.md`` for the walkthrough.
    """
    taken = _BY_KIND.get(descriptor.kind) or _BY_CLASS_NAME.get(descriptor.class_name)
    if taken is not None and not replace_existing and taken.cls is not descriptor.cls:
        raise ValueError(
            f"kind {descriptor.kind!r} / class name {descriptor.class_name!r} "
            f"is already registered for {taken.cls.__name__}; pass "
            "replace_existing=True to override"
        )
    _BY_KIND[descriptor.kind] = descriptor
    _BY_CLASS[descriptor.cls] = descriptor
    _BY_CLASS_NAME[descriptor.class_name] = descriptor
    return descriptor


def unregister_algorithm(kind: str) -> None:
    """Remove a registered kind (tests and REPL experiments)."""
    desc = _BY_KIND.pop(kind, None)
    if desc is None:
        return
    if _BY_CLASS.get(desc.cls) is desc:
        del _BY_CLASS[desc.cls]
    if _BY_CLASS_NAME.get(desc.class_name) is desc:
        del _BY_CLASS_NAME[desc.class_name]


def registered_kinds() -> list[str]:
    """All registered kind strings, sorted."""
    return sorted(_BY_KIND)


def get_descriptor(kind: str) -> AlgoDescriptor:
    """Descriptor for a kind string or persisted class name (raises)."""
    desc = _BY_KIND.get(kind) or _BY_CLASS_NAME.get(kind)
    if desc is None:
        raise KeyError(
            f"no algorithm registered for kind {kind!r}; registered kinds: "
            f"{registered_kinds()} (see register_algorithm / docs/extending.md)"
        )
    return desc


def descriptor_of(obj) -> AlgoDescriptor | None:
    """Descriptor for a sketch class or instance; None if unregistered."""
    cls = obj if isinstance(obj, type) else type(obj)
    return _BY_CLASS.get(cls)


def require_descriptor(obj) -> AlgoDescriptor:
    """Like :func:`descriptor_of` but raises a helpful TypeError."""
    desc = descriptor_of(obj)
    if desc is None:
        cls = obj if isinstance(obj, type) else type(obj)
        raise TypeError(
            f"{cls.__name__} is not a registered SHE algorithm; register it "
            "with repro.core.registry.register_algorithm (docs/extending.md)"
        )
    return desc


# -- built-in (de)serialisation hooks -----------------------------------------
#
# These reproduce the pre-registry persist.py layout byte-for-byte: the
# same meta key order, the same params per class, the same array names —
# so checkpoints written before the refactor still load and checkpoints
# written after it are bit-identical.


def _bf_to_state(desc, sketch) -> tuple[dict, dict]:
    cfg = sketch.config
    meta = {
        "params": {
            "window": cfg.window,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "num_bits": sketch.num_bits,
            "num_hashes": sketch.num_hashes,
            "group_width": cfg.group_width,
            "seed": sketch.hashes.seed,
        },
        "frame": frame_kind(sketch.frame),
        "t": sketch.t,
    }
    arrays: dict = {}
    frame_state(sketch.frame, "f_", arrays, meta)
    return meta, arrays


def _bf_from_state(desc, meta, data):
    params = dict(meta["params"])
    params.pop("beta", None)  # BF has no legal band
    window = params.pop("window")
    sketch = desc.build(window, params.pop("num_bits"), frame=meta["frame"], **params)
    sketch.t = int(meta["t"])
    restore_frame(sketch.frame, "f_", data, meta)
    return sketch


def _bm_to_state(desc, sketch) -> tuple[dict, dict]:
    cfg = sketch.config
    meta = {
        "params": {
            "window": cfg.window,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "num_bits": sketch.num_bits,
            "group_width": cfg.group_width,
            "seed": sketch.hashes.seed,
        },
        "frame": frame_kind(sketch.frame),
        "t": sketch.t,
    }
    arrays: dict = {}
    frame_state(sketch.frame, "f_", arrays, meta)
    return meta, arrays


def _bm_from_state(desc, meta, data):
    params = dict(meta["params"])
    window = params.pop("window")
    sketch = desc.build(window, params.pop("num_bits"), frame=meta["frame"], **params)
    sketch.t = int(meta["t"])
    restore_frame(sketch.frame, "f_", data, meta)
    return sketch


def _hll_to_state(desc, sketch) -> tuple[dict, dict]:
    cfg = sketch.config
    meta = {
        "params": {
            "window": cfg.window,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "num_registers": sketch.num_registers,
        },
        "frame": frame_kind(sketch.frame),
        "t": sketch.t,
    }
    arrays: dict = {}
    frame_state(sketch.frame, "f_", arrays, meta)
    arrays["select_seeds"] = sketch._select.seeds.copy()
    arrays["value_seeds"] = sketch._value.seeds.copy()
    meta["params"]["seed"] = 0  # reconstructed from the stored seed arrays
    return meta, arrays


def _hll_from_state(desc, meta, data):
    params = dict(meta["params"])
    window = params.pop("window")
    sketch = desc.build(
        window,
        params.pop("num_registers"),
        alpha=params["alpha"],
        beta=params["beta"],
        frame=meta["frame"],
    )
    sketch._select._seeds[:] = data["select_seeds"]
    sketch._value._seeds[:] = data["value_seeds"]
    sketch.t = int(meta["t"])
    restore_frame(sketch.frame, "f_", data, meta)
    return sketch


def _cm_to_state(desc, sketch) -> tuple[dict, dict]:
    cfg = sketch.config
    meta = {
        "params": {
            "window": cfg.window,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "num_counters": sketch.num_counters,
            "num_hashes": sketch.num_hashes,
            "group_width": cfg.group_width,
            "seed": sketch.hashes.seed,
        },
        "frame": frame_kind(sketch.frame),
        "t": sketch.t,
    }
    arrays: dict = {}
    frame_state(sketch.frame, "f_", arrays, meta)
    return meta, arrays


def _cm_from_state(desc, meta, data):
    params = dict(meta["params"])
    params.pop("beta", None)  # CM has no legal band
    window = params.pop("window")
    sketch = desc.build(window, params.pop("num_counters"), frame=meta["frame"], **params)
    sketch.t = int(meta["t"])
    restore_frame(sketch.frame, "f_", data, meta)
    return sketch


def _mh_to_state(desc, sketch) -> tuple[dict, dict]:
    cfg = sketch.config
    meta = {
        "params": {
            "window": cfg.window,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "num_counters": sketch.num_counters,
        },
        "frame": frame_kind(sketch.frames[0]),
        "counts": list(sketch.counts),
        "seed_hint": "col_seeds stored",
    }
    arrays: dict = {"col_seeds": sketch._col_seeds}
    for side, frame in enumerate(sketch.frames):
        frame_state(frame, f"f{side}_", arrays, meta)
    return meta, arrays


def _mh_from_state(desc, meta, data):
    params = dict(meta["params"])
    window = params.pop("window")
    sketch = desc.build(
        window,
        params.pop("num_counters"),
        alpha=params["alpha"],
        beta=params["beta"],
        frame=meta["frame"],
    )
    sketch._col_seeds = data["col_seeds"].copy()
    sketch.counts = [int(c) for c in meta["counts"]]
    for side, frame in enumerate(sketch.frames):
        restore_frame(frame, f"f{side}_", data, meta)
    return sketch


# -- the generic lifting ------------------------------------------------------


def _generic_build(window, size, *, spec=None, **kwargs):
    if spec is None:
        raise ValueError(
            "the 'generic' kind needs a CsmSpec: pass "
            "sketch_kwargs={'spec': <CsmSpec>, ...} (or register a named "
            "algorithm — docs/extending.md)"
        )
    if isinstance(spec, Mapping):
        spec = spec_from_json(dict(spec))
    return GenericSheSketch(spec, window, size, **kwargs)


def _generic_to_state(desc, sketch) -> tuple[dict, dict]:
    cfg = sketch.config
    meta = {
        "params": {
            "window": cfg.window,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "num_cells": sketch.num_cells_total,
            "group_width": cfg.group_width,
            "seed": sketch.hashes.seed,
            "spec": spec_to_json(sketch.spec),
        },
        "frame": frame_kind(sketch.frame),
        "t": sketch.t,
    }
    arrays: dict = {}
    frame_state(sketch.frame, "f_", arrays, meta)
    return meta, arrays


def _generic_from_state(desc, meta, data):
    params = dict(meta["params"])
    window = params.pop("window")
    size = params.pop("num_cells")
    sketch = desc.build(window, size, frame=meta["frame"], **params)
    sketch.t = int(meta["t"])
    restore_frame(sketch.frame, "f_", data, meta)
    return sketch


def _generic_from_memory(window, memory_bytes, *, spec=None, **kwargs):
    if spec is None:
        raise ValueError("generic from_memory needs a CsmSpec via spec=")
    return GenericSheSketch.from_memory(spec, window, memory_bytes, **kwargs)


# -- built-in registration ----------------------------------------------------

from repro.core.csm import (  # noqa: E402  (grouped with their use below)
    BITMAP_SPEC,
    BLOOM_FILTER_SPEC,
    COUNT_MIN_SPEC,
    HYPERLOGLOG_SPEC,
    MINHASH_SPEC,
)

register_algorithm(AlgoDescriptor(
    kind="bf",
    cls=SheBloomFilter,
    size_arg="num_bits",
    spec=BLOOM_FILTER_SPEC,
    queries=frozenset({"membership"}),
    degraded_caveat="missing shards may yield false negatives for keys they own",
    shed_caveat=(
        "shed arrivals inside the window may read as false negatives"
    ),
    to_state=_bf_to_state,
    from_state=_bf_from_state,
))

register_algorithm(AlgoDescriptor(
    kind="bm",
    cls=SheBitmap,
    size_arg="num_bits",
    spec=BITMAP_SPEC,
    queries=frozenset({"cardinality"}),
    degraded_caveat=(
        "cardinality is a lower bound: missing shards' keys are uncounted"
    ),
    shed_caveat=(
        "cardinality undercounts: shed arrivals inside the window are "
        "uncounted"
    ),
    estimators={"cardinality": SheBitmap.estimate_cardinality},
    to_state=_bm_to_state,
    from_state=_bm_from_state,
))

register_algorithm(AlgoDescriptor(
    kind="hll",
    cls=SheHyperLogLog,
    size_arg="num_registers",
    spec=HYPERLOGLOG_SPEC,
    queries=frozenset({"cardinality"}),
    degraded_caveat=(
        "cardinality is a lower bound: missing shards' keys are uncounted"
    ),
    shed_caveat=(
        "cardinality undercounts: shed arrivals inside the window are "
        "uncounted"
    ),
    estimators={"cardinality": SheHyperLogLog.estimate_cardinality},
    to_state=_hll_to_state,
    from_state=_hll_from_state,
))

register_algorithm(AlgoDescriptor(
    kind="cm",
    cls=SheCountMin,
    size_arg="num_counters",
    spec=COUNT_MIN_SPEC,
    queries=frozenset({"frequency"}),
    degraded_caveat=(
        "one-sided error is lost: keys owned by missing shards can be "
        "underestimated (down to zero)"
    ),
    shed_caveat=(
        "one-sided error is lost for shed arrivals: windowed counts of "
        "affected keys can be underestimated"
    ),
    to_state=_cm_to_state,
    from_state=_cm_from_state,
))

register_algorithm(AlgoDescriptor(
    kind="mh",
    cls=SheMinHash,
    size_arg="num_counters",
    spec=MINHASH_SPEC,
    two_stream=True,
    queries=frozenset({"similarity"}),
    degraded_caveat="similarity ignores the key subspace owned by missing shards",
    shed_caveat=(
        "similarity ignores arrivals shed inside the window on either "
        "stream"
    ),
    estimators={"similarity": SheMinHash.estimate_similarity},
    to_state=_mh_to_state,
    from_state=_mh_from_state,
))

register_algorithm(AlgoDescriptor(
    kind=GENERIC_KIND,
    cls=GenericSheSketch,
    size_arg="num_cells",
    # cell_merge resolves per instance from the spec at merge time
    cell_merge=None,
    build=_generic_build,
    from_memory=_generic_from_memory,
    to_state=_generic_to_state,
    from_state=_generic_from_state,
))
