"""Merging SHE sketches — distributed sliding-window monitoring.

The fixed-window originals are all mergeable (OR bits, max registers,
sum counters, min hashes), which is how distributed deployments
aggregate per-link monitors into one view.  SHE preserves mergeability
*provided the clocks align*: two sketches observing substreams of the
same time axis (e.g. two switch ports timestamped by a shared counter)
have identical group offsets, cycle lengths and virtual ages, so
reading both frames at their common query time and combining the
cells cell-wise gives exactly the SHE sketch of the union stream.

Which combine applies is not decided here: every registered algorithm's
:class:`~repro.core.registry.AlgoDescriptor` carries its cell-merge
operator (derived from the CSM spec's
:class:`~repro.core.csm.UpdateKind`) and its compatibility *signature*
(type, geometry, frame kind, hash seeds), so a user-registered CSM
sketch merges through the same code path as the five paper algorithms.

What cannot merge: sketches with different windows, alphas, sizes or
hash seeds (the combine would be meaningless), unregistered types, or
count-based clocks that drifted apart (ages would disagree);
:func:`merge_many` rejects all of those loudly.

Operands are never written: :func:`fold` reads every frame as lazy
cleaning at the common time would leave it (``read_all``) and combines
the reads into one accumulator, in place for the ufunc combines, so the
result does not depend on operand order and a fold holds one extra read
at a time.  :func:`merge_many` is that fold installed into a copy of
the first operand (:func:`install`).

Whole-array queries need no merged sketch.  Every registered estimator
(:attr:`~repro.core.registry.AlgoDescriptor.estimators`: cardinality,
similarity, quantile, ...) is a function of the folded cells and the
query time alone, so :func:`estimate` answers from the fold; the
sketch it is handed only lends its geometry.  A kind that registers no
estimator for a query is answered by that query method of the folded
sketch instead.

Caveat (documented, tested): a group may be stale in one operand and
fresh in the other; reading both at the common time resolves every
mark, so the merge is exact *when every group is touched at least once
per cycle in each substream* — Eq. 1's condition, comfortably true for
the grouped sketches (w = 64).  For the w = 1 sketches (HLL, MinHash) a
substream can skip a register across two mark flips and retain stale
content the union stream would have cleaned; the deviation is one-sided
(stale cells only inflate max-combines) and vanishes in the paper's
C >> M operating regime.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.registry import (
    AlgoDescriptor,
    cell_merge_for,
    descriptor_of,
    require_descriptor,
)

__all__ = [
    "merge_sketches",
    "merge_many",
    "mergeable",
    "require_mergeable",
    "fold",
    "fold_cells",
    "install",
    "estimate",
]


def _frames(sketch, desc: AlgoDescriptor) -> tuple:
    return tuple(sketch.frames) if desc.two_stream else (sketch.frame,)


def _clocks(sketch, desc: AlgoDescriptor) -> tuple[int, ...]:
    if desc.two_stream:
        return tuple(int(c) for c in sketch.counts)
    return (int(sketch.t),)


def _set_clocks(sketch, desc: AlgoDescriptor, times: tuple[int, ...]) -> None:
    if desc.two_stream:
        sketch.counts = list(times)
    else:
        sketch.t = times[0]


def _combine_of(sketch, desc: AlgoDescriptor):
    """The cell-merge operator: descriptor-level, or from the instance's
    own spec for the generic lifting (whose F varies per instance)."""
    if desc.cell_merge is not None:
        return desc.cell_merge
    spec = getattr(sketch, "spec", None)
    if spec is None:
        raise ValueError(
            f"{type(sketch).__name__} has neither a descriptor-level merge "
            "operator nor a CSM spec to derive one from"
        )
    return cell_merge_for(spec.update)


def mergeable(a, b) -> bool:
    """True iff ``a`` and ``b`` are combinable (same type, geometry, seeds)."""
    if type(a) is not type(b):
        return False
    desc = descriptor_of(a)
    if desc is None:
        return False
    try:
        return desc.merge_signature(a) == desc.merge_signature(b)
    except AttributeError:
        return False


def require_mergeable(sketches) -> AlgoDescriptor:
    """The descriptor of ``sketches`` (a non-empty list), after checking
    that they are mutually mergeable registered sketches.

    Raises:
        ValueError: naming the first operand that does not match.
    """
    first = sketches[0]
    for other in sketches[1:]:
        if not mergeable(first, other):
            raise ValueError(
                f"cannot merge {type(first).__name__} with "
                f"{type(other).__name__}: types, geometry, frame kind and "
                "hash seeds must all match (and both types must be "
                "registered algorithms)"
            )
    desc = descriptor_of(first)
    if desc is None:
        raise ValueError(
            f"{type(first).__name__} is not a registered algorithm"
        )
    return desc


def fold_cells(sketch, parts):
    """Combine ``parts`` (per-side tuples of cell arrays, e.g. the folds
    of several workers) with ``sketch``'s cell operator into one tuple.

    The first part's arrays are the accumulator and are written in
    place by the ufunc combines, so they must be the caller's own.
    """
    combine = _combine_of(sketch, require_descriptor(sketch))
    parts = iter(parts)
    acc = list(next(parts))
    for part in parts:
        for side, cells in enumerate(part):
            if isinstance(combine, np.ufunc):
                combine(acc[side], cells, out=acc[side])
            else:
                acc[side] = combine(acc[side], cells)
    return tuple(acc)


def fold(sketches, times: tuple) -> tuple:
    """The cells of the union of ``sketches``, one array per side: each
    frame read at its side's time in ``times`` (``read_all``, which
    writes no operand) and the reads combined by :func:`fold_cells`.

    No compatibility check runs here: :func:`merge_many` checks its
    operands first (:func:`require_mergeable`), and an engine's stacked
    shards are clones of one prototype, checked when they were stacked.
    """
    desc = require_descriptor(sketches[0])
    reads = (
        tuple(f.read_all(tt) for f, tt in zip(_frames(s, desc), times))
        for s in sketches
    )
    return fold_cells(sketches[0], reads)


def install(sketch, cells: tuple, times: tuple):
    """A new sketch: a deep copy of ``sketch`` whose frames own ``cells``
    (one array per side, not copied) with every mark current, positioned
    at ``times``, exactly as cleaning at ``times`` would leave a sketch
    holding those cells."""
    desc = require_descriptor(sketch)
    # the copy's cells and marks are swapped in through the memo
    memo: dict = {}
    for frame, side_cells, tt in zip(_frames(sketch, desc), cells, times):
        memo[id(frame.cells)] = side_cells
        if hasattr(frame, "marks"):
            memo[id(frame.marks)] = frame._current_marks_all(tt)
    out = copy.deepcopy(sketch, memo)
    for frame, tt in zip(_frames(out, desc), times):
        if hasattr(frame, "_boundaries_done"):
            frame._boundaries_done = max(
                frame._boundaries_done, frame._boundaries_at(tt)
            )
    _set_clocks(out, desc, times)
    return out


def estimate(sketch, method: str, cells: tuple, times: tuple, *margs):
    """``method(*margs)`` of the sketch that holds ``cells`` at ``times``
    (a :func:`fold`), answered by the kind's registered estimator: no
    sketch is built, and ``sketch`` (any operand of the fold) only
    lends its geometry.  A kind without an estimator for ``method`` is
    asked through :func:`install`."""
    est = require_descriptor(sketch).estimators.get(method)
    if est is None:
        return getattr(install(sketch, cells, times), method)(*margs)
    return est(sketch, cells, times, *margs)


def merge_sketches(a, b, *, t: int | None = None):
    """A *new* sketch equal to observing both streams:
    ``merge_many([a, b], t=t)``."""
    return merge_many([a, b], t=t)


def merge_many(sketches, *, t: int | None = None, require_aligned: bool = False):
    """Combine a collection of shard sketches into one new sketch.

    Read every operand as it stands at the common time ``t`` and fold
    the reads with the algorithm's cell combine (:func:`fold`), in one
    pass and without copying or cleaning the operands; the result is a
    *new* sketch (the first operand's type) positioned at ``t``
    (:func:`install`).

    Args:
        sketches: one or more mutually mergeable SHE sketches whose
            clocks refer to the same time axis.
        t: common query time; defaults to the maximum operand clock.
        require_aligned: when True, reject operands whose count-based
            clocks disagree.  Shards of one engine observe the same
            time axis, so drifted clocks mean the fan-in would combine
            windows over *different* suffixes of the stream — loudly
            refusing beats a silently biased answer.

    Raises:
        ValueError: on an empty collection, non-mergeable operands,
            unregistered types, or (with ``require_aligned``) drifted
            clocks.
    """
    sketches = list(sketches)
    if not sketches:
        raise ValueError("merge_many needs at least one sketch")
    desc = require_mergeable(sketches)
    clocks = [_clocks(s, desc) for s in sketches]
    if require_aligned and len(set(clocks)) > 1:
        raise ValueError(
            "count-based clocks drifted across shards: "
            f"{sorted(set(clocks))}; operands must observe the same time axis"
        )
    times = tuple(t if t is not None else max(side) for side in zip(*clocks))
    return install(sketches[0], fold(sketches, times), times)
