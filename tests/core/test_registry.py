"""The algorithm registry: descriptors, lookup, and dispatch defaults."""

import numpy as np
import pytest

from repro.core import (
    BLOOM_FILTER_SPEC,
    GenericSheSketch,
    SheBitmap,
    SheBloomFilter,
    SheCountMin,
    SheHyperLogLog,
    SheMinHash,
    UpdateKind,
)
from repro.core.csm import CsmSpec, CellType
from repro.core.registry import (
    GENERIC_KIND,
    AlgoDescriptor,
    cell_merge_for,
    descriptor_of,
    get_descriptor,
    register_algorithm,
    registered_kinds,
    require_descriptor,
    spec_from_json,
    spec_to_json,
    unregister_algorithm,
)


class TestBuiltinRegistrations:
    def test_five_builtins_plus_generic_registered(self):
        assert {"bf", "bm", "hll", "cm", "mh", GENERIC_KIND} <= set(
            registered_kinds()
        )

    @pytest.mark.parametrize(
        "kind,cls,size_arg",
        [
            ("bf", SheBloomFilter, "num_bits"),
            ("bm", SheBitmap, "num_bits"),
            ("hll", SheHyperLogLog, "num_registers"),
            ("cm", SheCountMin, "num_counters"),
            ("mh", SheMinHash, "num_counters"),
            (GENERIC_KIND, GenericSheSketch, "num_cells"),
        ],
    )
    def test_descriptor_shape(self, kind, cls, size_arg):
        desc = get_descriptor(kind)
        assert desc.cls is cls
        assert desc.size_arg == size_arg
        assert desc.class_name == cls.__name__

    def test_lookup_by_class_name(self):
        assert get_descriptor("SheBloomFilter") is get_descriptor("bf")

    def test_lookup_by_class_and_instance(self):
        desc = get_descriptor("cm")
        assert descriptor_of(SheCountMin) is desc
        assert descriptor_of(SheCountMin(128, 128)) is desc

    def test_unknown_kind_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="registered kinds"):
            get_descriptor("nope")

    def test_descriptor_of_unregistered_is_none(self):
        assert descriptor_of(object()) is None
        with pytest.raises(TypeError, match="register_algorithm"):
            require_descriptor(object())

    def test_only_mh_is_two_stream(self):
        assert get_descriptor("mh").two_stream
        for kind in ("bf", "bm", "hll", "cm", GENERIC_KIND):
            assert not get_descriptor(kind).two_stream

    def test_queries_declared(self):
        assert "membership" in get_descriptor("bf").queries
        assert "cardinality" in get_descriptor("bm").queries
        assert "cardinality" in get_descriptor("hll").queries
        assert "frequency" in get_descriptor("cm").queries
        assert "similarity" in get_descriptor("mh").queries


class TestCellMergeDerivation:
    def test_merge_ops_match_update_kinds(self):
        a = np.array([1, 5, 0], dtype=np.uint32)
        b = np.array([3, 2, 4], dtype=np.uint32)
        assert list(cell_merge_for(UpdateKind.SET_ONE)(a, b)) == [3, 5, 4]
        assert list(cell_merge_for(UpdateKind.MAX_RANK)(a, b)) == [3, 5, 4]
        assert list(cell_merge_for(UpdateKind.ADD_ONE)(a, b)) == [4, 7, 4]
        assert list(cell_merge_for(UpdateKind.MIN_HASH)(a, b)) == [1, 2, 0]

    def test_descriptor_cell_merge_derived_from_spec(self):
        assert get_descriptor("cm").cell_merge(np.uint32(2), np.uint32(3)) == 5
        assert get_descriptor("bf").cell_merge(np.uint8(0), np.uint8(1)) == 1

    def test_generic_descriptor_defers_cell_merge_to_instance(self):
        assert get_descriptor(GENERIC_KIND).cell_merge is None


class TestRegistration:
    def test_register_unregister_roundtrip(self):
        class MySketch(GenericSheSketch):
            pass

        desc = AlgoDescriptor(kind="my-test-kind", cls=MySketch, size_arg="num_cells")
        register_algorithm(desc)
        try:
            assert get_descriptor("my-test-kind") is desc
            assert descriptor_of(MySketch) is desc
        finally:
            unregister_algorithm("my-test-kind")
        assert "my-test-kind" not in registered_kinds()

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm(
                AlgoDescriptor(kind="bf", cls=object, size_arg="num_bits")
            )

    def test_replace_existing_allows_override(self):
        original = get_descriptor("bf")
        register_algorithm(original, replace_existing=True)
        assert get_descriptor("bf") is original

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AlgoDescriptor(kind="", cls=object, size_arg="x")


class TestSpecJson:
    def test_roundtrip(self):
        spec = CsmSpec(
            name="custom",
            cell_type=CellType.COUNTER,
            locations=3,
            update=UpdateKind.ADD_ONE,
            default_cell_bits=32,
            empty_value=0,
            one_sided=True,
        )
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_builtin_spec_roundtrip(self):
        assert spec_from_json(spec_to_json(BLOOM_FILTER_SPEC)) == BLOOM_FILTER_SPEC


class TestSignatures:
    def test_same_config_same_signature(self):
        desc = get_descriptor("bf")
        a = SheBloomFilter(256, 256, seed=3)
        b = SheBloomFilter(256, 256, seed=3)
        assert desc.merge_signature(a) == desc.merge_signature(b)

    def test_seed_changes_signature(self):
        desc = get_descriptor("bf")
        a = SheBloomFilter(256, 256, seed=3)
        b = SheBloomFilter(256, 256, seed=4)
        assert desc.merge_signature(a) != desc.merge_signature(b)

    def test_generic_spec_in_signature(self):
        desc = get_descriptor(GENERIC_KIND)
        bitmap_like = CsmSpec(
            name="bm-like",
            cell_type=CellType.BIT,
            locations=1,
            update=UpdateKind.SET_ONE,
            default_cell_bits=1,
            empty_value=0,
            one_sided=False,
        )
        a = GenericSheSketch(BLOOM_FILTER_SPEC, 256, 256, seed=3)
        c = GenericSheSketch(bitmap_like, 256, 256, seed=3)
        assert desc.merge_signature(a) != desc.merge_signature(c)

    def test_mh_signature_ignores_frame_kind(self):
        # pre-registry quirk, preserved: hw-MH and sw-MH share a signature
        desc = get_descriptor("mh")
        hw = SheMinHash(256, 64, frame="hardware")
        sw = SheMinHash(256, 64, frame="software")
        assert desc.merge_signature(hw) == desc.merge_signature(sw)


    @pytest.mark.parametrize("frame", ["hardware", "software"])
    @pytest.mark.parametrize("kind", ["bf", "bm", "hll", "cm", "mh", "wq", GENERIC_KIND])
    def test_signature_seeds_are_the_seed_view_as_ints(self, kind, frame):
        """The seeds in a signature come from one ``tolist`` of the seed
        array; they equal the ints the read-only ``seeds`` view gives,
        one element at a time, so every signature is as before."""
        import repro.obs.windows  # noqa: F401  (registers "wq")

        desc = get_descriptor(kind)
        kw = {"spec": BLOOM_FILTER_SPEC} if kind == GENERIC_KIND else {}
        sketch = desc.build(256, 256, frame=frame, seed=11, **kw)
        sig = desc.merge_signature(sketch)
        if desc.two_stream:
            got = sig[-1]
            seeds = tuple(int(s) for s in sketch._col_seeds[:4])
        elif hasattr(sketch, "hashes"):
            got = sig[6]
            seeds = tuple(int(s) for s in sketch.hashes.seeds)
        else:
            got = sig[6]
            seeds = tuple(int(s) for s in sketch._select.seeds) + tuple(
                int(s) for s in sketch._value.seeds
            )
        assert got == seeds and all(type(s) is int for s in got)


class TestFromMemory:
    @pytest.mark.parametrize("kind", ["bf", "bm", "hll", "cm", "mh"])
    def test_descriptor_from_memory_respects_budget(self, kind):
        desc = get_descriptor(kind)
        sketch = desc.from_memory(1 << 12, 1 << 14, seed=9)
        assert isinstance(sketch, desc.cls)
        assert sketch.memory_bytes <= 1 << 14

    def test_generic_from_memory_needs_spec(self):
        desc = get_descriptor(GENERIC_KIND)
        with pytest.raises(ValueError, match="spec"):
            desc.from_memory(1 << 12, 1 << 14)
        sketch = desc.from_memory(1 << 12, 1 << 14, spec=BLOOM_FILTER_SPEC)
        assert sketch.memory_bytes <= 1 << 14
