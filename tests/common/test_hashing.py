"""Tests for the hashing substrate."""

import numpy as np
import pytest

from repro.common.hashing import (
    BobHash,
    HashFamily,
    canonical_key,
    canonical_keys,
    fingerprints,
    leading_zeros_32,
    splitmix64,
)


class TestSplitmix64:
    def test_scalar_matches_array(self):
        xs = np.array([0, 1, 2, 12345, 2**63], dtype=np.uint64)
        arr = splitmix64(xs)
        for i, x in enumerate(xs):
            assert splitmix64(int(x)) == int(arr[i])

    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_distinct_inputs_distinct_outputs(self):
        xs = np.arange(10_000, dtype=np.uint64)
        assert len(np.unique(splitmix64(xs))) == 10_000

    def test_scalar_returns_python_int(self):
        assert isinstance(splitmix64(7), int)

    def test_output_range(self):
        out = splitmix64(np.arange(1000, dtype=np.uint64))
        assert out.dtype == np.uint64

    def test_avalanche(self):
        # flipping one input bit flips ~half the output bits
        a = splitmix64(0x123456789ABCDEF)
        b = splitmix64(0x123456789ABCDEE)
        diff = bin(a ^ b).count("1")
        assert 16 <= diff <= 48


class TestHashFamily:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            HashFamily(0)

    def test_values_shape(self):
        fam = HashFamily(4)
        out = fam.values(np.arange(10, dtype=np.uint64))
        assert out.shape == (10, 4)

    def test_scalar_values_shape(self):
        fam = HashFamily(4)
        assert fam.values(7).shape == (4,)

    def test_indices_range(self):
        fam = HashFamily(3)
        idx = fam.indices(np.arange(1000, dtype=np.uint64), 97)
        assert idx.max() < 97
        assert idx.min() >= 0

    def test_index_scalar_matches_batch(self):
        fam = HashFamily(3, seed=9)
        keys = np.arange(20, dtype=np.uint64)
        idx = fam.indices(keys, 101)
        for i, k in enumerate(keys):
            for j in range(3):
                assert fam.index(int(k), j, 101) == idx[i, j]

    def test_different_seeds_differ(self):
        a = HashFamily(1, seed=1).values(np.arange(100, dtype=np.uint64))
        b = HashFamily(1, seed=2).values(np.arange(100, dtype=np.uint64))
        assert not np.array_equal(a, b)

    def test_functions_independent(self):
        fam = HashFamily(2, seed=5)
        v = fam.values(np.arange(5000, dtype=np.uint64))
        # the two columns should not be correlated
        assert not np.array_equal(v[:, 0], v[:, 1])
        agreement = np.mean((v[:, 0] % 64) == (v[:, 1] % 64))
        assert agreement < 0.05

    def test_uniformity_chi_squared(self):
        fam = HashFamily(1, seed=3)
        m = 64
        idx = fam.indices(np.arange(64_000, dtype=np.uint64), m)
        counts = np.bincount(idx[:, 0].astype(np.int64), minlength=m)
        expected = 64_000 / m
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 63 dof: mean 63, std ~11; allow generous headroom
        assert chi2 < 63 + 6 * 11.2

    def test_seeds_property_read_only(self):
        fam = HashFamily(2)
        with pytest.raises(ValueError):
            fam.seeds[0] = 0

    @pytest.mark.parametrize(
        "m", [1, 2, 64, 1 << 13, 1 << 20, 1 << 40, 3, 97, 1000, (1 << 13) + 1]
    )
    def test_indices_equal_remainder(self, m):
        """The power-of-two mask and the general remainder both give
        exactly ``values % m``, for arrays and for a scalar key."""
        fam = HashFamily(5, seed=11)
        keys = np.random.default_rng(m % 1000).integers(
            0, 1 << 63, size=2000, dtype=np.uint64
        )
        want = fam.values(keys) % np.uint64(m)
        got = fam.indices(keys, m)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)
        assert np.array_equal(fam.indices(int(keys[0]), m), want[0])

    @pytest.mark.parametrize("m", [1, 64, 1 << 13, 1 << 40, 3, 97, (1 << 13) + 1])
    def test_layout_matches_item_major_construction(self, m):
        """Mixing in ``(k, n)`` layout changes no hash bit: ``values``
        and ``indices`` equal the item-major ``(n, k)`` construction
        ``splitmix64(keys[:, None] ^ seeds)`` for arrays and a scalar
        key, so sketches and checkpoints built before answer the same;
        ``.T`` is the contiguous touch-major block."""
        fam = HashFamily(8, seed=0xC0FFEE)
        keys = np.random.default_rng(m % 7919).integers(
            0, 1 << 64, size=1000, dtype=np.uint64
        )
        old = splitmix64(keys[:, None] ^ fam.seeds[None, :])
        old_idx = old % np.uint64(m)
        got = fam.values(keys)
        assert got.shape == (1000, 8)
        assert np.array_equal(got, old)
        idx = fam.indices(keys, m)
        assert np.array_equal(idx, old_idx)
        assert idx.T.flags.c_contiguous
        assert np.array_equal(fam.values(int(keys[3])), old[3])
        assert np.array_equal(fam.indices(int(keys[3]), m), old_idx[3])
        for i in (0, 7):
            assert fam.index(int(keys[5]), i, m) == int(old_idx[5, i])

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            HashFamily(1).indices(np.asarray([1], dtype=np.uint64), 0)


class TestLeadingZeros:
    def test_known_values(self):
        assert leading_zeros_32(0) == 32
        assert leading_zeros_32(1) == 31
        assert leading_zeros_32(0x80000000) == 0
        assert leading_zeros_32(0xFFFFFFFF) == 0
        assert leading_zeros_32(0x00010000) == 15

    def test_matches_bit_length(self):
        vals = np.random.default_rng(0).integers(0, 2**32, size=1000, dtype=np.uint64)
        out = leading_zeros_32(vals)
        for v, o in zip(vals.tolist(), out.tolist()):
            assert o == 32 - int(v).bit_length()

    def test_only_low_32_bits_counted(self):
        assert leading_zeros_32((1 << 40) | 1) == 31

    def test_geometric_distribution(self):
        vals = splitmix64(np.arange(100_000, dtype=np.uint64))
        lz = leading_zeros_32(vals)
        # P(lz >= 1) should be ~1/2
        assert abs(np.mean(lz >= 1) - 0.5) < 0.02


class TestFingerprints:
    def test_width(self):
        fps = fingerprints(np.arange(1000, dtype=np.uint64), 8)
        assert fps.max() < 256

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            fingerprints(np.asarray([1], dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            fingerprints(np.asarray([1], dtype=np.uint64), 65)

    def test_deterministic(self):
        keys = np.arange(50, dtype=np.uint64)
        assert np.array_equal(fingerprints(keys, 16), fingerprints(keys, 16))


class TestCanonicalKey:
    def test_int_passthrough(self):
        assert canonical_key(5) == 5

    def test_int_wraps(self):
        assert canonical_key(2**64 + 3) == 3

    def test_negative_wraps(self):
        assert canonical_key(-1) == 2**64 - 1

    def test_string_deterministic(self):
        assert canonical_key("10.0.0.1") == canonical_key("10.0.0.1")
        assert canonical_key("10.0.0.1") != canonical_key("10.0.0.2")

    def test_bytes_equals_str_utf8(self):
        assert canonical_key("abc") == canonical_key(b"abc")

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            canonical_key(3.14)

    def test_canonical_keys_array_passthrough(self):
        arr = np.arange(5, dtype=np.int32)
        out = canonical_keys(arr)
        assert out.dtype == np.uint64
        assert np.array_equal(out, arr.astype(np.uint64))

    def test_canonical_keys_mixed(self):
        out = canonical_keys(["a", 5, b"z"])
        assert out.shape == (3,)


class TestBobHash:
    def test_deterministic(self):
        h = BobHash(seed=1)
        assert h(12345) == h(12345)

    def test_seed_changes_output(self):
        assert BobHash(seed=1)(99) != BobHash(seed=2)(99)

    def test_32bit_range(self):
        h = BobHash()
        for k in [0, 1, 2**40, "hello", b"\x00" * 20]:
            v = h(k)
            assert 0 <= v < 2**32

    def test_long_input_blocks(self):
        # exercises the 12-byte body loop
        h = BobHash(seed=7)
        assert h(b"x" * 40) != h(b"x" * 41)

    def test_uniform_enough_for_sketches(self):
        h = BobHash(seed=3)
        m = 32
        counts = np.bincount([h(i) % m for i in range(8000)], minlength=m)
        expected = 8000 / m
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 31 + 6 * 7.9
