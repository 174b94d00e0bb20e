"""Hashing substrate shared by every sketch in the repository.

The paper uses BOBHash (Bob Jenkins' hash) as its hash function.  We keep
a faithful pure-Python BOBHash (the classic *lookup2* ``mix``/``hash``
construction) for reference and cross-checking, but the hot paths use a
vectorised splitmix64 family: the sketches only need uniform, seed-
independent hash values, and splitmix64 maps directly onto NumPy uint64
arithmetic so whole batches of keys hash in a handful of array ops.

All public helpers accept either a scalar key or a ``numpy`` array of
``uint64`` keys and are deterministic for a given seed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "U64",
    "canonical_key",
    "canonical_keys",
    "splitmix64",
    "remainder_inplace",
    "HashFamily",
    "leading_zeros_32",
    "BobHash",
    "fingerprints",
]

U64 = np.uint64
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# splitmix64 constants (Steele, Lea & Flood; also used by xoshiro seeding).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def canonical_key(key: int | str | bytes) -> int:
    """Map an arbitrary hashable key to a canonical unsigned 64-bit int.

    Integers are taken modulo 2**64; strings/bytes go through FNV-1a so
    that datasets of IP strings, URLs, etc. can feed the sketches.
    """
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        h = 0xCBF29CE484222325
        for b in key:
            h ^= b
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h
    raise TypeError(f"unsupported key type: {type(key).__name__}")


def canonical_keys(keys: Iterable[int | str | bytes] | np.ndarray) -> np.ndarray:
    """Vectorised :func:`canonical_key` returning a ``uint64`` array."""
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        return keys.astype(np.uint64, copy=False)
    return np.fromiter(
        (canonical_key(k) for k in keys), dtype=np.uint64
    )


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """One splitmix64 finalisation round: a high-quality 64->64 mixer.

    Works elementwise on ``uint64`` arrays.  Scalars round-trip through
    a 0-d array so overflow wraps exactly like the array path.
    """
    scalar = np.isscalar(x) or isinstance(x, (int, np.integer))
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z + _SM_GAMMA) & _MASK64
        z = ((z ^ (z >> np.uint64(30))) * _SM_M1) & _MASK64
        z = ((z ^ (z >> np.uint64(27))) * _SM_M2) & _MASK64
        z = z ^ (z >> np.uint64(31))
    return int(z) if scalar else z


def splitmix64_inplace(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """In-place :func:`splitmix64` over ``z``, with scratch buffer ``t``.

    Bit-identical to the functional form (``uint64`` arithmetic wraps,
    so the explicit masks there are no-ops on arrays), but with two
    buffers total instead of a fresh temporary per sub-expression — on
    hot paths the allocator traffic dominates the arithmetic.
    """
    with np.errstate(over="ignore"):
        z += _SM_GAMMA
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= _SM_M1
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= _SM_M2
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return z


def remainder_inplace(v: np.ndarray, m: int) -> np.ndarray:
    """``v %= m`` in place over ``uint64`` hashes, for ``m >= 1``.

    A power-of-two modulus keeps the low bits, so a mask gives the same
    residue at a fraction of ``np.remainder``'s cost.
    """
    if m & (m - 1) == 0:
        np.bitwise_and(v, np.uint64(m - 1), out=v)
    else:
        np.remainder(v, np.uint64(m), out=v)
    return v


class HashFamily:
    """A family of ``k`` independent 64-bit hash functions.

    ``h_i(x) = splitmix64(x XOR seed_i)``, with the ``seed_i`` themselves
    derived from a master seed by splitmix64 — the classic way of
    spawning independent streams.

    The family exposes the two access patterns the sketches need:

    * :meth:`indices` — ``k`` cell indices per key (Bloom/CM style),
    * :meth:`values` — raw 64-bit hash values (HLL/MinHash style).
    """

    def __init__(self, k: int, seed: int = 0x5EED):
        if k < 1:
            raise ValueError(f"hash family needs k >= 1, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        seeds = np.empty(self.k, dtype=np.uint64)
        s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        for i in range(self.k):
            with np.errstate(over="ignore"):
                s = (s + _SM_GAMMA) & _MASK64
            seeds[i] = splitmix64(int(s))
        self._seeds = seeds

    @property
    def seeds(self) -> np.ndarray:
        """The derived per-function seeds (read-only view)."""
        v = self._seeds.view()
        v.flags.writeable = False
        return v

    def values(self, keys: np.ndarray | int) -> np.ndarray:
        """Raw 64-bit hashes, shape ``(n, k)`` (or ``(k,)`` for a scalar).

        The result is the transposed view of a contiguous ``(k, n)``
        block, so ``values(keys).T`` is that block, one row per hash
        function: mixing in this layout runs NumPy's inner loop over the
        long key axis instead of the short ``k`` axis.
        """
        scalar = np.isscalar(keys) or isinstance(keys, (int, np.integer))
        arr = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        z = self._seeds[:, None] ^ arr
        splitmix64_inplace(z, np.empty_like(z))
        return z[:, 0] if scalar else z.T

    def value(self, key: int, i: int) -> int:
        """Scalar hash of ``key`` under the ``i``-th function."""
        return int(splitmix64(int(key) ^ int(self._seeds[i])))

    def indices(self, keys: np.ndarray | int, m: int) -> np.ndarray:
        """Cell indices in ``[0, m)``, shape ``(n, k)`` (``(k,)`` scalar),
        laid out as :meth:`values`: ``.T`` is the contiguous block."""
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        return remainder_inplace(self.values(keys), m)  # values() owns it

    def index(self, key: int, i: int, m: int) -> int:
        """Scalar index of ``key`` under the ``i``-th function."""
        return self.value(key, i) % m


def leading_zeros_32(values: np.ndarray | int) -> np.ndarray | int:
    """Number of leading zero bits in the low 32 bits of ``values``.

    HyperLogLog counts leading zeros of a 32-bit hash; an all-zero word
    reports 32.  Vectorised via a float64 exponent trick (exact because
    every 32-bit int is representable in float64).
    """
    scalar = np.isscalar(values) or isinstance(values, (int, np.integer))
    v = np.atleast_1d(np.asarray(values, dtype=np.uint64)) & np.uint64(0xFFFFFFFF)
    out = np.full(v.shape, 32, dtype=np.int64)
    nz = v != 0
    if np.any(nz):
        # bit_length(x) == floor(log2(x)) + 1, computed exactly via frexp
        _, exp = np.frexp(v[nz].astype(np.float64))
        out[nz] = 32 - exp
    return int(out[0]) if scalar else out


def fingerprints(keys: np.ndarray | int, bits: int, seed: int = 0xF1F0) -> np.ndarray | int:
    """``bits``-bit fingerprints of keys (used by SWAMP and TBF)."""
    if not 1 <= bits <= 64:
        raise ValueError(f"fingerprint width must be in [1, 64], got {bits}")
    fam = HashFamily(1, seed=seed)
    vals = fam.values(keys)
    mask = np.uint64((1 << bits) - 1)
    if isinstance(vals, np.ndarray) and vals.ndim == 2:
        return vals[:, 0] & mask
    return vals[0] & mask if isinstance(vals, np.ndarray) else int(vals) & int(mask)


class BobHash:
    """Pure-Python Bob Jenkins *lookup2* hash — the paper's BOBHash.

    Kept as a reference implementation: the splitmix64 family above is
    what the hot paths use, and ``tests/common/test_hashing.py`` checks
    that both are uniform over sketch-sized index spaces.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed & 0xFFFFFFFF

    @staticmethod
    def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
        M = 0xFFFFFFFF
        a = (a - b - c) & M
        a ^= c >> 13
        b = (b - c - a) & M
        b ^= (a << 8) & M
        c = (c - a - b) & M
        c ^= b >> 13
        a = (a - b - c) & M
        a ^= c >> 12
        b = (b - c - a) & M
        b ^= (a << 16) & M
        c = (c - a - b) & M
        c ^= b >> 5
        a = (a - b - c) & M
        a ^= c >> 3
        b = (b - c - a) & M
        b ^= (a << 10) & M
        c = (c - a - b) & M
        c ^= b >> 15
        return a, b, c

    def hash(self, key: int | bytes | str) -> int:
        """32-bit lookup2 hash of ``key``."""
        if isinstance(key, (int, np.integer)):
            data = int(key).to_bytes(8, "little", signed=False)
        elif isinstance(key, str):
            data = key.encode("utf-8")
        else:
            data = bytes(key)
        length = len(data)
        a = b = 0x9E3779B9
        c = self.seed
        i = 0
        # body: 12-byte blocks
        while length - i >= 12:
            a = (a + int.from_bytes(data[i : i + 4], "little")) & 0xFFFFFFFF
            b = (b + int.from_bytes(data[i + 4 : i + 8], "little")) & 0xFFFFFFFF
            c = (c + int.from_bytes(data[i + 8 : i + 12], "little")) & 0xFFFFFFFF
            a, b, c = self._mix(a, b, c)
            i += 12
        # tail
        c = (c + length) & 0xFFFFFFFF
        tail = data[i:]
        pad = tail + b"\x00" * (11 - len(tail))
        a = (a + int.from_bytes(pad[0:4], "little")) & 0xFFFFFFFF
        b = (b + int.from_bytes(pad[4:8], "little")) & 0xFFFFFFFF
        # the original adds tail bytes 8..10 shifted into the top of c
        c = (c + (int.from_bytes(pad[8:11], "little") << 8)) & 0xFFFFFFFF
        a, b, c = self._mix(a, b, c)
        return c

    def __call__(self, key: int | bytes | str) -> int:
        return self.hash(key)
