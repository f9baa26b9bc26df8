"""Stable (process-independent) hashing utilities.

Python's builtin ``hash`` is salted per process, so every key used for
partitioning, salting, dedup or embedding seeds goes through these
md5/blake2-based helpers instead — identical on every worker, every run.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

__all__ = ["stable_hash64", "stable_hash_bytes", "salt_of", "hash_embedding",
           "shingles", "char_ngrams", "polyhash64_batch", "polyhash64",
           "POLY_M1", "POLY_M2", "POLY_SEED1", "POLY_SEED2"]

# Odd 64-bit multipliers / seeds for the vectorized polynomial hash.
# Two independent (mult, seed) pairs give two independent hashes of one
# value (a 2x64-bit key, or a Bloom filter's two probes).
POLY_M1 = np.uint64(0x100000001B3)          # FNV-1a prime
POLY_SEED1 = np.uint64(0xCBF29CE484222325)  # FNV-1a offset basis
POLY_M2 = np.uint64(0xC6A4A7935BD1E995)     # Murmur64A multiplier
POLY_SEED2 = np.uint64(0x2545F4914F6CDD1D)  # splitmix64 constant
_NULL_HASH_XOR = np.uint64(0x9E3779B97F4A7C15)


def polyhash64_batch(arr, mult: np.uint64 = POLY_M1,
                     seed: np.uint64 = POLY_SEED1) -> np.ndarray:
    """Vectorized 64-bit polynomial hash of an Arrow string/binary array.

    Horner over the utf-8 bytes, mod 2^64 (numpy uint64 wraparound):

        h = seed
        h = h*m + L                # length term: "ab","c" != "a","bc"
        for b in bytes: h = h*m + b

    Expanded form computed with numpy only (no per-row Python):
    ``h = seed*m^(L+1) + L*m^L + sum_i b_i * m^(L-1-i)``.  Null entries
    hash to ``seed ^ _NULL_HASH_XOR`` (distinct from the empty string).
    Deterministic across processes/workers (unlike builtin ``hash``);
    the scalar twin is :func:`polyhash64` (used by tests as the oracle).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not pa.types.is_large_string(arr.type) and not pa.types.is_large_binary(arr.type):
        arr = arr.cast(pa.large_binary() if pa.types.is_binary(arr.type)
                       else pa.large_utf8())
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    # raw variable-length buffers (account for a possible slice offset)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset:arr.offset + n + 1]
    lengths = (offs[1:] - offs[:-1]).astype(np.int64)
    maxlen = int(lengths.max()) if n else 0
    powers = np.empty(maxlen + 2, dtype=np.uint64)
    powers[0] = np.uint64(1)
    np.multiply.accumulate(np.full(maxlen + 1, mult, dtype=np.uint64),
                           out=powers[1:])
    sums = np.zeros(n, dtype=np.uint64)
    nbytes = int(offs[-1] - offs[0])
    if nbytes:
        region = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[
            offs[0]:offs[-1]].astype(np.uint64)
        starts_rel = (offs[:-1] - offs[0])
        ends_rel = starts_rel + lengths
        pos_from_end = (np.repeat(ends_rel, lengths)
                        - np.uint64(1) - np.arange(nbytes, dtype=np.int64))
        weighted = region * powers[pos_from_end]
        ne = lengths > 0
        sums[ne] = np.add.reduceat(weighted, starts_rel[ne])
    h = (seed * powers[lengths + 1]
         + lengths.astype(np.uint64) * powers[lengths] + sums)
    if arr.null_count:
        valid = np.asarray(arr.is_valid())
        h[~valid] = seed ^ _NULL_HASH_XOR
    return h


def polyhash64(s: str, mult: int = int(POLY_M1),
               seed: int = int(POLY_SEED1)) -> int:
    """Scalar twin of :func:`polyhash64_batch` (same value, one row)."""
    mask = (1 << 64) - 1
    b = s.encode("utf-8")
    h = (seed * mult + len(b)) & mask
    for byte in b:
        h = (h * mult + byte) & mask
    return h


def stable_hash64(s: str) -> int:
    """64-bit stable hash of a string."""
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def stable_hash_bytes(b: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "big")


def salt_of(s: str, n_salts: int) -> int:
    """Deterministic salt bucket for skew mitigation (hash(url) % S)."""
    return stable_hash64(s) % n_salts


def hash_embedding(key: str, dim: int = 32) -> np.ndarray:
    """Deterministic pseudo-random unit vector derived from a string key.

    Used for the synthetic entity-embedding table and for context
    embeddings (average of token vectors) — a deterministic stand-in for
    a learned embedding model; the plumbing (broadcast matrix, cosine
    scoring) is the real thing.
    """
    seed = stable_hash64(key) % (2**32)
    v = np.random.default_rng(seed).standard_normal(dim)
    n = np.linalg.norm(v)
    return (v / n if n > 0 else v).astype(np.float32)


def shingles(tokens: list, k: int = 3) -> set:
    """Token k-shingles (for MinHash / Jaccard)."""
    if len(tokens) < k:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}


def char_ngrams(text: str, n: int = 5) -> set:
    if len(text) < n:
        return {text} if text else set()
    return {text[i:i + n] for i in range(len(text) - n + 1)}
