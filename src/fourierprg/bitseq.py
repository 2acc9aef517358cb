"""Seed handling.

A seed is an r-bit string. Bit 0 is the most significant: the int value
of a seed of length r is its r-bit big-endian reading. Its text form, the
one `gen --seed` reads, is that int in plain big-endian hex, so seed 5 of
a 12-bit generator is "5" (or "005").

Inside the package a batch of N seeds is always an (N, r) uint8 matrix of
0/1 entries in that order, a bit matrix. `as_bits` is the one entry
point: it turns an int, a list or 1-D array of ints (int64 or python
ints) or a bit matrix into one. A plan node hands each child its own
column slice of the matrix, `bit_fields` reads consecutive fixed-width
fields of a matrix as int64 in one pass, and `to_ints` reads whole rows
back as python ints for the few callers that need big-int arithmetic.
"""

from __future__ import annotations

import numpy as np


def check_seed(seed: int, nbits: int) -> None:
    if seed < 0 or seed >> nbits:
        raise ValueError(f"seed does not fit in {nbits} bits")


def as_bits(seeds, nbits: int) -> np.ndarray:
    """(N, nbits) uint8 bit matrix of a seed batch, bit 0 the most
    significant.

    A 2-D array is taken to be a bit matrix already and is returned as it
    is; it must have nbits columns. An int, or a list or 1-D array of
    ints, gives one row per int, read from its low nbits bits.
    """
    if isinstance(seeds, np.ndarray) and seeds.ndim == 2:
        if seeds.shape[1] != nbits:
            raise ValueError(f"bit matrix has {seeds.shape[1]} columns, "
                             f"expected {nbits}")
        return seeds
    if not isinstance(seeds, np.ndarray):
        # python ints stay exact; np.asarray could pick float64 or uint64
        seeds = np.asarray(seeds, dtype=object)
    if seeds.dtype.kind not in "iuO":
        raise TypeError(f"seeds must be ints, not {seeds.dtype}")
    seeds = seeds.reshape(-1)
    nbytes = (nbits + 7) // 8
    if seeds.dtype != object and nbits <= 64:
        raw = seeds.astype(">u8").view(np.uint8).reshape(len(seeds), 8)
        raw = raw[:, 8 - nbytes:]
    else:
        mask = (1 << nbits) - 1
        data = b"".join([(int(s) & mask).to_bytes(nbytes, "big")
                         for s in seeds])
        raw = np.frombuffer(data, dtype=np.uint8).reshape(len(seeds), nbytes)
    return np.unpackbits(raw, axis=1)[:, 8 * nbytes - nbits:]


def to_ints(bits: np.ndarray) -> np.ndarray:
    """Object array holding each row of a bit matrix as a python int."""
    packed = np.packbits(bits, axis=1)
    drop = 8 * packed.shape[1] - bits.shape[1]
    out = np.empty(len(bits), dtype=object)
    out[:] = [int.from_bytes(row.tobytes(), "big") >> drop for row in packed]
    return out


def bit_fields(bits: np.ndarray, width: int) -> np.ndarray:
    """(N, k) int64 values of the k = ncols // width consecutive
    width-bit fields of each row of a bit matrix, MSB first."""
    if not 1 <= width <= 63:
        raise ValueError("field width must be in [1, 63]")
    n, k = len(bits), bits.shape[1] // width
    carrier = next(c for c in (8, 16, 32, 64) if c >= width)
    padded = np.zeros((n, k, carrier), dtype=np.uint8)
    padded[:, :, carrier - width:] = bits[:, :k * width].reshape(n, k, width)
    # every row packs to whole bytes, so one flat pass packs them all
    packed = np.packbits(padded.reshape(-1))
    return packed.view(f">u{carrier // 8}").reshape(n, k).astype(np.int64)
