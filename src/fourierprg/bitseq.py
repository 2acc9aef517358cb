"""Seed handling.

A seed is an r-bit string. Bit 0 is the most significant: the int value
of a seed of length r is its r-bit big-endian reading. Its text form, the
one `gen --seed` reads, is that int in plain big-endian hex, so seed 5 of
a 12-bit generator is "5" (or "005").

Inside the package a batch of N seeds is always an (N, r) uint8 matrix of
0/1 entries in that order, a bit matrix. `as_bits` is the one entry
point: it turns an int, a list or 1-D array of ints (int64 or python
ints) or a bit matrix into one. A plan node hands each child its own
column slice of the matrix, and `to_ints` reads whole rows back as
python ints. `read_fields` is the one reader of fixed-width fields: the
INW base case cuts its symbols with it, G1 all its buckets' coefficients
of mixed widths in one call, and `bit_fields` its seeds.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=1024)
def _schedule(widths: tuple, D: int):
    """read_fields' (dtype, block, up, down) for consecutive fields of the
    given widths, each <= 64 bits, out of D-bit blocks, cast and shaped for
    a (B, N) batch; read-only, since every caller shares them."""
    width = max(widths, default=1)
    dtype = next(d for d in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if max(D, width) <= np.iinfo(d).bits)
    bits = np.iinfo(dtype).bits
    widths = np.array(widths, dtype=np.int64)
    start = np.cumsum(widths) - widths
    first = start // D
    npieces = ((start + widths - 1) // D - first).max(initial=0) + 1
    block = first + np.arange(npieces)[:, None]
    block = np.where(block * D < start + widths, block, first)
    lo = np.maximum(start, block * D)  # the piece's first stream bit
    up = (bits - D + lo - block * D).astype(dtype)[..., None]
    down = (bits - widths - start + lo).astype(dtype)[..., None]
    for a in (block, up, down):
        a.flags.writeable = False
    return dtype, block, up, down


def read_fields(blocks: np.ndarray, D: int, width, count: int | None = None
                ) -> np.ndarray:
    """(count, N) array of the first count width-bit fields, MSB first, of
    N streams held coordinate-major: column i of the (B, N) array blocks
    holds stream i as B blocks of D bits. With width a tuple and no count,
    the fields are consecutive ones of those widths, one row each.

    When every field has at most 64 bits, field j comes back in the least
    unsigned dtype that holds a block and the widest field, as the OR over
    the <= ceil(width_j/D) + 1 blocks it overlaps of (blocks[block[k, j]]
    << up[k, j]) >> down[k, j]: the left shift drops the bits before the
    piece, the right shift moves it into place and drops the bits after
    the field; a field with fewer pieces repeats its first. Otherwise all
    fields come back as python ints, each stream read whole with `to_ints`
    and cut by shift and mask."""
    nstreams = blocks.shape[1]
    if count is None:
        widths, widest = width, max(width, default=0)
    else:  # a read of no fields still keeps its width's dtype
        widths, widest = (width,) * count, width
    if widest > 64:
        stop = len(blocks) * D
        shifts = np.arange(D, dtype=blocks.dtype)[::-1]
        rows = to_ints((blocks.T[:, :, None] >> shifts & 1).reshape(-1, stop))
        out = np.empty((len(widths), nstreams), dtype=object)
        for j, (w, end) in enumerate(zip(widths, np.cumsum(widths))):
            mask, shift = (1 << int(w)) - 1, stop - int(end)
            out[j] = [(v >> shift) & mask for v in rows]
        return out
    dtype, block, up, down = _schedule(widths, D)
    # int64 indices and mode="clip" keep take off its checked path
    pieces = np.ascontiguousarray(blocks, dtype=dtype).take(block, axis=0,
                                                            mode="clip")
    pieces <<= up
    pieces >>= down
    return np.bitwise_or.reduce(pieces, axis=0)


def bit_fields(bits: np.ndarray, width: int) -> np.ndarray:
    """(k, N) values of the k = ncols // width consecutive width-bit
    fields of each of the N rows of a bit matrix, MSB first: int64 up to
    63 bits, uint64 at 64 and python ints above, as GF(2^t) products."""
    n, ncols = bits.shape
    if ncols % 8:  # one flat packbits of padded rows beats axis=1
        padded = np.zeros((n, ncols - ncols % 8 + 8), dtype=np.uint8)
        padded[:, :ncols] = bits
        bits = padded
    packed = np.packbits(np.ascontiguousarray(bits).reshape(-1))
    packed = packed.reshape(n, bits.shape[1] // 8).T
    fields = read_fields(packed, 8, width, ncols // width)
    return fields if width >= 64 else fields.astype(np.int64)
