"""Seed handling.

Seeds are conceptually bit strings. Internally they are held as
non-negative ints together with an explicit length; bit 0 is the MSB of
byte 0 of the serialized form (big-endian bit order), so the int value of
a seed of length r is simply the r-bit big-endian reading of its bytes.

A batch of seeds is carried as an int64 array when the seeds fit in 62
bits and as an object array of python ints above that. `bit_matrix`
turns either carrier into one (N, r) uint8 matrix of seed bits in the
same MSB-first order, and `bit_fields` reads consecutive fixed-width
fields of such a matrix back as int64, so splitting a batch of seeds
into fields costs a single pass instead of a shift and mask per field.
"""

from __future__ import annotations

import numpy as np


def bit_slice(seed: int, nbits: int, start: int, stop: int) -> int:
    """Bits [start, stop) of an nbits-long seed, as an int."""
    if not (0 <= start <= stop <= nbits):
        raise ValueError(f"slice [{start},{stop}) out of range for {nbits} bits")
    return (seed >> (nbits - stop)) & ((1 << (stop - start)) - 1)


def seed_to_bytes(seed: int, nbits: int) -> bytes:
    nbytes = (nbits + 7) // 8
    # pad on the right: bit 0 is the MSB of byte 0
    return (seed << (nbytes * 8 - nbits)).to_bytes(nbytes, "big")


def seed_from_bytes(data: bytes, nbits: int) -> int:
    nbytes = (nbits + 7) // 8
    if len(data) != nbytes:
        raise ValueError(f"expected {nbytes} bytes for {nbits} bits, got {len(data)}")
    return int.from_bytes(data, "big") >> (nbytes * 8 - nbits)


def seed_to_hex(seed: int, nbits: int) -> str:
    return seed_to_bytes(seed, nbits).hex()


def seed_from_hex(text: str, nbits: int) -> int:
    return seed_from_bytes(bytes.fromhex(text), nbits)


def check_seed(seed: int, nbits: int) -> None:
    if seed < 0 or seed >> nbits:
        raise ValueError(f"seed does not fit in {nbits} bits")


def bit_matrix(seeds, nbits: int) -> np.ndarray:
    """(N, nbits) uint8 matrix of the low nbits bits of each seed, bit 0
    the most significant. Higher bits of a wider seed are ignored."""
    seeds = np.asarray(seeds)
    if seeds.dtype != object and nbits <= 64:
        raw = seeds.astype(">u8").view(np.uint8).reshape(len(seeds), 8)
    else:
        nbytes = (nbits + 7) // 8
        mask = (1 << nbits) - 1
        data = b"".join([(int(s) & mask).to_bytes(nbytes, "big")
                         for s in seeds])
        raw = np.frombuffer(data, dtype=np.uint8).reshape(len(seeds), nbytes)
    return np.unpackbits(raw, axis=1)[:, 8 * raw.shape[1] - nbits:]


def bit_fields(bits: np.ndarray, width: int) -> np.ndarray:
    """(N, k) int64 values of the k = ncols // width consecutive
    width-bit fields of each row of a bit matrix, MSB first."""
    if not 1 <= width <= 63:
        raise ValueError("field width must be in [1, 63]")
    n, k = len(bits), bits.shape[1] // width
    carrier = next(c for c in (8, 16, 32, 64) if c >= width)
    padded = np.zeros((n, k, carrier), dtype=np.uint8)
    padded[:, :, carrier - width:] = bits[:, :k * width].reshape(n, k, width)
    packed = np.packbits(padded.reshape(n, k * carrier), axis=1)
    return packed.view(f">u{carrier // 8}").astype(np.int64)
