"""Deterministic, language-portable random streams.

The experiments must reproduce byte-identically from a seed alone, across
machines and without depending on any library's generator versioning.  Two
small, fully specified primitives provide that:

* ``SplitMix64`` — the output function is the standard finalizer

      mix(x): x ^= x >> 30; x *= 0xBF58476D1CE4E5B9;
              x ^= x >> 27; x *= 0x94D049BB133111EB;
              x ^= x >> 31

  applied to seed + (i+1) * 0x9E3779B97F4A7C15 (all mod 2^64), so draw i of a
  stream is a pure function of (seed, i) and a stream can be evaluated in
  bulk or out of order.

* ``derive_seed`` — FNV-1a (64-bit, offset 0xCBF29CE484222325, prime
  0x100000001B3) over a type-tagged byte encoding of the arguments:
  strings as 's' + UTF-8 bytes, integers as 'i' + 8-byte little-endian
  two's complement (so only -2^63 <= i < 2^63; any other integer is a
  ValueError), floats as 'f' + IEEE-754 binary64 little-endian; each part
  is preceded by its tag and followed by a 0xFF separator.

Gaussians come from Box-Muller on 53-bit uniforms; complex Gaussians have
independent standard-normal real and imaginary parts.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .matrices import _check_size

__all__ = ["SplitMix64", "derive_seed"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_BLOCK = 1 << 15  # words per block of a draw's evaluation, so its temporaries stay in cache

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _box_muller(u):
    """Box-Muller on uniforms u[..., 0, :] (radii) and u[..., 1, :] (angles).

    Returns the cosine normals followed by the sine normals along the last
    axis.  The transcendental functions get contiguous operands, so numpy
    picks the same loop, and the same bits, whatever the leading shape.
    """
    r = np.sqrt(-2.0 * np.log(np.ascontiguousarray(u[..., 0, :])))
    theta = 2.0 * np.pi * np.ascontiguousarray(u[..., 1, :])
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def derive_seed(*parts):
    """Hash a tuple of strings/ints/floats into a 64-bit stream seed."""
    h = _FNV_OFFSET
    for part in parts:
        if isinstance(part, str):
            blob = b"s" + part.encode("utf-8")
        elif isinstance(part, (int, np.integer)) and not isinstance(part, bool):
            try:
                blob = b"i" + int(part).to_bytes(8, "little", signed=True)
            except OverflowError:
                raise ValueError(f"seed part {part} lies outside the 64-bit range [-2^63, 2^63)") from None
        elif isinstance(part, float):
            blob = b"f" + struct.pack("<d", part)
        else:
            raise TypeError(f"cannot derive a seed from {type(part).__name__}")
        for byte in blob + b"\xff":
            h ^= byte
            h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class SplitMix64:
    """Counter-based SplitMix64 stream over a 64-bit seed."""

    def __init__(self, seed):
        self._seed = np.uint64(_check_size(seed, "seed", least=None) & 0xFFFFFFFFFFFFFFFF)
        self._next = 0

    def _raw(self, count):
        count = _check_size(count, "count", least=0)
        words = np.arange(self._next + 1, self._next + count + 1, dtype=np.uint64)
        self._next += count
        with np.errstate(over="ignore"):
            for lo in range(0, len(words), _BLOCK):
                x = words[lo:lo + _BLOCK]  # a view: seed + i * gamma, then mix(x), in place
                x *= _GAMMA
                x += self._seed
                x ^= x >> np.uint64(30)
                x *= _MIX1
                x ^= x >> np.uint64(27)
                x *= _MIX2
                x ^= x >> np.uint64(31)
        return words

    def uniform(self, count):
        """count uniforms in (0, 1], using the top 53 bits of each word."""
        return (
            (self._raw(count) >> np.uint64(11)).astype(np.float64) + 1.0
        ) * 2.0**-53

    def normal(self, count):
        """count standard normals via Box-Muller (pairs; odd tail dropped)."""
        count = _check_size(count, "count", least=0)
        return _box_muller(self.uniform(2 * ((count + 1) // 2)).reshape(2, -1))[:count]

    def complex_normal(self, shape):
        """Array of complex Gaussians: independent N(0,1) real/imag parts."""
        shape = tuple(_check_size(d, "shape", least=0) for d in ((shape,) if np.ndim(shape) == 0 else shape))
        return self.complex_normal_rows(1, math.prod(shape))[0].reshape(shape)

    def complex_normal_rows(self, count, size):
        """count x size array whose row i is the i-th of count consecutive complex_normal(size) calls.

        Each row takes the real part's normal(size) words, then the imaginary
        part's.  The stream is counter-based, so one bulk evaluation leaves
        the counter where count separate evaluations would.
        """
        count, size = _check_size(count, "count", least=0), _check_size(size, "size", least=0)
        half = (size + 1) // 2
        parts = _box_muller(self.uniform(count * 4 * half).reshape(count, 2, 2, half))[..., :size]
        return parts[:, 0] + 1j * parts[:, 1]

    def complex_matrix(self, rows, cols):
        return self.complex_normal((rows, cols))

    def integers(self, count, upper):
        """count integers uniform on 0..upper-1 (rejection-free modular map)."""
        upper = np.uint64(_check_size(upper, "upper"))
        return (self._raw(count) % upper).astype(np.int64)
