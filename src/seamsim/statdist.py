"""Normal-theory numerics shared by the simulation and testing code.

Everything in here is deterministic: Owen's closed forms and a fixed-node
Gauss-Hermite rule for the normal probabilities, and the random streams: each
replication's own counter-based Philox stream, a vectorised Philox4x64-10 that
computes the raw words of many replications at once, and three recipes that
turn words into normals, random-1 picks and binomial counts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat

import numpy as np
from scipy.special import bdtr, ndtr, ndtri, owens_t

__all__ = ["bvn_cdf", "bvn_max_sf", "equicorr_max_cdf", "replication_stream"]

_MASK64 = (1 << 64) - 1

# Gauss-Hermite rule for integrals against exp(-x^2); 192 nodes keeps the
# equicorrelated-maximum CDF below 1e-9 absolute error for correlations up to
# 0.8 (validated against composite Simpson in the test suite), which covers
# the designs' 1/2.
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(192)
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)

# The quadrature runs over the points in slices of 256, 384 KB per points x nodes array of Phi
# or a running power of it; a point's sums never depend on its batch or the other m asked for.
_SLICE_POINTS = 256


def bvn_max_sf(c, rho):
    """P(max(Z1, Z2) > c) for two standard normals with correlation rho in (-1, 1).

    Owen's (1956) closed form Phi(-c) + 2 T(c, sqrt((1 - rho)/(1 + rho))), with T
    scipy's ``owens_t`` (Patefield and Tandy 2000); c and rho broadcast. Both
    terms are positive, so the tail keeps a relative error near 1e-14 however small.
    """
    return ndtr(-c) + 2.0 * owens_t(c, np.sqrt((1.0 - rho) / (1.0 + rho)))


def _owen_half(h, k, r, s):
    """Phi(h)/2 - T(h, (k - r h)/(h s)), the T argument at h = 0 being its limit sign(k)*inf."""
    x = k - r * h
    zero = h == 0
    a = np.where(zero, np.copysign(np.inf, x), x / np.where(zero, 1.0, h * s))
    return 0.5 * ndtr(h) - owens_t(h, a)


def bvn_cdf(z1, z2, rho):
    """Bivariate standard normal CDF P(Z1 <= z1, Z2 <= z2) with correlation rho.

    Owen's (1956) identity Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - delta,
    with a_h = (k - rho h)/(h sqrt(1 - rho^2)), a_k likewise and delta = 1/2
    when exactly one limit is negative (else 0); at h = k = 0 it is
    1/4 + asin(rho)/(2 pi). Absolute error is below 1e-14 for |rho| <= 0.999.

    Args:
        z1, z2: upper limits h, k; broadcastable scalars or arrays, +-inf allowed.
        rho: correlation in (-1, 1), a scalar or an array broadcastable with
            (z1, z2).

    Returns:
        Probability with the broadcast shape of (z1, z2, rho); python float
        for scalar input.
    """
    if not np.all(np.abs(rho) < 1.0):
        raise ValueError("correlation must lie in (-1, 1)")
    scalar = np.ndim(z1) == 0 and np.ndim(z2) == 0 and np.ndim(rho) == 0
    # limits past +-40 change nothing (Phi is 0 or 1, T is 0) and keep inf out of T
    h, k = (np.clip(np.asarray(v, dtype=float), -40.0, 40.0) for v in (z1, z2))
    h, k, r = np.broadcast_arrays(h, k, np.asarray(rho, dtype=float))
    s = np.sqrt(1.0 - r * r)
    out = _owen_half(h, k, r, s) + _owen_half(k, h, r, s) - 0.5 * ((h < 0) != (k < 0))
    out = np.where((h == 0) & (k == 0), 0.25 + np.arcsin(r) / (2.0 * np.pi), out)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


def equicorr_max_cdf(m, r, z):
    """CDF of the maximum of m equicorrelated standard normals, for one m or many.

    Evaluates ``P(max_i Z_i <= z)`` for ``Z`` multivariate normal with unit
    variances and common correlation ``r`` using the one-factor representation
    ``Z_i = sqrt(r) U + sqrt(1-r) E_i`` and a 192-node Gauss-Hermite rule,

        P = E_U[ Phi((z - sqrt(r) U) / sqrt(1-r))^m ].

    Phi is evaluated once per point and node for all m, its powers as a running product
    (Phi^3 = Phi^2 * Phi): for m <= 8 the CDF is within 1.5 eps (3.3e-16) of that of
    ``Phi ** m`` at r = 1/2, 2.5 eps at r = 0, and equal to it for m <= 2.

    Args:
        m: number of coordinates (positive integer), or a sequence of them.
        r: common correlation in [0, 1).
        z: threshold; scalar or array (vectorised over z).

    Returns:
        Probability in [0, 1] of shape m.shape + z.shape (a float for scalar m
        and z), with absolute error below 1e-9 for r <= 0.8. Beyond that the
        fixed rule loses digits: against mpmath for m in {2, 4, 8} and z in
        {-1, 0, 1, 2, 3} the worst error is 6e-9 at r = 0.85, 9e-7 at 0.9,
        5e-5 at 0.95 and 4e-3 at 0.99.
    """
    ms = np.asarray(m, dtype=float)
    if ms.size == 0 or not np.all(np.isfinite(ms) & (ms >= 1) & (ms == np.floor(ms))):
        raise ValueError("m must be a positive integer or a non-empty sequence of them")
    if not 0.0 <= r < 1.0:
        raise ValueError("common correlation must lie in [0, 1)")
    zz = np.asarray(z, dtype=float)
    x, powers = zz.ravel(), ms.ravel()
    out = np.empty((powers.size, x.size))
    for lo in range(0, x.size, _SLICE_POINTS):
        sl = slice(lo, lo + _SLICE_POINTS)
        cdf = ndtr((x[sl, None] - np.sqrt(2.0 * r) * _GH_NODES) / np.sqrt(1.0 - r))
        for p, power in enumerate(accumulate(repeat(cdf, int(powers.max())), np.multiply), 1):
            if p in powers:  # power = Phi^p, as Phi^(p - 1) * Phi
                out[powers == p, sl] = (power * _GH_WEIGHTS).sum(axis=-1) * _INV_SQRT_PI
        del cdf, power  # before the next slice's, so that at most three 384 KB arrays are live
    out = np.clip(out, 0.0, 1.0, out=out).reshape(ms.shape + zz.shape)
    return float(out) if out.ndim == 0 else out


def replication_stream(master_seed: int, replication_index: int) -> np.random.Generator:
    """Independent random generator for one simulation replication.

    Streams are produced by keying a counter-based Philox generator with the
    pair ``(master_seed, replication_index)``, so the draws consumed by a
    replication depend only on that pair -- never on execution order, chunking
    or worker count. A replication's draws read its raw words by the recipes below.

    Args:
        master_seed: scenario-level seed (any python int; taken mod 2**64).
        replication_index: zero-based replication number.

    Returns:
        numpy Generator backed by Philox.
    """
    if replication_index < 0:
        raise ValueError("replication_index must be non-negative")
    key = np.array([int(master_seed) & _MASK64, int(replication_index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _read_only(array):
    array.flags.writeable = False
    return array


# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = 0xFFFFFFFF


def _mulhilo(a, m: int):
    """High and low 64-bit halves of the uint64 array ``a`` times ``m``, in 32-bit limbs."""
    a_lo, a_hi = a & _LO32, a >> 32
    mid = a_hi * (m & _LO32) + ((a_lo * (m & _LO32)) >> 32)
    cross = a_lo * (m >> 32) + (mid & _LO32)
    return a_hi * (m >> 32) + (mid >> 32) + (cross >> 32), a * m


def _philox_words(master_seed: int, replications, base, blocks: int) -> np.ndarray:
    """Words 4 * base .. 4 * (base + blocks) - 1 of each replication's raw stream, (rows, 4 * blocks).

    Block b is Philox4x64-10 of the counter (b + 1, 0, 0, 0) under the key (master_seed, r),
    as in ``replication_stream``; ``base`` is one block index or one per replication. uint64
    arrays wrap silently; the key's scalar half is a python int (a numpy scalar warns).
    """
    key1 = np.asarray(replications, dtype=np.uint64).reshape(-1, 1)
    c0 = np.asarray(base, dtype=np.uint64).reshape(-1, 1) + np.arange(1, blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    key0 = int(master_seed) & _MASK64
    for _ in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
        key0, key1 = (key0 + _PHILOX_W[0]) & _MASK64, key1 + _PHILOX_W[1]
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(key1.shape[0], 4 * blocks)


def _uniforms(words):
    """((w >> 12) + 0.5) * 2**-52: 52-bit uniforms strictly inside (0, 1), also at the top word."""
    return ((words >> 12) + 0.5) * 2.0**-52


def _normals(words):
    """Standard normals from raw words, by inversion: finite, within +-8.2095."""
    return ndtri(_uniforms(words))


def _picks(words, k: int):
    """Arms 0 .. k - 1 from raw words: ((w >> 11) * k) >> 53."""
    return ((words >> 11) * k) >> 53


@lru_cache(maxsize=64)
def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """P(X <= c) for c = 0 .. n of a Binomial(n, p) count (shared, read-only)."""
    return _read_only(bdtr(np.arange(n + 1), n, p))  # ends at 1: every uniform finds a count


def _binomial_counts(words, n: int, p: float):
    """Binomial(n, p) counts from raw words, by inverting the CDF at their uniforms."""
    return np.searchsorted(_binomial_cdf(n, p), _uniforms(words))
