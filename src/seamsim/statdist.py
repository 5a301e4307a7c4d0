"""Normal-theory numerics shared by the simulation and testing code.

Everything in here is deterministic: fixed-node Gauss quadrature rules for
the multivariate normal probabilities and a counter-based random stream
constructor that gives every simulated trial replication its own reproducible
generator (and a re-keying helper with which the engine walks one generator
through a chunk's replications).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["bvn_cdf", "equicorr_max_cdf", "replication_stream"]

_MASK64 = (1 << 64) - 1

# Gauss-Hermite rule for integrals against exp(-x^2); 192 nodes keeps the
# equicorrelated-maximum CDF below 1e-9 absolute error for correlations up to
# 0.8 (validated against composite Simpson in the test suite), which covers
# the designs' 1/2.
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(192)
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)

# Gauss-Legendre rule used for the one-dimensional reduction of the bivariate
# normal CDF. 512 nodes on the truncated conditioning range holds absolute
# error near 1e-12 for |rho| <= 0.999.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(512)

# Integration limits: the standard normal density below -9.75 carries mass
# ~1e-22, far below the 1e-10 tolerance of bvn_cdf.
_BVN_LO = -9.75
_BVN_CLIP = 9.5

# Quadratures run over the points in slices of 256: 1 MB per points x nodes
# temporary, and a point's sum never depends on its batch, so values match.
_SLICE_POINTS = 256


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def bvn_cdf(z1, z2, rho):
    """Bivariate standard normal CDF P(Z1 <= z1, Z2 <= z2) with correlation rho.

    Computed by reducing to a one-dimensional conditioning integral
    ``int phi(u) Phi((z2 - rho*u)/sqrt(1-rho^2)) du`` over ``u <= z1`` and
    applying a fixed Gauss-Legendre rule. Absolute error is below 1e-10 for
    |rho| <= 0.999.

    Args:
        z1, z2: upper limits; broadcastable scalars or arrays.
        rho: correlation in (-1, 1), a scalar or an array broadcastable with
            (z1, z2).

    Returns:
        Probability with the broadcast shape of (z1, z2, rho); python float
        for scalar input.
    """
    if not np.all(np.abs(rho) < 1.0):
        raise ValueError("correlation must lie in (-1, 1)")
    scalar = np.ndim(z1) == 0 and np.ndim(z2) == 0 and np.ndim(rho) == 0
    a, b, r = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (z1, z2, rho)))
    out = np.empty(a.shape)
    a, b, r, flat = a.ravel(), b.ravel(), r.ravel(), out.reshape(-1)
    for lo in range(0, a.size, _SLICE_POINTS):
        sl = slice(lo, lo + _SLICE_POINTS)
        hi = np.clip(a[sl], -_BVN_CLIP, _BVN_CLIP)
        half = 0.5 * (hi - _BVN_LO)
        u = (0.5 * (hi + _BVN_LO))[:, None] + half[:, None] * _GL_NODES
        rs = r[sl, None]
        integrand = _phi(u) * ndtr((b[sl, None] - rs * u) / np.sqrt(1.0 - rs * rs)) * _GL_WEIGHTS
        flat[sl] = half * integrand.sum(axis=-1)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


def equicorr_max_cdf(m, r, z):
    """CDF of the maximum of m equicorrelated standard normals.

    Evaluates ``P(max_i Z_i <= z)`` for ``Z`` multivariate normal with unit
    variances and common correlation ``r`` using the one-factor representation
    ``Z_i = sqrt(r) U + sqrt(1-r) E_i`` and a 192-node Gauss-Hermite rule,

        P = E_U[ Phi((z - sqrt(r) U) / sqrt(1-r))^m ].

    Args:
        m: number of coordinates (positive integer).
        r: common correlation in [0, 1).
        z: threshold; scalar or array (vectorised over z).

    Returns:
        Probability in [0, 1], with absolute error below 1e-9 for r <= 0.8.
        Beyond that the fixed rule loses digits: against mpmath for m in
        {2, 4, 8} and z in {-1, 0, 1, 2, 3} the worst error is 6e-9 at
        r = 0.85, 9e-7 at 0.9, 5e-5 at 0.95 and 4e-3 at 0.99.
    """
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")
    if not 0.0 <= r < 1.0:
        raise ValueError("common correlation must lie in [0, 1)")
    scalar = np.ndim(z) == 0
    zz = np.asarray(z, dtype=float)
    x = zz.ravel()
    out = np.empty(x.size)
    for lo in range(0, x.size, _SLICE_POINTS):
        sl = slice(lo, lo + _SLICE_POINTS)
        arg = (x[sl, None] - np.sqrt(2.0 * r) * _GH_NODES) / np.sqrt(1.0 - r)
        out[sl] = (ndtr(arg) ** int(m) * _GH_WEIGHTS).sum(axis=-1) * _INV_SQRT_PI
    out = np.clip(out.reshape(zz.shape), 0.0, 1.0)
    return float(out) if scalar else out


def _replication_key(master_seed: int, replication_index: int) -> list:
    """Philox key of one replication's stream: ``(master_seed, replication_index)`` mod 2**64."""
    if replication_index < 0:
        raise ValueError("replication_index must be non-negative")
    return [int(master_seed) & _MASK64, int(replication_index) & _MASK64]


def replication_stream(master_seed: int, replication_index: int) -> np.random.Generator:
    """Independent random generator for one simulation replication.

    Streams are produced by keying a counter-based Philox generator with the
    pair ``(master_seed, replication_index)``, so the draws consumed by a
    replication depend only on that pair -- never on execution order, chunking
    or worker count.

    Args:
        master_seed: scenario-level seed (any python int; taken mod 2**64).
        replication_index: zero-based replication number.

    Returns:
        numpy Generator backed by Philox.
    """
    key = np.array(_replication_key(master_seed, replication_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(stream: np.random.Generator, master_seed: int, replication_index: int) -> None:
    """Reset a Philox-backed generator to the start of another replication's stream.

    Afterwards ``stream`` draws exactly what
    ``replication_stream(master_seed, replication_index)`` would: counter zero,
    output buffer empty and no buffered 32-bit half-word, which is the state
    ``Philox(key=...)`` starts in. (The generator's only other state, the
    binomial sampler's setup constants, is a pure function of (n, p).) One
    generator re-keyed per replication costs a fraction of constructing one.
    """
    stream.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": [0, 0, 0, 0],
            "key": _replication_key(master_seed, replication_index),
        },
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
