"""Normal-theory numerics shared by the simulation and testing code.

Everything in here is deterministic: fixed-node Gauss quadrature rules for
the multivariate normal probabilities, a pivot-clamping Cholesky for the
(possibly singular) correlation matrices the score model produces, and a
counter-based random stream constructor that gives every simulated trial
replication its own reproducible generator (and a re-keying helper with which
the engine walks one generator through a chunk's replications).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "bvn_cdf",
    "equicorr_max_cdf",
    "cholesky_psd",
    "NotPositiveSemidefiniteError",
    "equicorrelated_matrix",
    "replication_stream",
]

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


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def bvn_cdf(z1, z2, rho):
    """Bivariate standard normal CDF P(Z1 <= z1, Z2 <= z2) with correlation rho.

    Computed by reducing to a one-dimensional conditioning integral
    ``int phi(u) Phi((z2 - rho*u)/sqrt(1-rho^2)) du`` over ``u <= z1`` and
    applying a fixed Gauss-Legendre rule. Absolute error is below 1e-10 for
    |rho| <= 0.999; the degenerate cases |rho| = 1 use closed forms.

    Args:
        z1, z2: upper limits; broadcastable scalars or arrays.
        rho: correlation broadcastable with (z1, z2). A scalar may take any
            value in [-1, 1]; array entries must lie in (-1, 1).

    Returns:
        Probability with the broadcast shape of (z1, z2, rho); python float
        for scalar input.
    """
    fixed = np.ndim(rho) == 0
    if fixed and not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if not fixed and not np.all(np.abs(rho) < 1.0):
        raise ValueError("per-element correlations must lie in (-1, 1)")
    scalar = fixed and np.ndim(z1) == 0 and np.ndim(z2) == 0
    a = np.asarray(z1, dtype=float)
    b = np.asarray(z2, dtype=float)
    a, b, r = np.broadcast_arrays(a, b, np.asarray(rho, dtype=float))

    if fixed and rho == 1.0:
        out = ndtr(np.minimum(a, b))
    elif fixed and rho == -1.0:
        out = np.maximum(ndtr(a) + ndtr(b) - 1.0, 0.0)
    elif fixed and rho == 0.0:
        out = ndtr(a) * ndtr(b)
    else:
        hi = np.clip(a, -_BVN_CLIP, _BVN_CLIP)
        half = 0.5 * (hi - _BVN_LO)
        mid = 0.5 * (hi + _BVN_LO)
        u = mid[..., None] + half[..., None] * _GL_NODES
        r = r[..., None]
        s = np.sqrt(1.0 - r * r)
        integrand = _phi(u) * ndtr((b[..., None] - r * u) / s) * _GL_WEIGHTS
        out = half * integrand.sum(axis=-1)  # a row's sum never depends on its batch
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
    if r == 0.0:
        out = ndtr(zz) ** m
    else:
        arg = (zz[..., None] - np.sqrt(2.0 * r) * _GH_NODES) / np.sqrt(1.0 - r)
        out = (ndtr(arg) ** int(m) * _GH_WEIGHTS).sum(axis=-1) * _INV_SQRT_PI
        out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix fails the Cholesky PSD check.

    Attributes:
        pivot_index: zero-based index of the first offending pivot.
        pivot_value: the value of that pivot.
    """

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive semidefinite: pivot index {pivot_index} "
            f"has value {pivot_value:.6g}"
        )


_PIVOT_TOL = 1e-10


def cholesky_psd(matrix) -> np.ndarray:
    """Lower-triangular Cholesky factor tolerating semidefinite input.

    Pivots within ``_PIVOT_TOL`` = 1e-10 of zero (including tiny negatives from floating
    point noise) are clamped to zero so exactly singular correlation matrices
    -- e.g. perfectly correlated endpoints -- factor cleanly.

    Args:
        matrix: symmetric positive semidefinite matrix.

    Returns:
        Lower-triangular L with ``L @ L.T`` reproducing the input.

    Raises:
        NotPositiveSemidefiniteError: naming the first pivot that is negative
            beyond tolerance (or a zero pivot with non-zero residual column).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("cholesky_psd expects a square matrix")
    if not np.allclose(a, a.T, atol=1e-8):
        raise ValueError("cholesky_psd expects a symmetric matrix")
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if d < -_PIVOT_TOL:
            raise NotPositiveSemidefiniteError(j, float(d))
        if d <= _PIVOT_TOL:
            # Semidefinite direction: pivot clamps to zero and the rest of the
            # column must vanish too, otherwise the matrix is indefinite.
            resid = a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]
            if resid.size and np.max(np.abs(resid)) > 1e-6:
                raise NotPositiveSemidefiniteError(j, float(d))
            continue
        L[j, j] = np.sqrt(d)
        L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def equicorrelated_matrix(dim: int, r: float) -> np.ndarray:
    """Exchangeable correlation matrix with off-diagonal value r."""
    m = np.full((dim, dim), float(r))
    np.fill_diagonal(m, 1.0)
    return m


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
