"""Checks for the shared normal-theory numerics.

Reference values were computed independently of the implementation: the
bivariate and equicorrelated-maximum probabilities with 10^7-sample Monte
Carlo draws, frozen together with their standard errors.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import bdtr, chdtrc, ndtr

from seamsim._reference import replication_stream
from seamsim.engine import _GRID, MAX_REPLICATIONS
from seamsim.simmodel import ARM_CORRELATION
from seamsim.statdist import (
    _GH_NODES,
    _GH_WEIGHTS,
    _INV_SQRT_PI,
    _binomial_cdf,
    _binomial_counts,
    _normals,
    _philox_words,
    _picks,
    _uniforms,
    bvn_cdf,
    bvn_max_sf,
    equicorr_max_cdf,
)

# 10^7-sample Monte Carlo freezes (value, standard error)
BVN_MC = (0.7453841, 1.38e-4)        # P(Z1 <= 1, Z2 <= 1), rho = 0.5
EQUICORR_MC = (0.9585697, 6.3e-5)    # P(max of 2 equicorrelated(0.5) <= 2)


def _simpson(f, lo, hi, n=4000):
    """Plain composite Simpson rule, used as an independent quadrature."""
    x = np.linspace(lo, hi, 2 * n + 1)
    y = f(x)
    h = (hi - lo) / (2 * n)
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


def test_bvn_cdf_frozen_monte_carlo():
    value, se = BVN_MC
    assert abs(bvn_cdf(1.0, 1.0, 0.5) - value) < 3 * se


def test_bvn_cdf_against_simpson():
    # integrate P(Z2 <= b | Z1 = u) phi(u) du with an independent rule
    cases = [(1.0, 1.0, 0.5), (-0.3, 0.8, 0.2), (0.0, 0.0, 0.9), (2.0, -1.0, 0.7)]
    for a, b, rho in cases:
        s = math.sqrt(1 - rho * rho)

        def integrand(u):
            return np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi) * ndtr((b - rho * u) / s)

        expected = _simpson(integrand, -9.0, a)
        assert bvn_cdf(a, b, rho) == pytest.approx(expected, abs=1e-9)


def _mp_bvn_cdf(h, k, rho):
    """Bivariate normal CDF by Plackett's identity, integrated over the correlation in mpmath:

        Phi2(h, k; rho) = Phi(h) Phi(k) + int_0^rho exp(-(h^2 - 2rhk + k^2) / (2(1 - r^2)))
                                                  / (2 pi sqrt(1 - r^2)) dr.
    """
    with mpmath.workdps(30):
        h, k, rho = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)

        def density(r):
            q = 1 - r * r
            return mpmath.exp(-(h * h - 2 * r * h * k + k * k) / (2 * q)) / (2 * mpmath.pi * mpmath.sqrt(q))

        # the density steepens as |r| nears 1, so split the range towards rho
        knots = [rho * f for f in (0, mpmath.mpf("0.5"), mpmath.mpf("0.9"), mpmath.mpf("0.99"), 1)]
        return float(mpmath.ncdf(h) * mpmath.ncdf(k) + mpmath.quad(density, knots))


def test_bvn_cdf_error_is_below_1e_10_up_to_rho_0_999():
    # the docstring's bound, 1e-14, on 125 points against an independent high-precision integral
    limits = (-2.5, -0.7, 0.0, 1.3, 3.1)
    worst = 0.0
    for rho in (-0.999, -0.6, 0.25, 0.9, 0.999):
        for a in limits:
            for b in limits:
                worst = max(worst, abs(bvn_cdf(a, b, rho) - _mp_bvn_cdf(a, b, rho)))
    assert worst < 1e-14


def _mp_bvn_max_sf(c, rho):
    """Phi(-c) + 2 T(c, a), a = sqrt((1 - rho)/(1 + rho)), with Owen's T as an mpmath integral:

        T(h, a) = int_0^a exp(-h^2 (1 + x^2) / 2) / (2 pi (1 + x^2)) dx.
    """
    with mpmath.workdps(50):
        c, rho = mpmath.mpf(c), mpmath.mpf(rho)
        a = mpmath.sqrt((1 - rho) / (1 + rho))
        t = mpmath.quad(lambda x: mpmath.exp(-c * c * (1 + x * x) / 2) / (1 + x * x), [0, a]) / (2 * mpmath.pi)
        return mpmath.ncdf(-c) + 2 * t


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.5, 0.8, 0.95])
def test_bvn_max_sf_relative_error_is_below_1e_13(tau):
    # the subgroup/full test's tail at correlation sqrt(tau), out past the p-value clamp
    c = np.linspace(-3.0, 12.0, 31)
    got = bvn_max_sf(c, np.sqrt(tau))
    want = np.array([float(_mp_bvn_max_sf(x, np.sqrt(tau))) for x in c])
    assert np.max(np.abs(got - want) / want) < 1e-13


def test_bvn_cdf_at_infinite_and_zero_limits():
    # infinite limits, a zero limit and the origin, with every floating-point warning an error
    with np.errstate(all="raise"):
        for rho in (-0.9, 0.0, 0.3, 0.999):
            assert bvn_cdf(1.0, np.inf, rho) == pytest.approx(ndtr(1.0), abs=1e-15)
            assert bvn_cdf(np.inf, 1.0, rho) == pytest.approx(ndtr(1.0), abs=1e-15)
            assert bvn_cdf(-np.inf, 1.0, rho) == pytest.approx(0.0, abs=1e-15)
            assert bvn_cdf(np.inf, np.inf, rho) == 1.0
            assert bvn_cdf(-np.inf, -np.inf, rho) == 0.0
            for h, k in ((0.0, 1.3), (0.0, -1.3), (1.3, 0.0), (-1.3, 0.0), (-0.0, 1.3)):
                assert bvn_cdf(h, k, rho) == pytest.approx(_mp_bvn_cdf(h, k, rho), abs=1e-15), (h, k)
            assert abs(bvn_cdf(0.0, 0.0, rho) - (0.25 + math.asin(rho) / (2 * math.pi))) <= 1e-15


def test_bvn_cdf_per_element_correlations_match_scalar_calls():
    rng = np.random.default_rng(5)
    # include the far tails, the +-40 clip of the limits and zero
    c = np.concatenate([rng.normal(scale=3.0, size=200), [-50.0, -12.0, 0.0, 12.0, 50.0]])
    rho = rng.uniform(0.05, 0.95, size=c.size)
    got = bvn_cdf(c, c, rho)
    # the same closed form as a scalar-rho call over the same batch, bit for bit
    np.testing.assert_array_equal(got, [bvn_cdf(c, c, r)[i] for i, r in enumerate(rho)])
    # a row's value does not depend on the batch it arrives in
    np.testing.assert_array_equal(got, [bvn_cdf(ci, ci, ri) for ci, ri in zip(c, rho)])
    # rho broadcasts against scalar limits too
    assert bvn_cdf(0.3, -0.2, rho[:3]).shape == (3,)
    for bad in ([0.5, 1.0], [-1.0, 0.2], [0.3, np.nan]):
        with pytest.raises(ValueError):
            bvn_cdf(np.zeros(2), np.zeros(2), np.array(bad))


def test_bvn_cdf_degenerate_correlations():
    assert bvn_cdf(0.7, 1.3, 0.0) == pytest.approx(ndtr(0.7) * ndtr(1.3), abs=1e-14)


def test_bvn_cdf_marginalizes_far_tail():
    # a practically certain coordinate reduces the CDF to the other margin
    assert bvn_cdf(1.0, 40.0, 0.3) == pytest.approx(ndtr(1.0), abs=1e-12)
    assert bvn_cdf(40.0, 1.0, 0.3) == pytest.approx(ndtr(1.0), abs=1e-12)


def test_bvn_cdf_symmetric_in_arguments():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, b = rng.normal(size=2) * 2
        rho = rng.uniform(-0.99, 0.99)
        assert bvn_cdf(a, b, rho) == pytest.approx(bvn_cdf(b, a, rho), abs=1e-12)


def test_bvn_cdf_monotone_and_bounded():
    grid = np.linspace(-3, 3, 13)
    values = bvn_cdf(grid, 0.4, 0.6)
    assert np.all(np.diff(values) > 0)
    assert np.all((values >= 0) & (values <= 1))
    values_rho = [bvn_cdf(0.5, 0.5, r) for r in np.linspace(-0.95, 0.95, 9)]
    assert np.all(np.diff(values_rho) > 0)  # higher correlation, higher joint CDF


def test_bvn_cdf_rejects_bad_correlation():
    for bad in (1.5, 1.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            bvn_cdf(0.0, 0.0, bad)


def test_equicorr_max_cdf_frozen_monte_carlo():
    value, se = EQUICORR_MC
    assert abs(equicorr_max_cdf(2, 0.5, 2.0) - value) < 3 * se


def test_equicorr_max_cdf_against_simpson():
    # one-factor representation integrated with an independent rule
    for m, r, z in [(2, 0.5, 2.0), (3, 0.3, 1.0), (4, 0.5, 2.5), (5, 0.8, 0.0)]:
        def integrand(u):
            return (
                np.exp(-0.5 * u * u)
                / math.sqrt(2 * math.pi)
                * ndtr((z - math.sqrt(r) * u) / math.sqrt(1 - r)) ** m
            )

        expected = _simpson(integrand, -10.0, 10.0)
        assert equicorr_max_cdf(m, r, z) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("r", [0.6, 0.7, 0.8])
def test_equicorr_max_cdf_error_is_below_1e_9_up_to_r_0_8(r):
    # the documented bound; past r = 0.8 the fixed rule loses digits
    for m in range(2, 9):
        for z in (-1.0, 0.0, 1.0, 2.0, 3.0):
            def integrand(u):
                return (
                    np.exp(-0.5 * u * u)
                    / math.sqrt(2 * math.pi)
                    * ndtr((z - math.sqrt(r) * u) / math.sqrt(1 - r)) ** m
                )

            expected = _simpson(integrand, -10.0, 10.0)
            assert abs(equicorr_max_cdf(m, r, z) - expected) < 1e-9, (m, z)


def test_equicorr_max_cdf_one_point_calls_match_the_batch():
    z = np.concatenate([np.random.default_rng(6).normal(scale=3.0, size=200), [-12.0, 12.0]])
    for m, r in ((2, 0.5), (5, 0.5), (8, 0.3)):
        np.testing.assert_array_equal(equicorr_max_cdf(m, r, z), [equicorr_max_cdf(m, r, v) for v in z])


@pytest.mark.parametrize("points", [255, 256, 257])
def test_quadrature_slices_match_one_point_calls(points):
    # the quadrature runs 256 points at a time; values across a slice edge
    # equal calls of one point each, as the closed form's do
    rng = np.random.default_rng(points)
    c = rng.normal(scale=3.0, size=points)
    rho = rng.uniform(0.05, 0.95, size=points)
    np.testing.assert_array_equal(bvn_cdf(c, -c, rho), [bvn_cdf(a, -a, r) for a, r in zip(c, rho)])
    np.testing.assert_array_equal(bvn_cdf(c, c, 0.5), [bvn_cdf(a, a, 0.5) for a in c])
    np.testing.assert_array_equal(equicorr_max_cdf(4, 0.5, c), [equicorr_max_cdf(4, 0.5, a) for a in c])


def test_quadrature_slices_keep_2d_shapes():
    z = np.random.default_rng(7).normal(scale=3.0, size=(3, 171))  # 513 points, two slice edges
    np.testing.assert_array_equal(bvn_cdf(z, 0.3, 0.4), bvn_cdf(z.ravel(), 0.3, 0.4).reshape(z.shape))
    np.testing.assert_array_equal(
        equicorr_max_cdf(3, 0.5, z), equicorr_max_cdf(3, 0.5, z.ravel()).reshape(z.shape)
    )
    outer = bvn_cdf(z[:, :1], z[:1, :], 0.4)  # broadcast limits
    assert outer.shape == z.shape
    assert outer[2, 170] == bvn_cdf(z[2, 0], z[0, 170], 0.4)


SEQUENCE_POINTS = {
    "255-points": np.random.default_rng(255).normal(scale=3.0, size=255),
    "256-points": np.random.default_rng(256).normal(scale=3.0, size=256),
    "257-points": np.random.default_rng(257).normal(scale=3.0, size=257),
    "2d-points": np.random.default_rng(7).normal(scale=3.0, size=(3, 171)),
}


@pytest.mark.parametrize("r", [0.5, 0.3])
@pytest.mark.parametrize("points", SEQUENCE_POINTS.values(), ids=SEQUENCE_POINTS.keys())
def test_equicorr_max_cdf_sequence_matches_single_m_calls(points, r):
    # one quadrature pass for m = 1 .. 8 gives each m the bits of its own call,
    # across the 256-point slice edges and for 2-d thresholds
    batch = equicorr_max_cdf(range(1, 9), r, points)
    assert batch.shape == (8,) + points.shape
    for m in range(1, 9):
        np.testing.assert_array_equal(batch[m - 1], equicorr_max_cdf(m, r, points))
    np.testing.assert_array_equal(equicorr_max_cdf((8, 2, 5), r, 1.5),
                                  [equicorr_max_cdf(m, r, 1.5) for m in (8, 2, 5)])


@pytest.mark.parametrize("m", [[], [1, 0], range(0, 3), [2, 2.5], [3, math.inf], [math.nan]],
                         ids=["empty", "zero", "range-from-0", "non-integer", "inf", "nan"])
def test_equicorr_max_cdf_rejects_bad_sequences(m):
    with pytest.raises(ValueError):
        equicorr_max_cdf(m, 0.5, 1.0)


def test_running_product_is_within_2_eps_of_pow_on_the_engine_grid():
    # the reference raises Phi to the m-th power with pow; the running product
    # may round differently for m >= 3, never for m <= 2 (numpy squares by x * x)
    r, eps = ARM_CORRELATION, np.finfo(float).eps
    batch = equicorr_max_cdf(range(1, 9), r, _GRID)
    for part in np.array_split(np.arange(_GRID.size), 35):
        cdf = ndtr((_GRID[part, None] - np.sqrt(2.0 * r) * _GH_NODES) / np.sqrt(1.0 - r))
        for m in range(1, 9):
            reference = np.clip((cdf ** m * _GH_WEIGHTS).sum(axis=-1) * _INV_SQRT_PI, 0.0, 1.0)
            if m <= 2:
                np.testing.assert_array_equal(batch[m - 1, part], reference)
            else:
                assert np.max(np.abs(batch[m - 1, part] - reference)) <= 2 * eps, m


def test_quadrature_memory_is_bounded_by_the_slice():
    grid = np.linspace(-8.5, 8.5, 8705)  # the engine's quantile grid size
    tracemalloc.start()
    try:
        bvn_cdf(grid, grid, 0.5)
        bvn_cdf(grid, grid, np.full(grid.size, 0.5))
        equicorr_max_cdf(8, 0.5, grid)
        equicorr_max_cdf(range(1, 9), 0.5, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 8705 x 192 temporary of a whole-batch quadrature takes 13 MB, and two are alive at once
    assert peak < 16 * 2**20


def test_equicorr_max_cdf_matches_bvn_for_pairs():
    # the quadrature and the closed form must agree on P(max of a pair <= z)
    for r in (0.2, 0.5, 0.8):
        for z in (-1.0, 0.5, 2.0):
            assert equicorr_max_cdf(2, r, z) == pytest.approx(
                float(bvn_cdf(z, z, r)), abs=1e-9
            )


def test_equicorr_max_cdf_zero_correlation_is_power():
    for m in (1, 2, 5):
        for z in (-1.0, 0.0, 1.7):
            assert equicorr_max_cdf(m, 0.0, z) == pytest.approx(ndtr(z) ** m, abs=1e-14)


def test_equicorr_max_cdf_bounds():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        r = float(rng.uniform(0, 0.95))
        z = float(rng.normal() * 2)
        value = equicorr_max_cdf(m, r, z)
        assert ndtr(z) ** m - 1e-12 <= value <= ndtr(z) + 1e-12


def test_equicorr_max_cdf_single_margin():
    assert equicorr_max_cdf(1, 0.6, 1.3) == pytest.approx(ndtr(1.3), abs=1e-12)


def test_equicorr_max_cdf_validates_arguments():
    with pytest.raises(ValueError):
        equicorr_max_cdf(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        equicorr_max_cdf(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        equicorr_max_cdf(2, -0.1, 1.0)


def test_replication_stream_is_keyed_deterministically():
    a = replication_stream(42, 7).standard_normal(8)
    b = replication_stream(42, 7).standard_normal(8)
    c = replication_stream(42, 8).standard_normal(8)
    d = replication_stream(43, 7).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_replication_stream_mixes_across_indices():
    # consecutive replication indices should look like independent draws
    draws = np.array([replication_stream(9, i).standard_normal() for i in range(4000)])
    assert abs(draws.mean()) < 4 / math.sqrt(4000)
    assert abs(draws.std() - 1.0) < 0.05
    lag1 = np.corrcoef(draws[:-1], draws[1:])[0, 1]
    assert abs(lag1) < 0.08


def test_replication_stream_rejects_negative_index():
    with pytest.raises(ValueError):
        replication_stream(1, -1)


# ---------------------------------------------------------------------------
# random streams: the vectorised Philox kernel and the word recipes

KEY_SEEDS = (0, 1, 2**64 - 1)
KEY_REPLICATIONS = (0, 4095, 4096, MAX_REPLICATIONS - 1, 2**63)


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_philox_words_equal_the_raw_stream_of_each_replication(seed):
    raw = {r: replication_stream(seed, r).bit_generator.random_raw(24) for r in KEY_REPLICATIONS}
    for base in range(6):  # every block base up to the sixth, to the end of 24 words
        got = _philox_words(seed, KEY_REPLICATIONS, base, 6 - base)
        assert got.dtype == np.uint64 and got.shape == (len(KEY_REPLICATIONS), 24 - 4 * base)
        for row, r in enumerate(KEY_REPLICATIONS):
            assert got[row].tobytes() == raw[r][4 * base :].tobytes(), (base, r)
    bases = np.array([5, 0, 3, 1, 2])  # a base per row
    got = _philox_words(seed, KEY_REPLICATIONS, bases, 1)
    for row, r in enumerate(KEY_REPLICATIONS):
        assert got[row].tobytes() == raw[r][4 * bases[row] : 4 * bases[row] + 4].tobytes(), r


def test_word_recipes_at_the_extreme_words():
    words = np.array([0, 2**64 - 1], dtype=np.uint64)
    # the 53-bit form ((w >> 11) + 0.5) * 2**-53 rounds to 1 at the top word
    # and its normal is +inf; the 52-bit form stays inside (0, 1)
    assert 0.0 < _uniforms(words)[0] and _uniforms(words)[1] < 1.0
    normals = _normals(words)
    assert np.isfinite(normals).all()
    np.testing.assert_allclose(normals, [-8.2095, 8.2095], atol=5e-5)
    for k in range(1, 9):
        assert _picks(words, k).tolist() == [0, k - 1]
        # the first word of each arm's share of 2**53 picks that arm, the word before it the one below
        edges = np.array([(((j << 53) + k - 1) // k) << 11 for j in range(k)], dtype=np.uint64)
        assert _picks(edges, k).tolist() == list(range(k))
        assert _picks(edges[1:] - np.uint64(1), k).tolist() == list(range(k - 1))


BINOMIALS = ((2, 0.9), (10, 0.5), (20, 0.02), (200, 0.3), (200, 1e-3), (600, 0.999), (1000, 0.5))


@pytest.mark.parametrize("n, p", BINOMIALS)
def test_binomial_cdf_table_is_the_binomial_cdf(n, p):
    lo, table = _binomial_cdf(n, p)
    hi = lo + table.size - 1
    assert 0 <= lo <= hi <= n and not table.flags.writeable
    # the window's CDF starts below the least uniform and reaches the largest
    assert table[0] >= 0.0 and (np.diff(table) >= 0.0).all()
    assert (lo == 0 or table[0] < 2.0**-53) and table[-1] >= 1.0 - 2.0**-53
    pmf = [math.comb(n, c) * p**c * (1.0 - p) ** (n - c) for c in range(n + 1)]
    np.testing.assert_allclose(table, np.minimum(np.cumsum(pmf), 1.0)[lo : hi + 1], rtol=1e-9, atol=1e-15)
    # the extreme words invert to the least count whose CDF reaches their uniform
    extremes = np.array([0, 2**64 - 1], dtype=np.uint64)
    want = [lo + next(c for c in range(table.size) if table[c] >= u) for u in _uniforms(extremes)]
    assert _binomial_counts(extremes, n, p).tolist() == want


def test_windowed_binomial_counts_equal_the_full_table_bitwise():
    words = np.concatenate([
        np.array([0, 1, 2**12 - 1, 2**12, 2**13, 2**63, 2**64 - 2**12 - 1, 2**64 - 2**12, 2**64 - 1],
                 dtype=np.uint64),
        np.random.default_rng(8).integers(0, 2**64 - 1, 512, dtype=np.uint64, endpoint=True),
    ])
    uniforms = _uniforms(words)
    for n in [*range(2, 400), 4097, 123457, 10**6]:
        for p in (1e-9, 1e-3, 0.02, 0.3, 0.5, 0.999, 1.0 - 1e-6):
            full = np.searchsorted(bdtr(np.arange(n + 1), n, p), uniforms)
            assert _binomial_counts(words, n, p).tobytes() == full.tobytes(), (n, p)


def test_binomial_table_memory_grows_as_the_root_of_n():
    # a full table at n = 10^7 would hold 80 MB of CDF values
    words = np.array([0, 2**64 - 1], dtype=np.uint64)
    tracemalloc.start()
    try:
        _binomial_counts(words, 10**7, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _chi_square_pvalue(observed, expected):
    """Upper tail of Pearson's statistic, bins pooled from the left to an expected count of 5."""
    bins, obs, exp = [], 0.0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            bins.append([obs, exp])
            obs = exp = 0.0
    bins[-1][0] += obs  # the right tail joins the last bin
    bins[-1][1] += exp
    o, e = np.array(bins).T
    return chdtrc(len(bins) - 1, ((o - e) ** 2 / e).sum())


# Fixed before the first run: 65536 words (4096 replications x 16) at seed
# 16161, ten cells, a family error of 1e-3 shared equally (Bonferroni)
STREAM_SEED, STREAM_CELLS, STREAM_ALPHA = 16161, 10, 1e-3


@pytest.fixture(scope="module")
def stream_words():
    return _philox_words(STREAM_SEED, np.arange(4096), 0, 4).ravel()


@pytest.mark.parametrize("n, p", [(10, 0.5), (20, 0.02), (200, 0.3)])
def test_binomial_counts_follow_the_binomial_law(stream_words, n, p):
    observed = np.bincount(_binomial_counts(stream_words, n, p), minlength=n + 1)
    pmf = [math.comb(n, c) * p**c * (1.0 - p) ** (n - c) for c in range(n + 1)]
    assert _chi_square_pvalue(observed, stream_words.size * np.array(pmf)) > STREAM_ALPHA / STREAM_CELLS


@pytest.mark.parametrize("k", range(2, 9))
def test_random_picks_are_uniform_over_the_arms(stream_words, k):
    observed = np.bincount(_picks(stream_words, k), minlength=k)
    assert observed.size == k
    assert _chi_square_pvalue(observed, np.full(k, stream_words.size / k)) > STREAM_ALPHA / STREAM_CELLS
