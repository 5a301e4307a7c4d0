"""Checks for the shared normal-theory numerics.

Reference values were computed independently of the implementation: the
bivariate and equicorrelated-maximum probabilities with 10^7-sample Monte
Carlo draws, frozen together with their standard errors.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from seamsim.statdist import (
    NotPositiveSemidefiniteError,
    _rekey,
    bvn_cdf,
    cholesky_psd,
    equicorr_max_cdf,
    equicorrelated_matrix,
    replication_stream,
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


def test_bvn_cdf_per_element_correlations_match_scalar_calls():
    rng = np.random.default_rng(5)
    # include the +-9.5 clip of the integration limit and the far tails
    c = np.concatenate([rng.normal(scale=3.0, size=200), [-12.0, -9.5, 9.5, 12.0]])
    rho = rng.uniform(0.05, 0.95, size=c.size)
    got = bvn_cdf(c, c, rho)
    # the same quadrature as a scalar-rho call over the same batch, bit for bit
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
    assert bvn_cdf(0.7, 1.3, 1.0) == pytest.approx(ndtr(0.7), abs=1e-14)
    assert bvn_cdf(0.7, 1.3, -1.0) == pytest.approx(
        max(0.0, ndtr(0.7) + ndtr(1.3) - 1.0), abs=1e-14
    )
    assert bvn_cdf(-2.0, 0.5, -1.0) == 0.0


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
    with pytest.raises(ValueError):
        bvn_cdf(0.0, 0.0, 1.5)


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


def test_equicorr_max_cdf_matches_bvn_for_pairs():
    # two independent quadratures must agree on P(max of a pair <= z)
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


def test_cholesky_psd_round_trips_random_spd():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 4, 7):
        base = rng.normal(size=(dim, dim))
        matrix = base @ base.T + dim * np.eye(dim)
        factor = cholesky_psd(matrix)
        np.testing.assert_allclose(factor @ factor.T, matrix, rtol=1e-10, atol=1e-10)
        assert np.allclose(factor, np.tril(factor))


def test_cholesky_psd_handles_singular_matrices():
    ones = np.ones((3, 3))
    factor = cholesky_psd(ones)
    np.testing.assert_allclose(factor @ factor.T, ones, atol=1e-10)


def test_cholesky_psd_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError) as info:
        cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert info.value.pivot_index == 1
    assert "pivot index 1" in str(info.value)


def test_cholesky_psd_rejects_non_symmetric():
    with pytest.raises(ValueError):
        cholesky_psd(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_equicorrelated_matrix_layout():
    matrix = equicorrelated_matrix(3, 0.4)
    assert matrix.shape == (3, 3)
    assert np.all(np.diag(matrix) == 1.0)
    off = matrix[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.4)


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


def _kept_binomial(n, p):
    """Binomial draws until one lies strictly inside (0, n), then six normals."""
    def draw(stream):
        counts = [stream.binomial(n, p)]
        while not 0 < counts[-1] < n:
            counts.append(stream.binomial(n, p))
        return [np.array(counts), stream.standard_normal(6)]
    return draw


# one replication's consumption, in the orders the engine draws
REKEY_DRAWS = {
    "normal-6": lambda g: [g.standard_normal(6)],
    "normal-12": lambda g: [g.standard_normal(12)],
    "normal-24": lambda g: [g.standard_normal(24)],
    # random-1 picks its arm last: a half-used 32-bit word stays buffered
    "normal-then-integers": lambda g: [g.standard_normal(9), np.array([g.integers(3)])],
    "binomial-200": _kept_binomial(200, 0.3),
    "binomial-20-redraws": _kept_binomial(20, 0.02),
}


@pytest.mark.parametrize("name", REKEY_DRAWS)
def test_rekeyed_generator_replays_each_replication_stream(name):
    draw = REKEY_DRAWS[name]
    seed, first = 2**63 + 12345, 4101  # a chunk offset other than 0
    shared = replication_stream(seed, first)
    leftovers = redraws = 0
    for rep in range(first, 4301):
        _rekey(shared, seed, rep)
        got = draw(shared)
        leftovers += shared.bit_generator.state["has_uint32"]
        if name.startswith("binomial"):
            redraws += got[0].size - 1
        want = draw(replication_stream(seed, rep))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], rep
    if name == "normal-then-integers":
        assert leftovers > 0  # the buffered half-word reset is exercised
    if name == "binomial-20-redraws":
        assert redraws > 0
