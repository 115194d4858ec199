import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from quantproc import copulas as cp
from quantproc import drivers as d
from quantproc import dominance as dom
from quantproc import measures as me
from quantproc import transforms as tr
from quantproc import valuation as va
from quantproc._util import substream
from quantproc.errors import CapabilityError, NumericError, ParameterError, RequestError

from conftest import InfLinear, ks_critical


# ---------------------------------------------------------------------------
# copula evaluation
# ---------------------------------------------------------------------------

def test_independence_is_product():
    c = cp.IndependenceCopula(2)
    assert float(cp.copula_eval(c, 1.0, np.array([0.3, 0.5]))) == pytest.approx(0.15)


def test_grounding_and_margins_boundary():
    # C is 0 when any coordinate is 0, and C(1, ..., u, ..., 1) = u
    for spec in (cp.IndependenceCopula(3), cp.ComonotoneCopula(3),
                 cp.ClaytonCopula(2.0, 3), cp.GumbelCopula(1.7, 3),
                 cp.GaussianCopula(np.array([[1, 0.4, 0.1], [0.4, 1, 0.2],
                                             [0.1, 0.2, 1]]))):
        u = np.array([0.0, 0.7, 0.9])
        assert float(cp.copula_eval(spec, 1.0, u)) == 0.0
        for i in range(3):
            u = np.ones(3)
            u[i] = 0.37
            got = float(cp.copula_eval(spec, 1.0, u))
            tol = 1e-12 if spec.family != "GaussianCopula" else 1e-6
            assert got == pytest.approx(0.37, abs=tol)


def test_clayton_closed_value():
    c = cp.ClaytonCopula(2.0, 2)
    want = (0.5 ** -2 + 0.5 ** -2 - 1.0) ** -0.5
    assert float(cp.copula_eval(c, 1.0, np.array([0.5, 0.5]))) == pytest.approx(want, abs=1e-14)
    # cross-checked by sampling frequency
    rng = np.random.default_rng(3)
    s = c.sample(1.0, 200_000, rng)
    freq = float(np.mean((s[:, 0] <= 0.5) & (s[:, 1] <= 0.5)))
    assert freq == pytest.approx(want, abs=4 * math.sqrt(want * (1 - want) / 200_000))


def test_gumbel_sampler_matches_cdf():
    c = cp.GumbelCopula(2.0, 2)
    rng = np.random.default_rng(5)
    s = c.sample(1.0, 200_000, rng)
    for u1, u2 in ((0.4, 0.6), (0.7, 0.3)):
        want = float(c.cdf(1.0, np.array([u1, u2])))
        freq = float(np.mean((s[:, 0] <= u1) & (s[:, 1] <= u2)))
        assert freq == pytest.approx(want, abs=4 * math.sqrt(want * (1 - want) / 200_000))


def test_gaussian_copula_requires_psd_unit_diagonal():
    with pytest.raises(ParameterError):
        cp.GaussianCopula(np.array([[1.0, 2.0], [2.0, 1.0]])).validate()
    with pytest.raises(ParameterError):
        cp.GaussianCopula(np.array([[1.0, 0.2], [0.3, 1.0]])).validate()
    with pytest.raises(ParameterError):
        cp.GaussianCopula(np.array([[2.0, 0.0], [0.0, 1.0]])).validate()


def test_parameter_ranges():
    with pytest.raises(ParameterError):
        cp.ClaytonCopula(-1.0, 2).validate()
    with pytest.raises(ParameterError):
        cp.GumbelCopula(0.5, 2).validate()
    with pytest.raises(ParameterError):
        cp.copula_eval(cp.IndependenceCopula(2), 1.0, np.array([0.5, 1.2]))


@pytest.mark.parametrize("spec", [cp.IndependenceCopula(2), cp.ComonotoneCopula(2),
                                  cp.GaussianCopula(np.array([[1.0, 0.5], [0.5, 1.0]])),
                                  cp.ClaytonCopula(2.0, 2), cp.GumbelCopula(2.0, 2)],
                         ids=lambda spec: spec.family)
@pytest.mark.parametrize("u", [(np.nan, 0.5), (0.3, np.nan), (np.nan, np.nan)])
def test_copula_cdf_rejects_nan(spec, u):
    # a NaN level is no value: Clayton and Gumbel once read it as 1
    with pytest.raises(ParameterError):
        spec.cdf(1.0, np.array(u))
    with pytest.raises(ParameterError):
        spec.cdf(1.0, np.array([[0.2, 0.4], u]))


def test_time_dependent_theta():
    c = cp.ClaytonCopula(theta=lambda t: 1.0 + t, dim=2)
    v1 = float(cp.copula_eval(c, 1.0, np.array([0.5, 0.5])))
    v2 = float(cp.copula_eval(c, 3.0, np.array([0.5, 0.5])))
    assert v2 > v1  # stronger dependence at larger theta


# ---------------------------------------------------------------------------
# the bivariate Gaussian copula in closed form
# ---------------------------------------------------------------------------

def _gauss2(rho):
    return cp.GaussianCopula(np.array([[1.0, rho], [rho, 1.0]]))


def _bvn_by_quad(h, k, rho):
    """Phi_2(h, k; rho) from Drezner and Wesolowsky's angle integral,
    Phi(h) Phi(k) + (1/2pi) int_0^asin(rho) exp(-(h^2 + k^2 - 2hk sin t) / (2 cos^2 t)) dt,
    by ``quad``.  Every term is nonnegative for rho >= 0, so the value keeps its
    relative accuracy in the lower tail; on the grid below it agrees with a
    40-digit mpmath evaluation to 1.2e-16 absolute and 5e-15 relative."""
    def f(t):
        return math.exp(-(h * h + k * k - 2.0 * h * k * math.sin(t)) / (2.0 * math.cos(t) ** 2))
    integral, _ = integrate.quad(f, 0.0, math.asin(rho), epsabs=0.0, epsrel=1e-13, limit=200)
    return float(special.ndtr(h) * special.ndtr(k)) + integral / (2.0 * math.pi)


_SCORE_GRID = (-8.0, -5.0, -1.0, 0.0, 2.0, 8.0)


@pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.5, 0.99])
def test_gaussian_copula_2d_matches_quadrature(rho):
    # the levels of every pair of grid scores; the reference reads the scores the
    # copula reads, ndtri(u)
    u = special.ndtr(np.array(list(itertools.product(_SCORE_GRID, repeat=2))))
    z = special.ndtri(u)
    got = _gauss2(rho).cdf(1.0, u)
    want = np.array([_bvn_by_quad(h, k, rho) for h, k in z])
    assert np.max(np.abs(got - want)) <= 1e-15
    if rho >= 0.0:
        tail = np.all(z >= -5.0 - 1e-12, axis=1)
        assert np.max(np.abs(got - want)[tail] / want[tail]) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(h=st.floats(-5.0, 8.0), k=st.floats(-5.0, 8.0), rho=st.floats(0.0, 0.99))
def test_gaussian_copula_2d_relative_accuracy(h, k, rho):
    u = special.ndtr(np.array([h, k]))
    want = _bvn_by_quad(*special.ndtri(u), rho)
    assert float(_gauss2(rho).cdf(1.0, u)) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [0.5, -0.7, 0.99, 0.0])
def test_gaussian_copula_2d_agrees_with_scipy(rho):
    u = np.random.default_rng(11).uniform(size=(20_000, 2))
    mvn = stats.multivariate_normal(mean=np.zeros(2), cov=[[1.0, rho], [rho, 1.0]],
                                    allow_singular=True)
    assert np.max(np.abs(_gauss2(rho).cdf(1.0, u) - mvn.cdf(stats.norm.ppf(u)))) <= 1e-15


_EDGE_LEVELS = np.array([[0.3, 0.7], [0.9, 0.2], [0.5, 0.5], [0.0, 0.4], [1.0, 0.6],
                         [0.5, 0.1], [0.8, 0.5], [1e-300, 0.5], [1.0, 1.0]])


@pytest.mark.parametrize("rho", [1.0, -1.0, 0.6, -0.6, 0.0])
def test_gaussian_copula_2d_degenerate_correlation_and_half_levels(rho):
    # rho = +1 and -1 are the Frechet bounds exactly; a level of exactly 1/2 is a
    # score of 0, where Owen's form has 0/0 and Sheppard's formula holds at (1/2, 1/2)
    got = _gauss2(rho).cdf(1.0, _EDGE_LEVELS)
    u1, u2 = _EDGE_LEVELS.T
    if rho == 1.0:
        np.testing.assert_array_equal(got, np.minimum(u1, u2))
    elif rho == -1.0:
        np.testing.assert_array_equal(got, np.maximum(u1 + u2 - 1.0, 0.0))
    else:
        z = special.ndtri(np.clip(_EDGE_LEVELS, 1e-300, 1.0 - 1e-16))
        want = [0.0 if min(a, b) == 0.0 else _bvn_by_quad(h, k, rho)
                for (a, b), (h, k) in zip(_EDGE_LEVELS, z)]
        assert got == pytest.approx(want, abs=1e-15)
        assert got[2] == pytest.approx(0.25 + math.asin(rho) / (2.0 * math.pi), abs=1e-16)


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(rho=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
       u=st.lists(_UNIT, min_size=2, max_size=2), v=st.lists(_UNIT, min_size=2, max_size=2))
def test_gaussian_copula_2d_frechet_bounds_and_2_increasing(rho, u, v):
    (u1, u2), (v1, v2) = sorted(u), sorted(v)
    corners = np.array([[u2, v2], [u1, v2], [u2, v1], [u1, v1]])
    c22, c12, c21, c11 = _gauss2(rho).cdf(1.0, corners)
    assert c22 - c12 - c21 + c11 >= -1e-15
    for (a, b), c in zip(corners, (c22, c12, c21, c11)):
        assert max(a + b - 1.0, 0.0) - 1e-15 <= c <= min(a, b) + 1e-15


# ---------------------------------------------------------------------------
# Kendall distribution functions
# ---------------------------------------------------------------------------

def test_kendall_comonotone_is_identity():
    vs = np.array([0.1, 0.5, 0.9])
    got = cp.kendall_function(cp.ComonotoneCopula(2), 1.0, vs)
    assert np.max(np.abs(got - vs)) == 0.0


def test_kendall_independence_closed_and_empirical():
    c = cp.IndependenceCopula(2)
    want = 0.5 - 0.5 * math.log(0.5)
    got = float(cp.kendall_function(c, 1.0, 0.5))
    assert got == pytest.approx(want, abs=1e-10)
    # empirical estimator agrees within Monte Carlo error
    rng = np.random.default_rng(7)
    draws = c.sample(1.0, 1_000_000, rng)
    emp = float(np.mean(draws[:, 0] * draws[:, 1] <= 0.5))
    assert emp == pytest.approx(want, abs=4 * math.sqrt(want * (1 - want) / 1_000_000))


def test_kendall_clayton_closed_form_value():
    c = cp.ClaytonCopula(2.0, 2)
    want = 0.5 + 0.5 * (1 - 0.5 ** 2) / 2.0
    assert float(cp.kendall_function(c, 1.0, 0.5)) == pytest.approx(want, abs=1e-14)
    assert want == 0.6875


def test_kendall_closed_vs_empirical_21_points():
    for spec in (cp.ClaytonCopula(2.0, 2), cp.GumbelCopula(1.6, 2)):
        K = spec.kendall_closed_form(1.0)
        rng = np.random.default_rng(11)
        n = 200_000
        draws = spec.sample(1.0, n, rng)
        c_vals = spec.cdf(1.0, draws)
        for v in np.linspace(0.04, 0.96, 21):
            emp = float(np.mean(c_vals <= v))
            kv = float(K(v))
            se = math.sqrt(max(kv * (1 - kv), 1e-12) / n)
            assert abs(emp - kv) <= 4.0 * se


def test_kendall_empirical_fallback_and_warning():
    gc = cp.GaussianCopula(np.array([[1.0, 0.5], [0.5, 1.0]]))
    v = float(cp.kendall_function(gc, 1.0, 0.5, n_samples=50_000, seed=3))
    assert 0.5 < v < 1.0  # between comonotone and far above independence floor
    with pytest.warns(UserWarning):
        cp.kendall_function(gc, 1.0, 0.5, n_samples=5_000, seed=3)


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(0.2, 6.0), u=st.floats(0.01, 0.99), v=st.floats(0.01, 0.99))
def test_archimedean_boundary_and_bound_property(theta, u, v):
    for spec in (cp.ClaytonCopula(theta, 2), cp.GumbelCopula(1.0 + theta, 2)):
        # margin boundary at machine precision
        assert float(spec.cdf(1.0, np.array([u, 1.0]))) == pytest.approx(u, abs=1e-12)
        assert float(spec.cdf(1.0, np.array([1.0, v]))) == pytest.approx(v, abs=1e-12)
        # Frechet bounds
        c = float(spec.cdf(1.0, np.array([u, v])))
        assert max(u + v - 1.0, 0.0) - 1e-12 <= c <= min(u, v) + 1e-12
        # Kendall function sits above the diagonal
        K = spec.kendall_closed_form(1.0)
        assert float(K(v)) >= v - 1e-9


def test_kendall_lower_bound_all_families():
    vs = np.linspace(0.01, 0.99, 21)
    for spec in (cp.IndependenceCopula(2), cp.IndependenceCopula(4),
                 cp.ClaytonCopula(0.7, 2), cp.GumbelCopula(2.5, 2),
                 cp.ComonotoneCopula(3)):
        kv = np.asarray(cp.kendall_function(spec, 1.0, vs), dtype=float)
        assert np.all(kv >= vs - 1e-9)
        assert float(cp.kendall_function(spec, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)


def test_kendall_table_csv_export(tmp_path):
    path = tmp_path / "kendall.csv"
    cp.kendall_table_csv(cp.ClaytonCopula(2.0, 2), str(path), grid=np.array([0.25, 0.5, 0.75]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "v,kendall"
    v, k = (float(x) for x in lines[2].split(","))
    assert (v, k) == (0.5, pytest.approx(0.6875, abs=1e-9))


def test_kendall_order_of_comonotone_over_independence():
    K_com = cp.ComonotoneCopula(2).kendall_closed_form(1.0)
    K_ind = cp.IndependenceCopula(2).kendall_closed_form(1.0)
    rep = dom.kendall_order_check(K_com, K_ind)
    assert rep.order == "Kendall" and rep.direction == 1


# ---------------------------------------------------------------------------
# joint simulation and the multidimensional composite
# ---------------------------------------------------------------------------

def two_margin_map(copula, quantile=None):
    bm = d.Brownian()
    return cp.MultiCompositeMap(
        margins=(bm, bm),
        copula=copula,
        quantile=quantile or tr.TukeyG(0, 1, 0.4)), bm


def test_comonotone_degeneracy():
    mm, bm = two_margin_map(cp.ComonotoneCopula(2))
    grid = d.TimeGrid(np.array([1.0]))
    ens = cp.simulate_joint([bm, bm], mm.copula, grid, 50_000, 3)
    assert np.array_equal(ens[0].paths, ens[1].paths)
    z = cp.apply_multi_composite(mm, ens).paths[:, 0]
    # true-joint-law comonotone output carries the quantile family's own law
    u = tr.quantile_cdf(mm.quantile, 1.0, z)
    u_sorted = np.sort(u)
    emp = np.arange(1, u.size + 1) / u.size
    assert float(np.max(np.abs(u_sorted - emp))) < ks_critical(u.size)


def test_independence_product_law():
    mm, bm = two_margin_map(cp.IndependenceCopula(2))
    grid = d.TimeGrid(np.array([1.0]))
    ens = cp.simulate_joint([bm, bm], mm.copula, grid, 100_000, 5)
    assert not np.array_equal(ens[0].paths, ens[1].paths)
    z = cp.apply_multi_composite(mm, ens).paths[:, 0]
    # closed form: P(Z <= z) = K(F_quantile(z)) with K(v) = v - v log v
    for zz in (-0.5, 0.0, 0.5, 1.5):
        want = float(cp.multi_distorted_cdf(mm, 1.0, zz))
        freq = float(np.mean(z <= zz))
        assert abs(freq - want) <= 4 * math.sqrt(want * (1 - want) / z.size)
    # and the brute-force product-of-uniforms law agrees (two-sample check)
    rng = np.random.default_rng(10)
    u12 = rng.uniform(size=(200_000, 2)).prod(axis=1)
    z_direct = tr.quantile_eval(mm.quantile, 1.0, u12)
    ks = stats.ks_2samp(z, z_direct)
    assert ks.pvalue > 0.01


def test_multi_distorted_cdf_matches_ensemble():
    mm, bm = two_margin_map(cp.ClaytonCopula(1.5, 2), tr.TukeyGH(0, 1, 0.3, 0.1))
    grid = d.TimeGrid(np.array([1.0]))
    ens = cp.simulate_joint([bm, bm], cp.IndependenceCopula(2), grid, 100_000, 7)
    # map copula (Clayton) deliberately different from the drivers' implicit
    # copula: false-law mode evaluates by simulation of the map's copula
    mm_false = cp.MultiCompositeMap(margins=mm.margins, copula=mm.copula,
                                    quantile=mm.quantile, mode=cp.MultiMode.FALSE_LAW)
    got = float(cp.multi_distorted_cdf(mm_false, 1.0, 0.2, n_samples=200_000))
    # oracle: closed Kendall form of the map's own copula at the same level
    K = mm.copula.kendall_closed_form(1.0)
    want = float(K(mm.quantile.cdf(1.0, 0.2)))
    assert got == pytest.approx(want, abs=0.005)


def test_false_law_multi_cdf_is_the_exact_kendall_function():
    # both modes evaluate the Kendall function of the map's copula: no Monte Carlo
    mm, _ = two_margin_map(cp.ClaytonCopula(1.5, 2), tr.TukeyGH(0, 1, 0.3, 0.1))
    mm_false = replace(mm, mode=cp.MultiMode.FALSE_LAW)
    want = float(mm.copula.kendall_closed_form(1.0)(mm.quantile.cdf(1.0, 0.2)))
    got = [float(cp.multi_distorted_cdf(mm_false, 1.0, 0.2, seed=s)) for s in (0, 1)]
    assert got == [want, want]
    assert want == pytest.approx(0.792942, abs=1e-6)


def test_true_joint_law_mode_checks_margins():
    bm = d.Brownian()
    mm = cp.MultiCompositeMap(margins=(tr.GaussianLaw(0.3, 1.0), bm),
                              copula=cp.IndependenceCopula(2),
                              quantile=tr.TukeyG(0, 1, 0.4))
    grid = d.TimeGrid(np.array([1.0]))
    ens = cp.simulate_joint([bm, bm], mm.copula, grid, 1_000, 3)
    with pytest.raises(ParameterError):
        cp.apply_multi_composite(mm, ens)


def test_mismatched_grids_rejected():
    mm, bm = two_margin_map(cp.IndependenceCopula(2))
    e1 = d.simulate(bm, d.TimeGrid(np.array([1.0])), 100, 1)
    e2 = d.simulate(bm, d.TimeGrid(np.array([2.0])), 100, 1)
    with pytest.raises(RequestError):
        cp.apply_multi_composite(mm, [e1, e2])


def test_single_margin_reduces_to_univariate():
    bm = d.Brownian()
    mm = cp.MultiCompositeMap(margins=(bm,),
                              copula=cp.IndependenceCopula(1),
                              quantile=tr.TukeyG(0, 1, 0.4))
    grid = d.TimeGrid(np.array([1.0]))
    ens = cp.simulate_joint([bm], mm.copula, grid, 20_000, 3)
    z_multi = cp.apply_multi_composite(mm, ens).paths
    z_uni = tr.apply_composite(tr.true_law_map(bm, mm.quantile), ens[0]).paths
    # at t = 1 both routes are the closed form expm1(0.4 y) / 0.4: the univariate
    # one composes in the normal score y, the multivariate one through ndtri(ndtr(y))
    want = np.expm1(0.4 * ens[0].paths) / 0.4
    np.testing.assert_allclose(z_uni, want, rtol=4 * np.finfo(float).eps, atol=0.0)
    np.testing.assert_allclose(z_multi, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("second", [d.InhomogeneousOU(1.0, 0.0, 1.0, 0.0),
                                    d.GammaProcess(1.2, 0.6)], ids=["ou", "gamma"])
def test_gaussian_coupled_innovations(second):
    rho = 0.7
    gc = cp.GaussianCopula(np.array([[1.0, rho], [rho, 1.0]]))
    bm = d.Brownian()
    grid = d.TimeGrid(np.array([0.5, 1.0]))
    ens = cp.simulate_joint([bm, second], gc, grid, 50_000, 11)
    u0 = d.uniformize(bm, ens[0]).paths
    u1 = d.uniformize(second, ens[1]).paths
    # one exact step from a fixed start: the normal scores are the coupled innovations
    corr = np.corrcoef(stats.norm.ppf(u0[:, 0]), stats.norm.ppf(u1[:, 0]))[0, 1]
    assert corr == pytest.approx(rho, abs=0.02)
    # each margin keeps its exact law
    for u in (u0[:, 0], u1[:, 1]):
        u_sorted = np.sort(u)
        emp = np.arange(1, u.size + 1) / u.size
        assert float(np.max(np.abs(u_sorted - emp))) < ks_critical(u.size)


def test_gaussian_copula_step_moves_brownian_margins_by_its_scores():
    # each step adds sqrt(t - s) times the copula's correlated scores, drawn in turn from
    # the joint simulation's substream: bit for bit, with no level formed on the way
    gc = cp.GaussianCopula(np.array([[1.0, 0.6], [0.6, 1.0]]))
    drivers_ = [d.Brownian(), d.Brownian(origin=0.5)]
    times = np.array([0.25, 1.0, 1.5])
    ens = cp.simulate_joint(drivers_, gc, d.TimeGrid(times), 1_000, 5)
    rng = substream(5, 11)
    states, prev = np.array([[0.0], [0.5]]), 0.0
    for k, t in enumerate(times):
        states = states + math.sqrt(t - prev) * gc.sample_scores(t, 1_000, rng).T
        for e, want in zip(ens, states):
            assert np.array_equal(e.paths[:, k], want)
        prev = t


def test_terminal_joint_sampling_keeps_margins_and_dependence():
    from conftest import ks_critical, ks_statistic_uniform

    drivers_ = [d.Brownian(), d.GammaProcess(1.2, 0.6)]
    cop = cp.ClaytonCopula(2.0, 2)
    ens = cp.simulate_joint_terminal(drivers_, cop, 1.0, 50_000, 31)
    # exact marginal laws
    for dr, e in zip(drivers_, ens):
        u = dr.cdf(1.0, e.paths[:, 0])
        assert ks_statistic_uniform(np.clip(u, 1e-12, 1 - 1e-12)) < ks_critical(50_000)
    # dependence matches the copula (joint orthant frequency)
    u1 = drivers_[0].cdf(1.0, ens[0].paths[:, 0])
    u2 = drivers_[1].cdf(1.0, ens[1].paths[:, 0])
    freq = float(np.mean((u1 <= 0.5) & (u2 <= 0.5)))
    want = float(cop.cdf(1.0, np.array([0.5, 0.5])))
    assert freq == pytest.approx(want, abs=4 * math.sqrt(want * (1 - want) / 50_000))


def test_gaussian_coupling_rejects_two_innovation_drivers():
    gc = cp.GaussianCopula(np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(CapabilityError):
        cp.simulate_joint([d.Brownian(), d.VarianceGamma()], gc,
                          d.TimeGrid(np.array([1.0])), 100, 1)


# ---------------------------------------------------------------------------
# premiums
# ---------------------------------------------------------------------------

def test_independence_premium_reduces_to_product_uniform():
    mm, bm = two_margin_map(cp.IndependenceCopula(2))
    payoff = va.Layer(0.5, 2.0)
    prem = cp.multi_layer_premium(mm, [bm, bm], 0, payoff, 0.0, 1.0, 0.0,
                                  va.MCSettings(200_000, 13))
    rng = np.random.default_rng(17)
    u12 = rng.uniform(size=(200_000, 2)).prod(axis=1)
    z = tr.quantile_eval(mm.quantile, 1.0, u12)
    direct = float(np.mean(payoff(z)))
    se = math.hypot(prem.std_error, float(np.std(payoff(z), ddof=1)) / math.sqrt(z.size))
    assert abs(prem.price - direct) <= 3.0 * se


def test_comonotone_premium_equals_quantile_integral():
    mm, bm = two_margin_map(cp.ComonotoneCopula(2))
    payoff = va.Layer(0.5, 2.0)
    prem = cp.multi_layer_premium(mm, [bm, bm], 0, payoff, 0.0, 1.0, 0.05,
                                  va.MCSettings(200_000, 19))
    disc = math.exp(-0.05)
    oracle, _ = integrate.quad(
        lambda p: float(payoff(np.asarray(tr.quantile_eval(mm.quantile, 1.0, p)))),
        1e-12, 1 - 1e-12, limit=400)
    assert abs(prem.price - disc * oracle) <= 3.0 * prem.std_error


def test_clayton_theta_sweep_runs_with_common_randoms():
    # stronger lower-tail dependence, common random numbers: the premium
    # direction is recorded empirically, not asserted a priori
    bm = d.Brownian()
    payoff = va.Layer(0.5, 2.0)
    prices = []
    for theta in (0.5, 1.0, 2.0, 4.0):
        mm = cp.MultiCompositeMap(margins=(bm, bm),
                                  copula=cp.ClaytonCopula(theta, 2),
                                  quantile=tr.TukeyG(0, 1, 0.4))
        prem = cp.multi_layer_premium(mm, [bm, bm], 0, payoff, 0.0, 1.0, 0.0,
                                      va.MCSettings(100_000, 23))
        prices.append(prem.price)
    diffs = np.diff(prices)
    assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)


def _kendall_premium(copula, q, payoff, disc):
    """disc * int V(Q(v)) K'(v) dv, split at the payoff's kinks, from the closed-form
    Kendall derivative: the law of C(U) is K, so Z = Q(C(U)) has this expectation."""
    dK = copula.kendall_derivative(1.0)
    v1, v2 = (float(q.cdf(1.0, z)) for z in (payoff.a, payoff.b))
    value, _ = integrate.quad(lambda v: float(payoff(q.quantile(1.0, v)) * dK(v)), v1, 1.0,
                              points=[v2], epsabs=1e-13, epsrel=1e-12, limit=200)
    return disc * value


@pytest.mark.parametrize("copula", [cp.ClaytonCopula(0.5), cp.ClaytonCopula(2.0),
                                    cp.ClaytonCopula(6.0), cp.GumbelCopula(1.2),
                                    cp.GumbelCopula(2.0), cp.GumbelCopula(4.0)],
                         ids=lambda c: f"{c.family}-{c.theta}")
def test_archimedean_premium_matches_the_kendall_integral(copula):
    mm, bm = two_margin_map(copula)
    payoff = va.Layer(0.5, 2.0)
    prem = cp.multi_layer_premium(mm, [bm, bm], 0, payoff, 0.0, 1.0, 0.05,
                                  va.MCSettings(200_000, 37))
    want = _kendall_premium(copula, mm.quantile, payoff, math.exp(-0.05))
    assert abs(prem.price - want) <= 3.0 * prem.std_error


def _textbook_cdf(copula, u):
    """C(u) in levels, straight from each family's definition."""
    th = getattr(copula, "theta", None)
    return {"Independence": lambda: np.prod(u, axis=-1),
            "Comonotone": lambda: np.min(u, axis=-1),
            "Clayton": lambda: (np.sum(u ** -th, axis=-1) - (u.shape[-1] - 1)) ** (-1.0 / th),
            "Gumbel": lambda: np.exp(-np.sum((-np.log(u)) ** th, axis=-1) ** (1.0 / th)),
            "GaussianCopula": lambda: copula.cdf(1.0, u)}[copula.family]()


@pytest.mark.parametrize("copula", [cp.IndependenceCopula(3), cp.ComonotoneCopula(3),
                                    cp.ClaytonCopula(2.0, 3), cp.GumbelCopula(1.7, 3),
                                    cp.GumbelCopula(1.0, 2),
                                    cp.GaussianCopula(np.array([[1.0, 0.6], [0.6, 1.0]]))],
                         ids=lambda c: f"{c.family}-{c.dim}")
def test_log_cdf_is_the_log_of_the_copula_at_its_draws(copula):
    # each family's log C from log U against log C(exp(log U)) in levels: to 1e-12 of
    # |log C|, plus the round-off of a level near 1 carried into its log
    log_u = copula.log_sample(1.0, 20_000, np.random.default_rng(41))
    assert log_u.shape == (20_000, copula.dim) and np.all(log_u <= 0.0)
    got = copula.log_cdf(1.0, log_u)
    want = np.log(_textbook_cdf(copula, np.exp(log_u)))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 4.0 * np.finfo(float).eps)
    np.testing.assert_allclose(copula.cdf(1.0, np.exp(log_u)), np.exp(got), rtol=1e-13, atol=0.0)


def test_false_law_premium_composes_the_terminal_draws():
    # a FalseLaw premium with false margins is the mean payoff of apply_multi_composite
    # over simulate_joint_terminal's draws: both read the copula in the same blocks
    bm, ou = d.Brownian(), d.InhomogeneousOU(1.0, 0.2, 0.8, 0.1)
    mm = cp.MultiCompositeMap(margins=(tr.GaussianLaw(0.3, 1.2), tr.GaussianLaw(-0.1, 0.7)),
                              copula=cp.ClaytonCopula(2.0), quantile=tr.TukeyG(0, 1, 0.4),
                              mode=cp.MultiMode.FALSE_LAW)
    payoff, n = va.Layer(0.5, 2.0), va._BLOCK + 30_000
    prem = cp.multi_layer_premium(mm, [bm, ou], 1, payoff, 0.0, 1.0, 0.05, va.MCSettings(n, 43))
    ens = cp.simulate_joint_terminal([bm, ou], mm.copula, 1.0, n, 43)
    v = payoff(cp.apply_multi_composite(mm, ens).paths[:, 0])
    disc = math.exp(-0.05)
    assert prem.price == pytest.approx(disc * float(np.mean(v)), rel=1e-13)
    assert prem.std_error == pytest.approx(disc * float(np.std(v, ddof=1)) / math.sqrt(n), rel=1e-10)
    raw = disc * float(np.mean(ens[1].paths[:, 0]))
    assert prem.risk_loading == pytest.approx(prem.price - raw, rel=1e-12)


def test_true_law_premium_over_poisson_drivers_composes_the_terminal_draws():
    # a Poisson driver's CDF at its drawn count is a step level above U, so Q(C(U)) is
    # not its composite: the premium composes the drawn counts, as apply_multi_composite
    # does over simulate_joint_terminal's draws
    p1, p2 = d.InhomogeneousPoisson(3.0), d.InhomogeneousPoisson(lambda t: 1.0 + t)
    mm = cp.MultiCompositeMap(margins=(p1, p2), copula=cp.ClaytonCopula(2.0),
                              quantile=tr.TukeyG(0, 1, 0.4))
    payoff, n = va.Layer(0.5, 2.0), va._BLOCK + 5_000
    prem = cp.multi_layer_premium(mm, [p1, p2], 0, payoff, 0.0, 1.0, 0.05, va.MCSettings(n, 53))
    ens = cp.simulate_joint_terminal([p1, p2], mm.copula, 1.0, n, 53)
    v = payoff(cp.apply_multi_composite(mm, ens).paths[:, 0])
    disc = math.exp(-0.05)
    assert prem.price == pytest.approx(disc * float(np.mean(v)), rel=1e-13)
    raw = disc * float(np.mean(ens[0].paths[:, 0]))
    assert prem.risk_loading == pytest.approx(prem.price - raw, rel=1e-12)
    # the continuous reading Q(C(U)) would price a different law
    want = _kendall_premium(mm.copula, mm.quantile, payoff, disc)
    assert abs(prem.price - want) > 10.0 * prem.std_error


@pytest.mark.parametrize("copula", [cp.ClaytonCopula(100.0), cp.GumbelCopula(50.0),
                                    cp.GumbelCopula(1000.0)],
                         ids=lambda c: f"{c.family}-{c.theta}")
def test_premium_is_finite_at_strong_dependence(copula):
    # the frailty of a Clayton draw at theta = 100 underflows about once in a thousand
    # draws, and (-log u)^theta leaves the floats at large Gumbel theta; both are read in
    # logs, so every level and every premium stays finite
    log_u = copula.log_sample(1.0, 100_000, np.random.default_rng(59))
    log_c = copula.log_cdf(1.0, log_u)
    assert np.all(np.isfinite(log_u)) and np.all(log_u <= 0.0)
    assert np.all(np.isfinite(log_c)) and np.all(log_c <= log_u.min(axis=1))
    mm, bm = two_margin_map(copula)
    for payoff in (va.Linear(), va.Layer(0.5, 2.0)):
        prem = cp.multi_layer_premium(mm, [bm, bm], 0, payoff, 0.0, 1.0, 0.05,
                                      va.MCSettings(100_000, 61))
        assert all(math.isfinite(v) for v in (prem.price, prem.std_error, prem.risk_loading))
    want = _kendall_premium(copula, mm.quantile, payoff, math.exp(-0.05))
    assert abs(prem.price - want) <= 3.0 * prem.std_error


def test_premium_memory_is_flat_in_the_path_count():
    import tracemalloc

    mm, bm = two_margin_map(cp.GumbelCopula(2.0))

    def peak(n):
        tracemalloc.start()
        try:
            cp.multi_layer_premium(mm, [bm, bm], 0, va.Layer(0.5, 2.0), 0.0, 1.0, 0.0,
                                   va.MCSettings(n, 47))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1 << 20) <= 1.5 * peak(1 << 17)


def test_true_joint_law_premium_accepts_drivers_equal_to_their_margins():
    # drivers compare by value: margins built apart from the drivers are their true laws
    ou = lambda: d.InhomogeneousOU(1.0, 0.2, 0.8)
    mm = cp.MultiCompositeMap(margins=(ou(), d.Brownian()), copula=cp.ClaytonCopula(2.0),
                              quantile=tr.TukeyG(0, 1, 0.4))
    shared, twins = (cp.multi_layer_premium(mm, drs, 0, va.Layer(0.5, 2.0), 0.0, 1.0, 0.05,
                                            va.MCSettings(20_000, 7))
                     for drs in (list(mm.margins), [ou(), d.Brownian()]))
    assert twins == shared


@pytest.mark.parametrize("payoff, h, error, match",
                         [(InfLinear(), 0.0, RequestError, "non-finite"),
                          (va.Linear(), 40.0, NumericError, "standard error")],
                         ids=["inf-value", "inf-se"])
@pytest.mark.parametrize("mode", [cp.MultiMode.TRUE_JOINT_LAW, cp.MultiMode.FALSE_LAW])
def test_premium_raises_on_a_non_finite_value_or_standard_error(payoff, h, error, match, mode):
    # at h = 40 every Z is finite, but their squared deviations leave the floats
    mm, bm = two_margin_map(cp.IndependenceCopula(2), tr.TukeyGH(0, 1, 0.5, h))
    if mode == cp.MultiMode.FALSE_LAW:
        mm = replace(mm, margins=(tr.GaussianLaw(0.0, 1.0),) * 2, mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            cp.multi_layer_premium(mm, [bm, bm], 0, payoff, 0.0, 1.0, 0.0,
                                   va.MCSettings(20_000, 1))


def test_premium_payoff_kinds_guarded():
    mm, bm = two_margin_map(cp.IndependenceCopula(2))
    with pytest.raises(RequestError):
        cp.multi_layer_premium(mm, [bm, bm], 0, va.PowerUtility(0.5), 0.0, 1.0, 0.0,
                               va.MCSettings(10_000, 1))
    with pytest.raises(RequestError):
        cp.multi_layer_premium(mm, [bm, bm], 5, va.Layer(1, 2), 0.0, 1.0, 0.0,
                               va.MCSettings(10_000, 1))


# ---------------------------------------------------------------------------
# multidimensional density ratio
# ---------------------------------------------------------------------------

def test_multi_ratio_comonotone_identity():
    bm = d.Brownian()
    mm = cp.MultiCompositeMap(margins=(bm, bm),
                              copula=cp.ComonotoneCopula(2),
                              quantile=tr.GaussianLaw(0.0, 1.0))
    ys = np.linspace(-2, 2, 9)
    rho = cp.multi_rn_derivative(mm, 1.0, ys, tr.GaussianLaw(0.0, 1.0))
    assert np.max(np.abs(rho - 1.0)) < 1e-9


def test_multi_ratio_normalizes():
    bm = d.Brownian()
    mm = cp.MultiCompositeMap(margins=(bm, bm),
                              copula=cp.IndependenceCopula(2),
                              quantile=tr.TukeyG(0, 1, 0.4))
    rng = np.random.default_rng(29)
    y = rng.standard_normal(200_000)
    rho = cp.multi_rn_derivative(mm, 1.0, y, tr.GaussianLaw(0.0, 1.0))
    se = rho.std(ddof=1) / math.sqrt(y.size)
    assert abs(rho.mean() - 1.0) <= 3.5 * se


def test_multi_ratio_matches_cdf_finite_differences():
    bm = d.Brownian()
    mm = cp.MultiCompositeMap(margins=(bm, bm),
                              copula=cp.IndependenceCopula(2),
                              quantile=tr.TukeyG(0, 1, 0.4))
    base = tr.GaussianLaw(0.0, 1.0)
    h = 1e-5
    for y in (-0.8, 0.1, 1.2):
        num = (float(cp.multi_distorted_cdf(mm, 1.0, y + h))
               - float(cp.multi_distorted_cdf(mm, 1.0, y - h))) / (2 * h)
        want = num / float(base.pdf(1.0, y))
        got = float(cp.multi_rn_derivative(mm, 1.0, y, base))
        assert got == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("copula", [cp.GaussianCopula(np.array([[1.0, 0.5], [0.5, 1.0]])),
                                    cp.ClaytonCopula(1.5, 3)], ids=["gaussian", "clayton-3d"])
def test_multi_ratio_refuses_copulas_without_an_exact_kendall_derivative(copula):
    bm = d.Brownian()
    mm = cp.MultiCompositeMap(margins=(bm,) * copula.dim, copula=copula,
                              quantile=tr.TukeyGH(0, 1, 0.3, 0.1))
    with pytest.raises(CapabilityError):
        cp.multi_rn_derivative(mm, 1.0, 0.0, tr.GaussianLaw(0.0, 1.0))


def test_kendall_order_implies_fosd_of_true_joint_law_outputs():
    # comonotone dominates independence in the Kendall order; with a common
    # quantile family the multidimensional outputs order first-order
    bm = d.Brownian()
    q = tr.TukeyG(0, 1, 0.4)
    mm_com = cp.MultiCompositeMap(margins=(bm, bm),
                                  copula=cp.ComonotoneCopula(2), quantile=q)
    mm_ind = cp.MultiCompositeMap(margins=(bm, bm),
                                  copula=cp.IndependenceCopula(2), quantile=q)
    rep = dom.fosd_check(lambda z: np.asarray(cp.multi_distorted_cdf(mm_com, 1.0, z)),
                         lambda z: np.asarray(cp.multi_distorted_cdf(mm_ind, 1.0, z)),
                         (-1.0 / 0.4 + 1e-6, np.inf))
    assert rep.order == "FOSD" and rep.direction == 1
