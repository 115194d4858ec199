import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from quantproc import drivers as d
from quantproc import transforms as tr
from quantproc._util import (_gamma_cdf, _gamma_pdf, _gamma_ppf, _poisson_cdf, _poisson_pmf,
                             _poisson_ppf)
from quantproc.errors import (CapabilityError, MappingError, ParameterError,
                              SimulationError)

from conftest import ks_critical, ks_statistic_uniform


# ---------------------------------------------------------------------------
# grids and ensembles
# ---------------------------------------------------------------------------

def test_grid_must_increase():
    with pytest.raises(ParameterError):
        d.TimeGrid(np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        d.TimeGrid(np.array([-0.5, 1.0]))
    g = d.TimeGrid(np.array([0.5, 1.0, 2.0]))
    assert len(g) == 3


def test_grid_requires_positive_start_for_marginals():
    g = d.TimeGrid(np.array([0.0, 1.0]))
    with pytest.raises(ParameterError):
        g.require_positive()


def test_ensemble_shape_checked():
    g = d.TimeGrid(np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        d.PathEnsemble(grid=g, paths=np.zeros((4, 3)), seed=0, driver=d.Brownian())


def test_simulate_rejects_bad_requests():
    g = d.TimeGrid(np.array([1.0]))
    with pytest.raises(ParameterError):
        d.simulate(d.Brownian(), g, 0, 1)
    with pytest.raises(ParameterError):
        d.simulate(d.InhomogeneousOU(sigma=-1.0), g, 10, 1)
    with pytest.raises(ParameterError):
        d.simulate(d.VarianceGamma(nu=0.0), g, 10, 1)
    with pytest.raises(ParameterError):
        d.simulate(d.GammaProcess(mean_rate=0.0), g, 10, 1)


def test_seed_determinism_bit_exact():
    g = d.TimeGrid(np.array([0.3, 0.9, 1.7]))
    for driver in (d.Brownian(), d.InhomogeneousOU(1.0, 0.1, 0.7, 0.2),
                   d.VarianceGamma(0.1, 1.0, 0.4), d.GammaProcess(1.0, 0.5),
                   d.InhomogeneousPoisson(intensity=2.0)):
        a = d.simulate(driver, g, 500, 1234)
        b = d.simulate(driver, g, 500, 1234)
        assert np.array_equal(a.paths, b.paths)
        c = d.simulate(driver, g, 500, 1235)
        assert not np.array_equal(a.paths, c.paths)


# ---------------------------------------------------------------------------
# marginal laws
# ---------------------------------------------------------------------------

def test_brownian_terminal_moments():
    ens = d.simulate(d.Brownian(), d.TimeGrid(np.array([1.0])), 1_000_000, 7)
    y = ens.paths[:, 0]
    assert abs(y.mean()) < 4e-3
    assert abs(y.var() - 1.0) < 0.01


def test_ou_variance_closed_form_and_quadrature():
    # dY = (0 - Y) dt + dW from 0: var(t) = (1 - e^{-2t}) / 2
    ou = d.InhomogeneousOU(theta=1.0, mu=0.0, sigma=1.0, y0=0.0)
    ens = d.simulate(ou, d.TimeGrid(np.array([0.5, 2.0])), 400_000, 11)
    want = (1.0 - math.exp(-4.0)) / 2.0
    got = ens.paths[:, 1].var()
    assert abs(got - want) < 4.0 * want * math.sqrt(2.0 / 400_000)
    # the quadrature-based marginal matches the closed form
    _, sd = ou.marginal_mean_std(2.0)
    assert sd ** 2 == pytest.approx(want, abs=1e-10)
    # independent oracle: brute-force quadrature of the variance integrand
    oracle = math.exp(-4.0) * integrate.quad(lambda s: math.exp(2 * s), 0, 2)[0]
    assert sd ** 2 == pytest.approx(oracle, abs=1e-9)


def test_ou_time_dependent_parameters():
    ou = d.InhomogeneousOU(theta=lambda t: 1.0 + 0.5 * t, mu=lambda t: 0.3,
                           sigma=lambda t: 0.5 + 0.1 * t, y0=0.2)
    m, sd = ou.marginal_mean_std(1.0)
    # brute-force the three time integrals independently
    th = lambda s: 1.0 + 0.5 * s
    Theta = lambda t: integrate.quad(th, 0, t)[0]
    drift = integrate.quad(lambda s: math.exp(Theta(s)) * th(s) * 0.3, 0, 1)[0]
    var = integrate.quad(lambda s: math.exp(2 * Theta(s)) * (0.5 + 0.1 * s) ** 2, 0, 1)[0]
    assert m == pytest.approx(math.exp(-Theta(1.0)) * (0.2 + drift), rel=1e-9)
    assert sd == pytest.approx(math.exp(-Theta(1.0)) * math.sqrt(var), rel=1e-9)


def test_marginal_cdf_symmetry_points():
    assert d.marginal_cdf(d.Brownian(), 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)
    ou = d.InhomogeneousOU(1.0, 0.0, 1.0, 0.0)
    assert d.marginal_cdf(ou, 2.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    vg = d.VarianceGamma(0.0, 1.0, 0.5)
    assert d.marginal_cdf(vg, 1.0, 0.0) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ParameterError):
        d.marginal_cdf(d.Brownian(), 0.0, 0.0)


def test_marginal_cdf_monotone_in_y():
    vg = d.VarianceGamma(0.3, 0.8, 0.6)
    ys = np.linspace(-6, 6, 201)
    cdf = vg.cdf(1.3, ys)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[0] < 1e-4 and cdf[-1] > 1 - 1e-4


def test_vg_variance_and_gamma_difference_vs_time_change():
    vg = d.VarianceGamma(0.0, 1.0, 0.5)
    n = 400_000
    ens = d.simulate(vg, d.TimeGrid(np.array([1.0])), n, 3)
    assert abs(ens.paths.var() - 1.0) < 0.02
    # same law from the alternative time-changed-Brownian sampler
    rng = np.random.default_rng(99)
    alt = vg.sample_transition_time_changed(rng, 0.0, 1.0, np.zeros(n))
    stat = stats.ks_2samp(ens.paths[:, 0], alt).statistic
    assert stat < 1.63 * math.sqrt(2.0 * n / (n * n))


def test_vg_cdf_against_direct_double_integral():
    vg = d.VarianceGamma(0.2, 0.9, 0.7)
    t = 0.8
    a = t / vg.nu
    for y in (-1.0, 0.3, 1.5):
        direct, _ = integrate.quad(
            lambda u: stats.norm.cdf((y - vg.mu_vg * u) / (vg.sigma_vg * math.sqrt(u)))
            * stats.gamma.pdf(u, a, scale=vg.nu), 0, np.inf, limit=400)
        assert float(vg.cdf(t, y)) == pytest.approx(direct, abs=1e-8)


def _vg_cdf_by_gamma_mixture(vg, t, y):
    """F(y) = E Phi((y - mu G) / (sigma sqrt G)), G ~ Gamma(t/nu, scale nu), by quadrature in log G.

    Below u0 the normal factor sits at its G -> 0 limit (1/2 at y = 0) to 1e-15,
    and the mass there is the gamma CDF at u0; small shapes put most of it there.
    """
    a = t / vg.nu
    limit, u0 = (0.5, 1e-30) if y == 0 else (float(y > 0), (abs(y) / (10.0 * vg.sigma_vg)) ** 2)
    log_dens = lambda v: a * v - math.exp(v) / vg.nu - special.gammaln(a) - a * math.log(vg.nu)
    body, _ = integrate.quad(
        lambda v: stats.norm.cdf((y - vg.mu_vg * math.exp(v)) / (vg.sigma_vg * math.exp(0.5 * v)))
        * math.exp(log_dens(v)), math.log(u0), math.log(vg.nu * (a + 80.0)), epsabs=1e-13, limit=400)
    return limit * special.gammainc(a, u0 / vg.nu) + body


@pytest.mark.parametrize("t", [1e-5, 1e-3])
def test_vg_cdf_at_small_times(t):
    # the small-shape regime (t/nu = 2e-5 and 2e-3), where most of the mass sits
    # within 1e-100 of the cusp
    vg = d.VarianceGamma(0.1, 0.3, 0.5)
    ys = np.array([-0.05, -1e-2, -1e-3, -1e-6, 0.0, 1e-9, 1e-3, 1e-2, 0.05])
    cdf = vg.cdf(t, ys)
    assert np.all(np.isfinite(cdf)) and np.all(np.diff(cdf) > 0)
    for y, got in zip(ys, cdf):
        assert got == pytest.approx(_vg_cdf_by_gamma_mixture(vg, t, y), abs=1e-8)
    grid = vg.cdf(t, np.sort(np.concatenate([np.linspace(-1, 1, 201), np.geomspace(1e-300, 1, 50),
                                                       -np.geomspace(1e-300, 1, 50)])))
    assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) >= 0)


def test_vg_transition_pdf_over_a_short_step():
    # t - s = 1e-3: the increment law is singular at 0 when (t - s)/nu <= 1/2
    vg = d.VarianceGamma(0.1, 0.3, 0.5)
    dens = vg.transition_pdf(0.5, 0.501, 0.0, [0.0, 1e-3])
    assert dens[0] == np.inf
    assert np.isfinite(dens[1]) and dens[1] == pytest.approx(vg.pdf(1e-3, 1e-3), rel=1e-12)
    flat = d.VarianceGamma(0.1, 0.3, 1.5e-3)  # (t - s)/nu = 2/3: a finite cusp
    assert np.all(np.isfinite(flat.transition_pdf(0.5, 0.501, 0.0, [0.0, 1e-3])))


@pytest.mark.parametrize("t", [1e-3, 1.0, 10.0])
def test_vg_quantile_inverts_cdf(t):
    vg = d.VarianceGamma(0.1, 0.3, 0.5)
    u = np.linspace(1e-6, 1 - 1e-6, 1001)
    q = vg.quantile(t, u)
    assert np.all(np.diff(q) >= 0)
    # F crosses u between the floats either side of Q(u): at t = 1e-3 the law puts
    # a few percent of its mass within the smallest subnormal of the cusp
    lower = vg.cdf(t, np.nextafter(q, -np.inf))
    upper = vg.cdf(t, np.nextafter(q, np.inf))
    assert np.all((lower - 1e-10 <= u) & (u <= upper + 1e-10))
    resolved = upper - lower <= 1e-10
    assert resolved.all() if t >= 1.0 else resolved.mean() > 0.9
    assert np.all(np.abs(vg.cdf(t, q[resolved]) - u[resolved]) <= 1e-10)


def test_vg_pdf_cusp_value():
    mu, sigma, nu = 0.1, 0.3, 0.5
    vg = d.VarianceGamma(mu, sigma, nu)
    c = 2.0 * sigma ** 2 / nu + mu ** 2
    # t/nu <= 1/2: the density is infinite at the cusp and finite beside it
    for t in (0.2, 0.25):
        dens = vg.pdf(t, np.array([0.0, 1e-12, 1e-6]))
        assert dens[0] == np.inf and np.isfinite(dens[1]) and dens[1] > dens[2] > 0
    # t/nu > 1/2: the finite limit Gamma(a - 1/2) (2 sigma^2/c)^(a - 1/2) / (nu^a sqrt(2 pi) sigma Gamma(a));
    # at t = 50 the Bessel order is 99.5, where kve overflows beside the cusp
    for t in (0.35, 0.5, 2.0, 50.0):
        a = t / nu
        want = (special.gamma(a - 0.5) * (2.0 * sigma ** 2 / c) ** (a - 0.5)
                / (nu ** a * math.sqrt(2.0 * math.pi) * sigma * special.gamma(a)))
        assert vg.pdf(t, 0.0) == pytest.approx(want, rel=1e-13)
        assert vg.pdf(t, [-1e-14, 1e-14]) == pytest.approx([want, want], rel=1e-4)
    assert vg.pdf(0.5, 0.0) == pytest.approx(1.0 / (nu * math.sqrt(c)), rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(-1.0, 1.0), sigma=st.floats(0.05, 2.0), nu=st.floats(0.05, 2.0),
       log_t=st.floats(-5.0, 1.0))
# the CDF is 1 from y = 0.05 on here, so the 1 - 1e-15 quantile needs the upper tail's own table
@example(mu=-1.0, sigma=0.0546875, nu=1.5, log_t=-0.46484375)
def test_vg_law_properties(mu, sigma, nu, log_t):
    t = 10.0 ** log_t
    vg = d.VarianceGamma(mu, sigma, nu)
    lo, hi = vg.quantile(t, [1e-15, 1 - 1e-15])
    # the CDF is finite, in [0, 1] and monotone; 1/kappa is the scale of the Bessel argument
    width = sigma ** 2 / math.sqrt(2.0 * sigma ** 2 / nu + mu ** 2)
    ys = np.sort(np.concatenate([np.linspace(lo, hi, 301), width * np.geomspace(1e-12, 1.0, 40),
                                 -width * np.geomspace(1e-12, 1.0, 40), [0.0]]))
    cdf = vg.cdf(t, ys)
    assert np.all(np.isfinite(cdf)) and cdf.min() >= 0.0 and cdf.max() <= 1.0
    assert np.all(np.diff(cdf) >= 0)
    # the density integrates to one; near the cusp its singular factor
    # |y|^(2t/nu - 1) is the quadrature's algebraic weight
    a = t / nu
    b = min(width, 0.5 * min(-lo, hi)) if lo < 0 < hi else width
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    pdf = lambda y: float(vg.pdf(t, y))
    mass = 0.0
    if lo < -b:
        mass += integrate.quad(pdf, lo, -b, **opts)[0]
    if hi > b:
        mass += integrate.quad(pdf, b, hi, **opts)[0]
    for side in (-1.0, 1.0):
        if a <= 0.5:
            beta = 2.0 * a - 1.0
            smooth = lambda u: pdf(side * max(u, 1e-300)) / max(u, 1e-300) ** beta
            mass += integrate.quad(smooth, 0.0, b, weight="alg", wvar=(beta, 0.0), **opts)[0]
        else:
            mass += integrate.quad(lambda u: pdf(side * u), 0.0, b, **opts)[0]
    assert mass == pytest.approx(1.0, abs=1e-9)
    # Q is increasing
    assert np.all(np.diff(vg.quantile(t, np.linspace(1e-6, 1 - 1e-6, 101))) >= 0)


def test_vg_quantile_is_nan_at_a_nan_level():
    vg = d.VarianceGamma(-0.1, 0.3, 0.4)
    assert math.isnan(vg.quantile(1.0, float("nan")))
    y = vg.quantile(1.0, [0.3, float("nan"), 0.9])
    assert np.isnan(y[1]) and np.all(np.isfinite(y[[0, 2]]))
    assert np.allclose(vg.cdf(1.0, y[[0, 2]]), [0.3, 0.9], rtol=0.0, atol=1e-14)


def test_vg_rejects_non_finite_drift():
    vg = d.VarianceGamma(float("nan"), 0.3, 0.5)
    with pytest.raises(ParameterError):
        vg.validate()
    with pytest.raises(ParameterError):
        vg.cdf(1.0, [0.1])


def test_marginal_laws_reject_times_below_min_time():
    for driver in (d.Brownian(), d.InhomogeneousOU(1.0, 0.0, 1.0, 0.0), d.VarianceGamma(0.1, 0.3, 0.5)):
        for t in (0.0, 0.5 * d.MIN_TIME, float("nan")):
            with pytest.raises(ParameterError):
                driver.cdf(t, [0.1, 0.0])
            with pytest.raises(ParameterError):
                driver.pdf(t, [0.1, 0.0])
            with pytest.raises(ParameterError):
                driver.quantile(t, [0.5])
    assert np.isfinite(d.Brownian().cdf(d.MIN_TIME, [0.1, 0.0])).all()


@pytest.mark.parametrize("call", [
    lambda: d.GammaProcess().cdf(0.0, [0.1, 1.0]),
    lambda: d.GammaProcess().pdf(0.0, [0.1, 1.0]),
    lambda: d.GammaProcess().quantile(0.5 * d.MIN_TIME, [0.5]),
    lambda: d.InhomogeneousPoisson().cdf(-1.0, [0.0, 1.0]),
    lambda: d.InhomogeneousPoisson().pmf(-1.0, [0, 1]),
    lambda: d.InhomogeneousPoisson().quantile(0.5 * d.MIN_TIME, [0.5]),
    lambda: d.InhomogeneousOU().transition_pdf(0.5, 0.5, 0.0, [0.1]),
    lambda: d.Brownian().transition_pdf(0.6, 0.5, 0.0, [0.1]),
    lambda: d.GammaProcess().transition_pdf(0.5, 0.5, 0.0, [0.1]),
    lambda: d.GammaProcess().transition_pdf(-0.5, 0.5, 0.0, [0.1]),
], ids=["gamma-cdf", "gamma-pdf", "gamma-quantile", "poisson-cdf", "poisson-pmf", "poisson-quantile",
        "ou-transition-empty-step", "brownian-transition-backward", "gamma-transition-empty-step",
        "gamma-transition-negative-start"])
def test_laws_off_the_time_domain_raise_a_typed_error(call):
    # each returned NaN, a silent value, or an untyped ValueError
    with pytest.raises(ParameterError):
        call()


def test_gamma_steps_below_min_time_still_sample():
    # the time check sits on the marginal laws, not on the gamma step
    ens = d.simulate(d.GammaProcess(), d.TimeGrid(np.array([1.0, 1.0 + 1e-8])), 10, 1)
    assert np.all(np.diff(ens.paths, axis=1) >= 0)


def test_gamma_process_marginal_moments():
    gp = d.GammaProcess(mean_rate=1.4, variance_rate=0.6)
    ens = d.simulate(gp, d.TimeGrid(np.array([2.0])), 300_000, 5)
    y = ens.paths[:, 0]
    assert y.mean() == pytest.approx(2.8, abs=0.02)
    assert y.var() == pytest.approx(1.2, abs=0.03)
    assert np.all(y >= 0)


# the gamma and Poisson laws in special functions, against scipy.stats bit for bit:
# interior draws, and the edges where the bare formulas differ (below the support,
# non-integer counts, u in {0, 1}, NaN, +-inf, a zero Poisson mean); only the
# densities at +inf differ, 0 where scipy.stats gives NaN
_EDGES = np.array([-np.inf, -3.0, -1.0, -0.5, -1e-300, 0.0, 1e-300, 0.5, 1.0, 2.5, 3.0, 50.0,
                   1e6, np.inf, np.nan])
_LEVEL_EDGES = np.array([-0.1, 0.0, 1e-300, 1.0, 1.1, np.nan])


def _same_bits(got, want):
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("shape", [0.3, 1.0, 2.5, 40.0])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_gamma_law_matches_scipy_stats(shape, scale):
    rng = np.random.default_rng(11)
    y = np.concatenate([_EDGES, rng.gamma(shape, scale, 10_000)])
    u = np.concatenate([_LEVEL_EDGES, rng.uniform(size=10_000)])
    with np.errstate(invalid="ignore"):  # scipy.stats forms inf - inf at y = inf
        _same_bits(_gamma_cdf(y, shape, scale), stats.gamma.cdf(y, shape, scale=scale))
        _same_bits(_gamma_pdf(y, shape, scale),
                   np.where(y == np.inf, 0.0, stats.gamma.pdf(y, shape, scale=scale)))
    _same_bits(_gamma_ppf(u, shape, scale), stats.gamma.ppf(u, shape, scale=scale))
    for y0 in (-1.0, 0.0, 0.7, np.nan):  # scalars stay scalars
        _same_bits(_gamma_cdf(y0, shape, scale), stats.gamma.cdf(y0, shape, scale=scale))


@pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 1.0, 3.7, 20.0, 400.0])
def test_poisson_law_matches_scipy_stats(mean):
    rng = np.random.default_rng(12)
    k = np.concatenate([_EDGES, rng.poisson(mean, 10_000).astype(float),
                        rng.uniform(-2.0, 3.0 * mean + 5.0, 1_000)])
    u = np.concatenate([_LEVEL_EDGES, [math.exp(-mean)], rng.uniform(size=10_000)])
    with np.errstate(invalid="ignore"):  # scipy.stats forms inf - inf at k = inf
        _same_bits(_poisson_cdf(k, mean), stats.poisson.cdf(k, mean))
        _same_bits(_poisson_pmf(k, mean), np.where(k == np.inf, 0.0, stats.poisson.pmf(k, mean)))
    _same_bits(_poisson_ppf(u, mean), stats.poisson.ppf(u, mean))
    ints = rng.poisson(mean, 100)
    _same_bits(_poisson_pmf(ints, mean), stats.poisson.pmf(ints, mean))
    _same_bits(_poisson_pmf(2, mean), stats.poisson.pmf(2, mean))


def test_ou_ensemble_matches_erf_marginal_everywhere():
    ou = d.InhomogeneousOU(theta=0.8, mu=0.4, sigma=1.1, y0=-0.3)
    grid = d.TimeGrid(np.array([0.25, 0.75, 1.5]))
    ens = d.simulate(ou, grid, 100_000, 17)
    for k, t in enumerate(grid.times):
        u = ou.cdf(t, ens.paths[:, k])
        assert ks_statistic_uniform(u) < ks_critical(100_000)


# ---------------------------------------------------------------------------
# uniformize
# ---------------------------------------------------------------------------

def test_uniformize_brownian_ks():
    ens = d.simulate(d.Brownian(), d.TimeGrid(np.array([1.0])), 100_000, 23)
    u = d.uniformize(d.Brownian(), ens)
    stat = ks_statistic_uniform(u.paths[:, 0])
    assert stat < ks_critical(100_000)
    assert np.all((u.paths > 0) & (u.paths < 1))


def test_uniformize_ou_ks_cross_checked():
    ou = d.InhomogeneousOU(0.9, -0.2, 0.7, 0.5)
    ens = d.simulate(ou, d.TimeGrid(np.array([0.5])), 100_000, 29)
    u = d.uniformize(ou, ens).paths[:, 0]
    stat = ks_statistic_uniform(u)
    assert stat < ks_critical(100_000)
    # independent implementation agrees on the statistic
    alt = stats.kstest(u, "uniform").statistic
    assert stat == pytest.approx(alt, abs=1e-12)


def test_uniformize_vg_and_gamma_validate_cdf_against_sampler():
    # the probability integral transform ties each exact-increment sampler to
    # its quadrature/closed-form marginal law
    for driver in (d.VarianceGamma(0.2, 0.9, 0.6), d.GammaProcess(1.3, 0.7)):
        ens = d.simulate(driver, d.TimeGrid(np.array([0.8])), 50_000, 37)
        u = d.uniformize(driver, ens).paths[:, 0]
        assert ks_statistic_uniform(u) < ks_critical(50_000)


def test_uniformize_needs_positive_grid():
    ou = d.InhomogeneousOU(1.0, 0.0, 1.0, 0.0)
    ens = d.PathEnsemble(grid=d.TimeGrid(np.array([0.0, 1.0])),
                         paths=np.zeros((3, 2)), seed=0, driver=ou)
    with pytest.raises(ParameterError):
        d.uniformize(ou, ens)


def test_uniformize_rejects_discrete_driver():
    lam = d.InhomogeneousPoisson(intensity=1.0)
    ens = d.simulate(lam, d.TimeGrid(np.array([1.0])), 10, 3)
    with pytest.raises(CapabilityError):
        d.uniformize(lam, ens)


# ---------------------------------------------------------------------------
# Poisson machinery
# ---------------------------------------------------------------------------

def test_poisson_driver_quantile_is_the_poisson_quantile():
    # at t = 2 the family's mean rate * t is the driver's Lambda(t) to the bit
    lam, t = d.InhomogeneousPoisson(intensity=lambda s: 1.0 + s), 2.0
    q = tr.PoissonQuantile(rate=lam.cumulative_intensity(t) / t)
    u = np.array([0.0, 0.2, 0.9, 1.0, np.nan])
    assert np.array_equal(lam.quantile(t, u), q.quantile(t, u), equal_nan=True)
    # its scores pass through the level, so from_score ends instead of recursing
    x = np.array([-2.0, 0.0, 1.5])
    assert np.array_equal(lam.from_score(t, x), q.from_score(t, x))


def test_marginal_names_read_the_law_maps():
    # the older marginal_* names, which the benchmark still calls, are the Law maps
    y, u = np.array([-0.4, 0.0, 0.9]), np.array([0.1, 0.5, 0.8])
    for driver in (d.Brownian(0.2), d.VarianceGamma(-0.1, 0.3, 0.4), d.GammaProcess(1.2, 0.6)):
        assert np.array_equal(driver.marginal_cdf(1.5, y), driver.cdf(1.5, y))
        assert np.array_equal(driver.marginal_pdf(1.5, y), driver.pdf(1.5, y))
        assert np.array_equal(driver.marginal_quantile(1.5, u), driver.quantile(1.5, u))


def test_poisson_counts_match_poisson_law():
    lam = d.InhomogeneousPoisson(intensity=lambda t: 2.0 * t)
    ens = d.simulate(lam, d.TimeGrid(np.array([1.0, 2.0])), 50_000, 31)
    # cumulative intensity: t^2 -> means 1 and 4
    assert ens.paths[:, 0].mean() == pytest.approx(1.0, abs=0.02)
    assert ens.paths[:, 1].mean() == pytest.approx(4.0, abs=0.05)
    assert ens.paths[:, 1].var() == pytest.approx(4.0, abs=0.15)
    assert np.all(np.diff(ens.paths, axis=1) >= 0)


def test_poisson_pivot_identity_and_square_map():
    events = np.array([0.4, 1.1, 3.0])
    out = d.poisson_pivot(2.0, 2.0, events)
    assert np.allclose(out, events, atol=1e-10)
    out2 = d.poisson_pivot(lambda t: 2.0 * t, 1.0, [3.0])
    assert out2[0] == pytest.approx(9.0, abs=1e-8)
    assert d.poisson_pivot(1.0, 1.0, []).size == 0


def test_poisson_pivot_produces_exponential_interarrivals():
    lam = d.InhomogeneousPoisson(intensity=lambda t: 2.0 * t)
    rng = np.random.default_rng(7)
    gaps = []
    for _ in range(200):
        ev = lam.sample_events(rng, 10.0)
        mapped = d.poisson_pivot(lambda t: 2.0 * t, 1.5, ev)
        gaps.append(np.diff(np.concatenate([[0.0], mapped])))
    gaps = np.concatenate(gaps)
    # mapped gaps should be Exp(1.5)
    stat = stats.kstest(gaps, "expon", args=(0, 1.0 / 1.5)).statistic
    assert stat < ks_critical(gaps.size)


def test_poisson_pivot_flat_intensity_rejected():
    lam = lambda t: 0.0 if 1.0 <= t <= 2.0 else 1.0
    with pytest.raises(MappingError):
        d.poisson_pivot(lam, 1.0, [1.5])


def test_poisson_infinite_sup_rejected():
    lam = d.InhomogeneousPoisson(intensity=lambda t: 1.0 / max(t, 1e-300))
    with pytest.raises(SimulationError):
        d.simulate(lam, d.TimeGrid(np.array([1.0])), 10, 1)


def test_poisson_caller_supplied_supremum():
    bounds = []

    def sup(a, b):
        bounds.append((a, b))
        return 2.0

    lam = d.InhomogeneousPoisson(intensity=lambda t: 1.0 + np.sin(t) ** 2, sup_intensity=sup)
    rng = np.random.default_rng(13)
    counts = [lam.sample_events(rng, 2.0).size for _ in range(20_000)]
    want, _ = integrate.quad(lambda t: 1.0 + np.sin(t) ** 2, 0, 2)
    assert np.mean(counts) == pytest.approx(want, abs=0.05)
    # the bound is taken once per horizon, not once per call
    assert bounds == [(0.0, 2.0)]


def test_poisson_grid_step_sees_a_narrow_bump():
    # the bump is narrower than the spacing of a 1000-point scan of [0, 1], so
    # only a step that integrates lambda counts it in full
    width = 3e-4
    lam = d.InhomogeneousPoisson(
        intensity=lambda t: 1.0 + 100.0 * math.exp(-((t - 0.5) / width) ** 2))
    want = 1.0 + 100.0 * width * math.sqrt(math.pi) * math.erf(0.5 / width)
    n = 100_000
    ens = d.simulate(lam, d.TimeGrid(np.array([1.0])), n, 5)
    assert ens.paths.mean() == pytest.approx(want, abs=5 * math.sqrt(want / n))


def test_poisson_counts_hold_where_intensity_vanishes():
    # each step integrates lambda over (s, t] itself, so a zero intensity
    # after t = 0.5 gives a zero mean rather than a round-off below it
    lam = d.InhomogeneousPoisson(intensity=lambda t: 1.0 if t < 0.5 else 0.0)
    ens = d.simulate(lam, d.TimeGrid(np.array([0.6, 0.75, 1.0, 3.0])), 2000, 3)
    assert np.all(np.isfinite(ens.paths))
    assert np.all(ens.paths == ens.paths[:, :1])
    assert ens.paths[:, 0].mean() == pytest.approx(0.5, abs=5 * math.sqrt(0.5 / 2000))


def test_poisson_mean_beyond_the_sampler_rejected():
    lam = d.InhomogeneousPoisson(intensity=1e20)
    with pytest.raises(SimulationError):
        d.simulate(lam, d.TimeGrid(np.array([1.0])), 10, 1)


def test_poisson_step_integral_is_memoised(monkeypatch):
    lam = d.InhomogeneousPoisson(intensity=lambda t: 1.0 + t * t)
    calls = []
    quad = d.adaptive_quad

    def counted(f, a, b, **kw):
        calls.append((a, b))
        return quad(f, a, b, **kw)

    monkeypatch.setattr(d, "adaptive_quad", counted)
    states = np.zeros(1000)
    one = lam.sample_transition(np.random.default_rng(3), 0.25, 1.0, states)
    rng = np.random.default_rng(3)
    two = [lam.sample_transition(rng, 0.25, 1.0, states[:400]),
           lam.sample_transition(rng, 0.25, 1.0, states[400:])]
    assert calls == [(0.25, 1.0)]
    assert lam._cache[("step", 0.25, 1.0)] == quad(lambda t: 1.0 + t * t, 0.25, 1.0)
    assert np.array_equal(np.concatenate(two), one)


# ---------------------------------------------------------------------------
# conditional simulation
# ---------------------------------------------------------------------------

def test_conditional_simulation_matches_transition_law(rng):
    ou = d.InhomogeneousOU(1.2, 0.3, 0.9, 0.1)
    states = np.full(200_000, 0.6)
    y = d.simulate_conditional(ou, 0.5, 1.25, states, rng)
    mean, sd = ou._transition_mean_std(0.5, 1.25, states)
    assert y.mean() == pytest.approx(mean[0], abs=4 * sd / math.sqrt(y.size))
    assert y.std() == pytest.approx(sd, rel=0.02)
    with pytest.raises(ParameterError):
        d.simulate_conditional(ou, 1.0, 0.5, states, rng)


@pytest.mark.parametrize("driver", [
    d.Brownian(0.3),
    d.InhomogeneousOU(lambda t: 1.0 + t, 0.2, 0.8, 0.1),
    d.GammaProcess(1.5, 0.7),
    d.InhomogeneousPoisson(intensity=3.0),
], ids=lambda dr: dr.kind)
def test_transition_drawn_in_chunks_equals_one_draw(driver):
    # terminal pricing draws its paths in blocks from one generator, which
    # repeats a one-shot draw only for samplers that are stable under chunking
    states = np.linspace(0.0, 2.0, 5000)
    one = driver.sample_transition(np.random.default_rng(11), 0.5, 1.25, states)
    rng = np.random.default_rng(11)
    chunks = [driver.sample_transition(rng, 0.5, 1.25, part) for part in (states[:1234],
                                                                       states[1234:])]
    assert np.array_equal(np.concatenate(chunks), one)


def test_grid_origin_value_consistency():
    ou = d.InhomogeneousOU(1.0, 0.0, 1.0, y0=0.7)
    good = d.TimeGrid(np.array([0.5]), origin_value=0.7)
    d.simulate(ou, good, 10, 1)
    bad = d.TimeGrid(np.array([0.5]), origin_value=0.0)
    with pytest.raises(ParameterError):
        d.simulate(ou, bad, 10, 1)
