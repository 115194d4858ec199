import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from quantproc import drivers as d
from quantproc import transforms as tr
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
# the CDF is 1 from y = 0.05 on here, so the 1 - 1e-15 quantile lies where the table's masses round to 1
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


_FIVE_DRIVERS = [d.Brownian(0.3), d.InhomogeneousOU(0.9, 0.2, 1.1, 0.4), d.VarianceGamma(-0.1, 0.3, 0.4),
                 d.GammaProcess(1.2, 0.6), d.InhomogeneousPoisson(2.0)]


@pytest.mark.parametrize("driver", _FIVE_DRIVERS + [
    tr.TableQuantile(np.array([0.1, 0.5, 0.9]), np.array([-1.0, 0.0, 2.0])),
    tr.EmpiricalLaw(np.array([-1.0, 0.0, 2.0, 3.0]))], ids=lambda law: getattr(law, "kind", law.family))
def test_quantile_reads_the_support_at_the_unit_ends(driver):
    # the Law contract: the support's ends at u = 0 and u = 1, and NaN off [0, 1] and at
    # NaN; isf reads the same ends at q = 1 and q = 0; the piecewise laws keep it too
    lo_hi = np.array(driver.support(1.0))
    np.testing.assert_array_equal(driver.quantile(1.0, [0.0, 1.0]), lo_hi)
    np.testing.assert_array_equal(driver.isf(1.0, [1.0, 0.0]), lo_hi)
    assert np.all(np.isnan(driver.quantile(1.0, [-0.1, 1.1, np.nan])))
    assert np.all(np.isnan(driver.isf(1.0, [-0.1, 1.1, np.nan])))


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


# the gamma and Poisson drivers' laws in special functions, against scipy.stats at the
# same parameters bit for bit: interior draws, and the edges where the bare formulas
# differ (below the support, non-integer counts, u in {0, 1}, NaN, +-inf, a zero Poisson
# mean); only the densities at +inf differ, 0 where scipy.stats gives NaN, and the
# Poisson quantile at u = 0, the support's end 0 where scipy.stats gives -1
_EDGES = np.array([-np.inf, -3.0, -1.0, -0.5, -1e-300, 0.0, 1e-300, 0.5, 1.0, 2.5, 3.0, 50.0,
                   1e6, np.inf, np.nan])
_LEVEL_EDGES = np.array([-0.1, 0.0, 1e-300, 1.0, 1.1, np.nan])


def _same_bits(got, want):
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("shape", [0.3, 1.0, 2.5, 40.0])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_gamma_law_matches_scipy_stats(shape, scale):
    gp = d.GammaProcess(shape * scale, shape * scale ** 2)
    a, s = gp.params_at(1.0)
    law = stats.gamma(a, scale=s)
    rng = np.random.default_rng(11)
    y = np.concatenate([_EDGES, rng.gamma(shape, scale, 10_000)])
    u = np.concatenate([_LEVEL_EDGES, rng.uniform(size=10_000)])
    with np.errstate(invalid="ignore"):  # scipy.stats forms inf - inf at y = inf
        _same_bits(gp.cdf(1.0, y), law.cdf(y))
        _same_bits(gp.sf(1.0, y), law.sf(y))
        _same_bits(gp.pdf(1.0, y), np.where(y == np.inf, 0.0, law.pdf(y)))
    _same_bits(gp.quantile(1.0, u), law.ppf(u))
    _same_bits(gp.isf(1.0, u), law.isf(u))
    for y0 in (-1.0, 0.0, 0.7, np.nan):  # scalars stay scalars
        _same_bits(gp.cdf(1.0, y0), law.cdf(y0))
        _same_bits(gp.sf(1.0, y0), law.sf(y0))


def test_gamma_scores_resolve_the_upper_tail():
    # above the median the gamma law scores -ndtri(1 - F) and inverts through
    # gammainccinv: the level F = 1 - e^-y no longer rounds to 1 at y = 40 and 60, and a
    # score of 9 no longer maps to inf.  Targets from a 50-digit solve
    gp = d.GammaProcess(1.0, 1.0)
    np.testing.assert_allclose(gp.score(1.0, np.array([40.0, 60.0])),
                               [8.5926757184737721, 10.649592384805447], rtol=1e-13)
    assert float(gp.from_score(1.0, 9.0)) == pytest.approx(43.628149113332114, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(shape=st.floats(0.7, 50.0), x=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=20))
def test_gamma_from_score_inverts_score(shape, x):
    # GammaProcess(a, a) at t = 1 is the gamma law of shape a and scale 1; past a score of
    # -30 a shape below 0.65 underflows to y = 0.  The score comes back to round-off, and
    # the value to that round-off carried through from_score
    gp, x = d.GammaProcess(shape, shape), np.array(x)
    y = gp.from_score(1.0, x)
    back = gp.score(1.0, y)
    dx = 2e-14 * (1.0 + np.abs(x))
    assert np.all(np.abs(back - x) <= dx)
    spread = gp.from_score(1.0, x + 2.0 * dx) - gp.from_score(1.0, x - 2.0 * dx)
    assert np.all(np.abs(gp.from_score(1.0, back) - y) <= spread)


@settings(max_examples=60, deadline=None)
@given(shape=st.floats(0.01, 1e4), x=st.floats(-1e150, 1e150))
@example(shape=1.0, x=40.0)
def test_gamma_from_score_is_finite_at_every_finite_score(shape, x):
    # past ndtr(-x) = 1e-300 the upper tail inverts log Q(a, y) = log_ndtr(-x); the value
    # grows like x^2 / 2, which stays finite while |x| < 1.3e154
    y = float(d.GammaProcess(shape, shape).from_score(1.0, x))
    assert math.isfinite(y) and y >= 0.0


@settings(max_examples=60, deadline=None)
@given(shape=st.floats(50.0, 1e4), x=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=20))
@example(shape=1e4, x=[-40.0, -38.0, -37.0, -30.0, 30.0, 40.0])
def test_gamma_from_score_inverts_score_at_large_shapes(shape, x):
    # past a tail level of 1e-300 both tails score and invert in log space: log P(a, y) by
    # its series below the median, log Q(a, y) by its continued fraction above it
    gp, x = d.GammaProcess(shape, shape), np.array(x)
    back = gp.score(1.0, gp.from_score(1.0, x))
    assert np.all(np.abs(back - x) <= 2e-14 * (1.0 + np.abs(x)))


@settings(max_examples=12, deadline=None)
@given(shape=st.floats(1e5, 1e10), x=st.lists(st.floats(37.6, 45.0), min_size=1, max_size=5))
@example(shape=1e9, x=[37.6, 38.0, 40.0, 45.0])
def test_gamma_far_tails_invert_at_very_large_shapes(shape, x):
    # past the level 1e-300 the lower-tail series takes about sqrt(a) terms, summed in
    # blocks, and both tails sum a log y - y - log Gamma(a) by Stirling's series, where
    # the direct sum cancels to about a * 1e-16.  A value is resolved to a few ulps; its
    # score only to the rounding of log y, in which the lower tail is solved: about
    # 1e-15 sqrt(a) in the score
    gp, x = d.GammaProcess(shape, shape), np.sort(np.concatenate([-np.array(x), x]))
    y = gp.from_score(1.0, x)
    assert np.all(np.isfinite(y)) and np.all(np.diff(y) >= 0.0)
    assert np.all(np.abs(gp.score(1.0, y) - x) <= 1e-14 * (1.0 + math.sqrt(shape)) * (1.0 + np.abs(x)))
    np.testing.assert_allclose(gp.from_score(1.0, gp.score(1.0, y)), y, rtol=1e-14, atol=0.0)


def test_gamma_far_tails_at_shape_1e9():
    # targets from a 40-digit mpmath solve of log P(a, y) = log Phi(x), with P from the
    # 1F1 series, and of log Q(a, y) = log Phi(-x), with Q from gammainc
    gp = d.GammaProcess(1e9, 1e9)
    assert float(gp.score(1.0, 998735622.0)) == pytest.approx(-39.99999620050865087, rel=1e-12)
    assert float(gp.score(1.0, 1001265440.0)) == pytest.approx(39.99986982299832073, rel=1e-13)


def test_gamma_scores_resolve_the_lower_tail():
    # gammainc(1e4, 800) underflows to 0, where the score was -inf, and the level of a
    # score of -40 read 5e-324; targets from a 50-digit solve of log P(a, y) = log Phi(x)
    import mpmath as mp
    mp.mp.dps = 50
    a, gp = mp.mpf(10_000), d.GammaProcess(1e4, 1e4)
    log_p = mp.log(mp.gammainc(a, 0, 800, regularized=True))
    want_x = mp.findroot(lambda x: mp.log(mp.ncdf(x)) - log_p, -179.2)
    want_y = mp.findroot(lambda y: mp.log(mp.gammainc(a, 0, y, regularized=True))
                         - mp.log(mp.ncdf(-40)), 6514.0)
    assert float(gp.score(1.0, 800.0)) == pytest.approx(float(want_x), rel=1e-13)
    assert float(gp.from_score(1.0, -40.0)) == pytest.approx(float(want_y), rel=1e-13)
    assert float(gp.score(1.0, 5000.0)) < -40.0 < float(gp.score(1.0, 6600.0))


def test_gamma_step_shorter_than_min_time_reads_its_own_tails():
    # a step below MIN_TIME reads its far tails from its own (shape, scale), as
    # sample_transition draws it, not from the time-checked marginal law; at shape 1e-8
    # the lower half of the step underflows to 0
    gp = d.GammaProcess()
    assert np.all(np.isfinite(gp.transition_from_score(1.0, 1.0 + 1e-8, np.zeros(2),
                                                       np.array([0.0, 9.0]))))
    x = np.linspace(-40.0, 40.0, 161)
    step = gp.transition_from_score(1.0, 1.0 + 1e-8, np.zeros_like(x), x)
    assert np.all(np.isfinite(step)) and np.all(np.diff(step) >= 0.0)
    assert np.all(np.diff(step[x >= 5.0]) > 0.0)
    # past the levels 1e-15 and 1 - 1e-15 a step of the same (shape, scale) at t >= MIN_TIME
    # is the law's own from_score
    wide, far = d.GammaProcess(1e-4, 1e-4), np.abs(x) > 7.95
    np.testing.assert_array_equal(wide.transition_from_score(0.0, 1.0, np.zeros_like(x), x)[far],
                                  wide.from_score(1.0, x[far]))


def test_gamma_step_reads_the_law_past_its_clamped_levels():
    # a gamma step is gammaincinv at the level ndtr(x) while that level lies within
    # [1e-15, 1 - 1e-15], and the law's own from_score past it, where the clamped level
    # held every step at 4.43e-07 below and 19.75 above
    gp, shape, scale = d.GammaProcess(1.2, 0.6), 1.44 / 0.6, 0.6 / 1.2
    x = np.array([-30.0, -20.0, -10.0, -8.0, 8.0, 10.0, 20.0, 30.0])
    step = gp.transition_from_score(0.0, 1.0, np.zeros_like(x), x)
    assert np.all(np.isfinite(step)) and np.all(np.diff(step) > 0)
    assert np.array_equal(step, gp.from_score(1.0, x))
    assert np.array_equal(gp.transition_from_score(0.0, 1.0, np.full_like(x, 0.5), x), step + 0.5)
    inner = np.linspace(-7.89, 7.89, 4001)
    assert np.array_equal(gp.transition_from_score(0.0, 1.0, np.zeros_like(inner), inner),
                          scale * special.gammaincinv(shape, special.ndtr(inner)))


@pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 1.0, 3.7, 20.0, 400.0])
def test_poisson_law_matches_scipy_stats(mean):
    rng = np.random.default_rng(12)
    k = np.concatenate([_EDGES, rng.poisson(mean, 10_000).astype(float),
                        rng.uniform(-2.0, 3.0 * mean + 5.0, 1_000)])
    u = np.concatenate([_LEVEL_EDGES, [math.exp(-mean)], rng.uniform(size=10_000)])
    lam = d.InhomogeneousPoisson(mean)
    with np.errstate(invalid="ignore"):  # scipy.stats forms inf - inf at k = inf
        _same_bits(lam.cdf(1.0, k), stats.poisson.cdf(k, mean))
        _same_bits(lam.sf(1.0, k), stats.poisson.sf(k, mean))
        _same_bits(lam.pmf(1.0, k), np.where(k == np.inf, 0.0, stats.poisson.pmf(k, mean)))
    _same_bits(lam.quantile(1.0, u), np.where(u == 0.0, 0.0, stats.poisson.ppf(u, mean)))
    ints = rng.poisson(mean, 100)
    _same_bits(lam.pmf(1.0, ints), stats.poisson.pmf(ints, mean))
    _same_bits(lam.pmf(1.0, 2), stats.poisson.pmf(2, mean))


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


def test_poisson_support_is_the_counts():
    assert d.InhomogeneousPoisson(2.0).support(1.0) == (0.0, math.inf)


def test_poisson_from_score_is_the_count_of_its_tail_level():
    # quantile(ndtr(x)) for x <= 0, and above the median the smallest count k with
    # pdtrc(k) <= ndtr(-x), which the clamped level read as inf from x = 9 on
    lam, ks = d.InhomogeneousPoisson(2.0), np.arange(200.0)
    x = np.linspace(-30.0, 30.0, 6001)
    level = special.ndtr(-np.abs(x))
    want = np.where(x <= 0.0, stats.poisson.ppf(level, 2.0),
                    ks[np.argmax(special.pdtrc(ks[:, None], 2.0) <= level, axis=0)])
    got = lam.from_score(1.0, x)
    assert np.array_equal(got, want) and np.all(np.diff(got) >= 0)
    assert lam.from_score(1.0, 9.0) == 25.0


def test_poisson_score_rises_on_every_count_its_tail_resolves():
    # -ndtri(pdtrc(k)) above the median: the clamped level gave 7.9414 at 30 and at 40
    lam, ks = d.InhomogeneousPoisson(2.0), np.arange(200.0)
    ks = ks[special.pdtrc(ks, 2.0) > 1e-300]
    score = lam.score(1.0, ks)
    assert np.all(np.isfinite(score)) and np.all(np.diff(score) > 0)


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


def test_constant_poisson_intensity_integrates_exactly(monkeypatch):
    # a constant intensity integrates to intensity * (t - s), with no quadrature
    calls = []
    quad = d.adaptive_quad

    def counted(f, a, b, **kw):
        calls.append((a, b))
        return quad(f, a, b, **kw)

    monkeypatch.setattr(d, "adaptive_quad", counted)
    lam = d.InhomogeneousPoisson(intensity=2.0)
    assert lam.cumulative_intensity(0.7) == 2.0 * 0.7
    counts = lam.sample_transition(np.random.default_rng(3), 0.25, 1.0, np.zeros(1000))
    assert np.array_equal(counts, np.random.default_rng(3).poisson(1.5, 1000))
    assert calls == []


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
