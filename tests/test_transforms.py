import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from quantproc import drivers as d
from quantproc import transforms as tr
from quantproc.errors import CapabilityError, ParameterError

from conftest import ks_critical, ks_statistic_uniform

PHI_1 = 0.8413447460685429  # standard normal CDF at 1, from an independent oracle


# ---------------------------------------------------------------------------
# quantile families
# ---------------------------------------------------------------------------

def test_gh_median_is_location():
    q = tr.TukeyGH(0.0, 1.0, 2.0, 0.4)
    assert float(tr.quantile_eval(q, 1.0, 0.5)) == pytest.approx(0.0, abs=1e-14)
    q2 = tr.TukeyGH(1.7, 2.0, 2.0, 0.4)
    assert float(tr.quantile_eval(q2, 1.0, 0.5)) == pytest.approx(1.7, abs=1e-14)


def test_gh_gaussian_limit_at_phi_one():
    q = tr.TukeyGH(0.0, 1.0, 0.0, 0.0)
    assert float(tr.quantile_eval(q, 1.0, PHI_1)) == pytest.approx(1.0, abs=1e-9)


def test_tukey_g_at_phi_one():
    q = tr.TukeyG(0.0, 1.0, 0.3)
    want = math.expm1(0.3) / 0.3  # 1.16619602525...
    assert float(tr.quantile_eval(q, 1.0, PHI_1)) == pytest.approx(want, abs=1e-9)


def test_endpoints_follow_tails():
    gh = tr.TukeyGH(0.0, 1.0, 0.5, 0.1)
    assert tr.quantile_eval(gh, 1.0, 0.0) == -np.inf
    assert tr.quantile_eval(gh, 1.0, 1.0) == np.inf
    g = tr.TukeyG(0.0, 1.0, 0.5)
    assert float(tr.quantile_eval(g, 1.0, 0.0)) == pytest.approx(-2.0)
    assert tr.quantile_eval(g, 1.0, 1.0) == np.inf
    with pytest.raises(ParameterError):
        tr.quantile_eval(g, 1.0, 1.5)


@settings(max_examples=60, deadline=None)
@given(g=st.floats(-2.0, 2.0), h=st.floats(0.0, 1.0), b=st.floats(0.1, 5.0),
       u=st.tuples(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6)))
def test_gh_monotone_in_level(g, h, b, u):
    u1, u2 = sorted(u)
    q = tr.TukeyGH(0.0, b, g, h)
    z1, z2 = (float(tr.quantile_eval(q, 1.0, x)) for x in (u1, u2))
    assert z1 <= z2
    if u2 - u1 > 1e-9:
        assert z1 < z2


@settings(max_examples=40, deadline=None)
@given(g=st.floats(-1.5, 1.5), h=st.floats(0.0, 0.8), b=st.floats(0.2, 3.0),
       a=st.floats(-2.0, 2.0), u=st.floats(1e-5, 1 - 1e-5))
def test_gh_roundtrip_property(g, h, b, a, u):
    q = tr.TukeyGH(a, b, g, h)
    z = float(tr.quantile_eval(q, 1.0, u))
    back = float(tr.quantile_cdf(q, 1.0, z))
    assert back == pytest.approx(u, abs=1e-9)


def test_gh_newton_stops_on_a_fixed_point(monkeypatch):
    # a Newton step that lands exactly on x has converged; counting it as a
    # bracket violation bisects away from the root here for about 40 sweeps
    calls = []
    core = tr._gh_core

    def counting(*args):
        calls.append(1)
        return core(*args)

    monkeypatch.setattr(tr, "_gh_core", counting)
    q = tr.TukeyGH(0.0, 1.0, 0.8, 0.05)
    z = -979.2161318447968
    x = q.x_from_z(1.0, np.array([z]))
    assert len(calls) <= 10
    assert float(core(x, 0.8, 0.05)[0]) == pytest.approx(z, rel=1e-12)


def test_gh_newton_does_not_stop_on_an_overflowed_slope():
    # at x = asinh(1e16) the slope overflows to inf, so the Newton step is 0
    # although the residual is not; that is no fixed point
    q = tr.TukeyGH(0.0, 1.0, 0.0, 1.0)
    z = np.array([-1e16, 1e16])
    x = q.x_from_z(0.0, z)
    np.testing.assert_allclose(tr._gh_core(x, 0.0, 1.0), z, rtol=1e-12)
    assert abs(x[1]) == pytest.approx(8.3332, abs=1e-4)
    assert float(q.cdf(0.0, z)[0]) == pytest.approx(stats.norm.cdf(x[0]), rel=1e-12)
    assert 1e-17 < float(q.cdf(0.0, z)[0]) < 1e-16


def test_validation_rules():
    with pytest.raises(ParameterError):
        tr.TukeyGH(0.0, 1.0, 0.5, -0.1).validate()
    with pytest.raises(ParameterError):
        tr.TukeyGH(0.0, -1.0, 0.5, 0.1).validate()
    with pytest.raises(ParameterError):
        tr.TukeyG(0.0, 1.0, 0.0).validate()
    with pytest.raises(ParameterError):
        tr.GaussianQuantile(0.0, -1.0).validate()


def test_quantile_cdf_inverse_examples():
    q = tr.TukeyGH(0.0, 1.0, 2.0, 0.4)
    assert float(tr.quantile_cdf(q, 1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
    g = tr.TukeyG(0.0, 1.0, 0.3)
    assert float(tr.quantile_cdf(g, 1.0, -1.0 / 0.3)) == 0.0
    assert float(tr.quantile_cdf(g, 1.0, -1.0 / 0.3 - 1.0)) == 0.0
    assert float(tr.quantile_cdf(g, 1.0, 1e9)) > 1 - 1e-6


def test_quantile_roundtrip():
    rng = np.random.default_rng(2)
    u = rng.uniform(0.001, 0.999, 100)
    for q in (tr.TukeyGH(0.3, 1.5, 2.0, 0.4), tr.TukeyGH(0.0, 1.0, 0.0, 0.3),
              tr.TukeyG(-1.0, 2.0, -0.6), tr.GaussianQuantile(0.5, 2.0)):
        z = tr.quantile_eval(q, 1.0, u)
        back = tr.quantile_cdf(q, 1.0, z)
        assert np.max(np.abs(back - u)) < 1e-9


def test_time_dependent_parameters():
    q = tr.TukeyGH(a=lambda t: t, b=1.0, g=lambda t: 0.5 * t, h=0.0)
    z = float(tr.quantile_eval(q, 2.0, PHI_1))
    assert z == pytest.approx(2.0 + math.expm1(1.0) / 1.0, abs=1e-9)


def test_table_quantile_interpolates_and_clamps(tmp_path):
    q = tr.TableQuantile(u_knots=np.array([0.1, 0.5, 0.9]),
                         z_knots=np.array([-1.0, 0.0, 2.0]))
    assert float(q.eval(1.0, 0.3)) == pytest.approx(-0.5)
    assert float(q.eval(1.0, 0.05)) == -1.0  # clamped
    assert float(q.cdf(1.0, 1.0)) == pytest.approx(0.7)
    with pytest.raises(ParameterError):
        tr.TableQuantile(u_knots=np.array([0.1, 0.1]), z_knots=np.array([0.0, 1.0]))
    csv = tmp_path / "table.csv"
    csv.write_text("0.1,-1.0\n0.5,0.0\n0.9,2.0\n")
    q2 = tr.TableQuantile.from_csv(str(csv))
    assert float(q2.eval(1.0, 0.5)) == 0.0


def test_poisson_quantile_steps():
    q = tr.PoissonQuantile(rate=2.0)
    assert float(q.eval(1.0, 0.05)) == 0.0
    assert float(q.eval(1.0, 0.5)) == 2.0
    assert float(q.cdf(1.0, 1.0)) == pytest.approx(stats.poisson.cdf(1, 2.0))


# ---------------------------------------------------------------------------
# composite maps
# ---------------------------------------------------------------------------

def test_identity_composite_reproduces_paths():
    ou = d.InhomogeneousOU(1.0, 0.0, 1.0, 0.3)
    ens = d.simulate(ou, d.TimeGrid(np.array([0.5, 1.0])), 5_000, 9)
    mq = lambda t: ou.marginal_mean_std(t)[0]
    vq = lambda t: ou.marginal_mean_std(t)[1] ** 2
    ident = tr.true_law_map(ou, tr.GaussianQuantile(m=mq, v=vq))
    z = tr.apply_composite(ident, ens)
    assert np.max(np.abs(z.paths - ens.paths)) < 1e-12
    assert z.seed == ens.seed and z.grid is ens.grid


def test_canonical_gh_closed_form():
    w = d.simulate(d.Brownian(), d.TimeGrid(np.array([0.7, 1.3])), 20_000, 5)
    a, b, g, h = 0.1, 1.2, 0.8, 0.3
    cm = tr.canonical_map(tr.TukeyGH(a, b, g, h))
    z = tr.apply_composite(cm, w).paths
    for k, t in enumerate(w.grid.times):
        x = w.paths[:, k] / math.sqrt(t)
        direct = a + b * np.expm1(g * x) / g * np.exp(h * x * x / 2.0)
        # absolute for ordinary values, relative deep in the tails where the
        # probability-integral round trip is the float64 limit
        assert np.max(np.abs(z[:, k] - direct) / (1.0 + np.abs(direct))) < 1e-10


def test_ou_true_law_gh_formula():
    ou = d.InhomogeneousOU(0.9, 0.2, 1.1, 0.4)
    ens = d.simulate(ou, d.TimeGrid(np.array([0.6, 1.4])), 20_000, 8)
    a, b, g, h = 0.0, 1.0, 0.7, 0.2
    cm = tr.true_law_map(ou, tr.TukeyGH(a, b, g, h))
    z = tr.apply_composite(cm, ens).paths
    u = d.uniformize(ou, ens).paths
    for k in range(2):
        x = math.sqrt(2.0) * stats.norm.ppf(u[:, k]) / math.sqrt(2.0)
        direct = a + b * np.expm1(g * x) / g * np.exp(h * x * x / 2.0)
        assert np.max(np.abs(z[:, k] - direct) / (1.0 + np.abs(direct))) < 1e-8


def test_true_law_mode_rejects_wrong_law():
    bm = d.Brownian()
    wrong = tr.CompositeMap(dist=tr.GaussianLaw(0.5, 1.0), quantile=tr.TukeyG(0, 1, 0.5),
                            mode=tr.MapMode.TRUE_LAW)
    ens = d.simulate(bm, d.TimeGrid(np.array([1.0])), 100, 0)
    with pytest.raises(ParameterError):
        tr.apply_composite(wrong, ens)


def test_uniform_through_true_law():
    bm = d.Brownian()
    ens = d.simulate(bm, d.TimeGrid(np.array([1.0])), 100_000, 21)
    cm = tr.canonical_map(tr.TukeyGH(0.0, 1.0, 0.6, 0.2))
    z = tr.apply_composite(cm, ens)
    u = tr.quantile_cdf(cm.quantile, 1.0, z.paths[:, 0])
    assert ks_statistic_uniform(u) < ks_critical(100_000)


def test_path_continuity_under_grid_refinement():
    # a continuous driver with continuous F and Q: quantile-path increments
    # shrink in step with the driver's as the grid refines
    cm = tr.canonical_map(tr.TukeyGH(0.0, 1.0, 0.5, 0.1))
    med = {}
    for factor in (1, 2, 4):
        k = 16 * factor
        grid = d.TimeGrid(np.linspace(0.5, 1.5, k + 1))
        ens = d.simulate(d.Brownian(), grid, 400, 33)
        z = tr.apply_composite(cm, ens).paths
        med[factor] = (np.median(np.max(np.abs(np.diff(z, axis=1)), axis=1)),
                       np.median(np.max(np.abs(np.diff(ens.paths, axis=1)), axis=1)))
    for a, b in ((1, 2), (2, 4)):
        z_ratio = med[b][0] / med[a][0]
        y_ratio = med[b][1] / med[a][1]
        # both shrink roughly like sqrt(dt); allow generous statistical slack
        assert z_ratio < 1.0 and y_ratio < 1.0
        assert z_ratio == pytest.approx(y_ratio, abs=0.25)


# ---------------------------------------------------------------------------
# pivot construction
# ---------------------------------------------------------------------------

def test_pivot_brownian_is_sqrt_t_scaling():
    law = tr.PivotLaw(d.Brownian())
    y = np.array([1.0, -2.0, 0.5])
    assert np.allclose(law.cdf(4.0, y), stats.norm.cdf(y / 2.0))
    assert np.allclose(law.pdf(4.0, y), stats.norm.pdf(y / 2.0) / 2.0)
    assert np.allclose(law.quantile(4.0, law.cdf(4.0, y)), y)
    assert isinstance(law.reference, tr.GaussianLaw)


def test_pivot_ou_standardizes():
    ou = d.InhomogeneousOU(1.3, -0.4, 0.8, 0.6)
    ens = d.simulate(ou, d.TimeGrid(np.array([0.8])), 100_000, 12)
    u = tr.PivotLaw(ou).cdf(0.8, ens.paths[:, 0])
    assert ks_statistic_uniform(u) < ks_critical(100_000)


def test_pivot_identity_on_standard_input():
    law = tr.PivotLaw(d.Brownian())
    y = np.array([0.3, -1.2])
    assert np.allclose(law.cdf(1.0, y), tr.GaussianLaw(0.0, 1.0).cdf(1.0, y))


def test_pivot_unsupported_family():
    cm = tr.CompositeMap(dist=None, quantile=tr.TukeyG(0, 1, 0.4), mode=tr.MapMode.PIVOT)
    with pytest.raises(CapabilityError):
        cm.dist_for(d.VarianceGamma())
    with pytest.raises(CapabilityError):
        cm.dist_for(d.GammaProcess())


def test_pivot_mode_composite():
    ou = d.InhomogeneousOU(1.0, 0.3, 0.9, 0.2)
    ens = d.simulate(ou, d.TimeGrid(np.array([0.9])), 50_000, 14)
    cm = tr.CompositeMap(dist=tr.GaussianLaw(0.0, 1.0), quantile=tr.TukeyG(0, 1, 0.4),
                         mode=tr.MapMode.PIVOT)
    z = tr.apply_composite(cm, ens).paths[:, 0]
    # standardized pivot makes the level uniform, so Z has the family's law
    u = tr.quantile_cdf(cm.quantile, 0.9, z)
    assert ks_statistic_uniform(u) < ks_critical(50_000)


# ---------------------------------------------------------------------------
# pivot Tukey-g reparameterization and moments
# ---------------------------------------------------------------------------

def test_pivot_params_trivial_case():
    a_s, b_s, g_s = tr.pivot_gaussian_tukey_g_params(0.4, 1.2, 0.7, 0.0, 1.0, 0.0, 1.0)
    assert a_s(1.0) == pytest.approx(0.4)
    assert b_s(1.0) == pytest.approx(1.2)
    assert g_s(1.0) == pytest.approx(0.7)


def test_pivot_params_pathwise_agreement():
    a, b, g = 0.2, 1.1, 0.6
    m, v = 0.3, 1.5
    mu_y, sig_y = 0.4, 2.0
    a_s, b_s, g_s = tr.pivot_gaussian_tukey_g_params(a, b, g, m, v, mu_y, sig_y)
    rng = np.random.default_rng(4)
    y = rng.normal(mu_y, sig_y, 1_000)
    direct = a + b / g * np.expm1(g * ((y - mu_y) / sig_y - m) / math.sqrt(v))
    reparam = a_s(1.0) + b_s(1.0) / g_s(1.0) * np.expm1(g_s(1.0) * y)
    assert np.max(np.abs(direct - reparam)) < 1e-10


def test_pivot_params_reject_degenerate():
    a_s, _, _ = tr.pivot_gaussian_tukey_g_params(0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        a_s(1.0)
    _, b_s, _ = tr.pivot_gaussian_tukey_g_params(0.0, 1.0, 0.5, 0.0, -1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        b_s(1.0)


def test_tukey_g_moments_mean_value():
    mom = tr.tukey_g_gaussian_moments(0.0, 1.0, 0.5, 0.0, 1.0)
    assert mom.mean == pytest.approx(math.expm1(0.125) / 0.5, abs=1e-12)
    # lognormal moment identity, independently: E[(e^{gX}-1)/g]
    assert mom.mean == pytest.approx((math.exp(0.5 ** 2 / 2) - 1) / 0.5, abs=1e-12)


def test_tukey_g_moments_shape_invariant_under_location_scale():
    m1 = tr.tukey_g_gaussian_moments(0.0, 1.0, 0.5, 0.2, 1.3)
    m2 = tr.tukey_g_gaussian_moments(5.0, 3.0, 0.5, 0.2, 1.3)
    assert m1.skewness == pytest.approx(m2.skewness, rel=1e-12)
    assert m1.kurtosis_excess == pytest.approx(m2.kurtosis_excess, rel=1e-12)


def test_tukey_g_moments_match_monte_carlo():
    a, b, g, m, v = 0.1, 1.4, 0.45, -0.2, 1.2
    mom = tr.tukey_g_gaussian_moments(a, b, g, m, v)
    rng = np.random.default_rng(6)
    n = 400_000
    x = rng.standard_normal(n)
    z = a + b / g * np.expm1(g * (x - m) / math.sqrt(v))
    se_mean = z.std() / math.sqrt(n)
    assert z.mean() == pytest.approx(mom.mean, abs=4 * se_mean)
    assert z.var() == pytest.approx(mom.variance, rel=0.02)
    zc = z - z.mean()
    skew = np.mean(zc ** 3) / z.var() ** 1.5
    kurt = np.mean(zc ** 4) / z.var() ** 2 - 3.0
    assert skew == pytest.approx(mom.skewness, rel=0.05)
    assert kurt == pytest.approx(mom.kurtosis_excess, rel=0.15)


def test_tukey_g_moments_negative_g_flips_skew():
    mom = tr.tukey_g_gaussian_moments(0.0, 1.0, -0.5, 0.0, 1.0)
    assert mom.skewness < 0
