import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from quantproc import drivers as d
from quantproc import measures as me
from quantproc import transforms as tr
from quantproc._util import _solve_increasing, clip_unit
from quantproc.errors import CapabilityError, NumericError, ParameterError

from conftest import ks_critical, ks_statistic_uniform

PHI_1 = 0.8413447460685429  # standard normal CDF at 1, from an independent oracle
PHI_M9 = 1.1285884059538406e-19  # standard normal CDF at -9, from the same oracle


# ---------------------------------------------------------------------------
# the law type
# ---------------------------------------------------------------------------

#: a law gives one of these sets of maps; the base derives the others from it
_PRIMITIVES = (("normal_at",), ("score", "from_score"), ("cdf", "quantile"))


def laws_without_a_primitive(laws) -> list[str]:
    """The laws that give none of the primitive sets, so that the base's derived score
    and cdf, or from_score and quantile, would call each other."""
    return sorted(law.__name__ for law in laws
                  if not any(all(getattr(law, m) is not getattr(tr.Law, m) for m in names)
                             for names in _PRIMITIVES))


def test_detector_finds_a_law_without_a_primitive():
    class Stub(tr.Law):
        pass

    class HalfScore(tr.Law):
        def score(self, t, z): ...

    class Normal(tr.Law):
        def normal_at(self, t): ...

    class Levels(Stub):
        def cdf(self, t, z): ...

        def quantile(self, t, u): ...

    assert laws_without_a_primitive([Stub, HalfScore, Normal, Levels]) == ["HalfScore", "Stub"]


def test_every_law_defines_a_primitive():
    # every driver is a law too; the abstract bases give no primitive of their own
    laws = {obj for module in (tr, d) for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tr.Law) and obj not in (tr.Law, d.Driver)}
    assert len(laws) >= 14 and laws_without_a_primitive(laws) == []


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


@pytest.mark.parametrize("law", [tr.TukeyGH(0.0, 1.0, 0.5, 0.1), tr.TukeyG(0.0, 1.0, 0.5),
                                 tr.GaussianLaw(0.0, 1.0)], ids=["gh", "g", "gaussian"])
def test_derived_quantile_is_nan_off_the_unit_interval(law):
    # the support's ends at u = 0 and u = 1, as _poisson_ppf reads them
    lo, hi = law.support(1.0)
    got = law.quantile(1.0, np.array([-0.1, 0.0, 1.0, 1.1, np.nan]))
    np.testing.assert_array_equal(got, [np.nan, lo, hi, np.nan, np.nan])


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


def _count_core_slope(monkeypatch) -> list:
    """Record the size of each _gh_core_slope call: one per Newton sweep, one per density."""
    calls = []
    core_slope = tr._gh_core_slope
    monkeypatch.setattr(tr, "_gh_core_slope",
                        lambda x, *args: calls.append(np.size(x)) or core_slope(x, *args))
    return calls


def test_gh_newton_stops_on_a_fixed_point(monkeypatch):
    # a Newton step that lands exactly on x has converged; counting it as a
    # bracket violation bisects away from the root here for about 40 sweeps
    calls = _count_core_slope(monkeypatch)
    q = tr.TukeyGH(0.0, 1.0, 0.8, 0.05)
    z = -979.2161318447968
    x = q.x_from_z(1.0, np.array([z]))
    assert len(calls) <= 10
    assert float(tr._gh_core(x, 0.8, 0.05)[0]) == pytest.approx(z, rel=1e-12)


@pytest.mark.parametrize("g, h", [(0.5, 0.15), (-1.0, 0.3), (2.0, 0.4), (0.8, 0.05)])
def test_gh_newton_starts_from_the_node_table(monkeypatch, g, h):
    # the start interpolated on the node table leaves at most 4 full-array sweeps on
    # 1001 scores in [-8, 8]; a start at x = 0 took 7 to 9
    calls = _count_core_slope(monkeypatch)
    q = tr.TukeyGH(0.1, 1.2, g, h)
    x = np.linspace(-8.0, 8.0, 1001)
    back = q.x_from_z(1.0, q.from_score(1.0, x))
    assert len(calls) <= 4
    np.testing.assert_allclose(back, x, rtol=1e-13, atol=1e-13)


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


def test_gh_newton_sweeps_a_slow_point_alone(monkeypatch):
    # at x = 37.544 the slope overflows while core does not, so that point bisects
    # for about 35 sweeps; the other 1e5 converge in 3 and leave the working set
    calls = _count_core_slope(monkeypatch)
    q = tr.TukeyGH(0.1, 1.2, 0.0, 1.0)
    x = np.append(np.linspace(-8.0, 8.0, 100_000), 37.544)
    back = q.x_from_z(1.0, q.from_score(1.0, x))
    assert calls.count(x.size) <= 4
    assert back[-1] == pytest.approx(x[-1], rel=1e-12)
    np.testing.assert_allclose(back[:-1], x[:-1], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("width, converges", [(4.0, True), (1e300, False)])
def test_solver_bisects_where_the_slope_is_unusable(width, converges):
    # with a NaN slope every sweep bisects: a bracket of width 4 closes on the roots, and
    # one of width 1e300 cannot close in 160 sweeps, so the solver raises
    roots = np.array([0.1, math.pi, 3.9])

    def resid_slope(x, idx):
        return x - roots[idx], np.full_like(x, np.nan)

    args = (resid_slope, np.zeros(3), np.full(3, width), np.full(3, 0.5 * width), 1.0, "test roots")
    if converges:
        np.testing.assert_allclose(_solve_increasing(*args), roots, rtol=2e-14, atol=2e-14)
    else:
        with pytest.raises(NumericError, match="did not converge"):
            _solve_increasing(*args)


@pytest.mark.parametrize("x", [45.0, 60.0, -45.0, -60.0])
def test_gh_inverse_reaches_past_the_start_table(x):
    # the Newton start table ends at x = +-39; its end brackets reach on to where core
    # overflows, x = +-156 here, so these scores come back instead of +-39
    q = tr.TukeyGH(0.0, 1.0, 0.2, 0.1)
    assert float(q.x_from_z(1.0, q.from_score(1.0, x))) == pytest.approx(x, rel=1e-12)


def test_gh_inverse_with_a_subnormal_h_returns_a_root():
    # h = 5e-324 leaves core flat at -1/g where g x << 0, and |x| never reaches an
    # overflow: the end brackets stop doubling at 2^511 and the root stays finite
    q = tr.TukeyGH(0.0, 1.0, 2.0, 5e-324)
    z = q.from_score(1.0, np.linspace(-30.0, 30.0, 13))
    x = q.x_from_z(1.0, z)
    assert np.all(np.isfinite(x))
    np.testing.assert_allclose(q.from_score(1.0, x), z, rtol=1e-15)


@settings(max_examples=100, deadline=None)
@given(g=st.floats(-3.0, 3.0), h=st.floats(0.0, 1.0, exclude_min=True), x=st.floats(-30.0, 30.0),
       t=st.floats(0.1, 3.0))
def test_gh_inverse_roundtrip_property(g, h, x, t):
    # z pins x to 1e-13 only where core is not flat: 16 ulps of z move x by
    # 16 eps |core| / core', which is large for tiny h on the side where g x << 0
    core, slope = tr._gh_core_slope(np.array([x]), g, h)
    assume(16 * np.finfo(float).eps * abs(core[0]) <= 1e-14 * (1.0 + abs(x)) * slope[0])
    q = tr.TukeyGH(0.0, 1.0, g, h)
    back = q.x_from_z(t, q.from_score(t, np.array([x])))
    assert abs(back[0] - x) <= 1e-13 * (1.0 + abs(x))
    odd = np.array([np.nan, np.inf, -np.inf])
    np.testing.assert_array_equal(q.x_from_z(t, odd), odd)


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(st.just(0.0), st.floats(-1e-149, 1e-149), st.floats(-2.0, 2.0)),
       h=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), seed=st.integers(0, 2**32 - 1))
def test_gh_core_slope_is_the_closed_form_bit_for_bit(g, h, seed):
    x = np.random.default_rng(seed).uniform(-8.0, 8.0, 64)
    e = np.exp(0.5 * h * x * x)
    if abs(g) < tr._G_TINY:
        want = (x * e, (1.0 + h * x * x) * e)
    else:
        want = (np.expm1(g * x) / g * e, e * (np.exp(g * x) + h * x * np.expm1(g * x) / g))
    core, slope = tr._gh_core_slope(x, g, h)
    assert np.array_equal(core, want[0]) and np.array_equal(slope, want[1])
    assert np.array_equal(core, tr._gh_core(x, g, h))


_TABLE = tr.TableQuantile(u_knots=np.array([0.05, 0.3, 0.7, 0.95]),
                          z_knots=np.array([-2.0, -0.4, 0.5, 3.0]))


@st.composite
def _families(draw, kinds=("gh", "g", "gaussian", "table")):
    kind = draw(st.sampled_from(kinds))
    a, b = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 3.0))
    if kind == "gh":
        g = draw(st.one_of(st.just(0.0), st.floats(-1e-151, 1e-151), st.floats(-2.0, 2.0)))
        return tr.TukeyGH(a, b, g, draw(st.floats(1e-3, 1.0)))
    if kind == "g":
        return tr.TukeyG(a, b, draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0])))
    return tr.GaussianLaw(a, b) if kind == "gaussian" else _TABLE


@settings(max_examples=80, deadline=None)
@given(q=_families(), zs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20),
       t=st.floats(0.1, 3.0))
def test_score_pdf_is_score_and_pdf_bit_for_bit(q, zs, t):
    # both tails, and the support edge of TukeyG and the table with points beyond it
    edges = [e for e in q.support(t) if np.isfinite(e)]
    z = np.array(zs + [-np.inf, np.inf] + [e + s for e in edges for s in (-1.0, 0.0, 1.0)])
    x, pdf = q.score_pdf(t, z)
    assert np.array_equal(x, q.score(t, z)) and np.array_equal(pdf, q.pdf(t, z))
    # the score families' CDF is the level of their score; the table's score is ndtri of its CDF
    cdf = q.cdf(t, z)
    assert (np.array_equal(x, special.ndtri(cdf)) if q is _TABLE
            else np.array_equal(special.ndtr(x), cdf))


@pytest.mark.parametrize("q", [tr.TukeyGH(0.0, 1.0, 0.5, 0.1), tr.TukeyG(0.0, 1.0, 0.5)],
                         ids=["gh", "g"])
def test_nan_value_stays_nan(q, monkeypatch):
    calls = _count_core_slope(monkeypatch)
    z = np.array([-2.5, 0.3, 4.0])
    zn = np.insert(z, 1, np.nan)
    want = (q.cdf(1.0, z), q.pdf(1.0, z), *q.score_pdf(1.0, z))
    clean_calls = len(calls)
    got = (q.cdf(1.0, zn), q.pdf(1.0, zn), *q.score_pdf(1.0, zn))
    # a NaN level neither reads as a plausible number nor holds the others' Newton loop
    assert len(calls) == 2 * clean_calls
    for g_, w_ in zip(got, want):
        assert np.isnan(g_[1]) and np.array_equal(np.delete(g_, 1), w_)
    assert np.isnan(q.cdf(1.0, np.nan)) and np.isnan(q.pdf(1.0, np.nan))


def test_piecewise_density_is_nan_at_nan():
    table = tr.TableQuantile(np.array([0.1, 0.5, 0.9]), np.array([-1.0, 0.0, 2.0]))
    emp = tr.EmpiricalLaw(np.array([-1.0, 0.0, 2.0, 3.0]))
    z = np.array([-5.0, -1.0, 0.5, 2.0, 9.0])
    zn = np.insert(z, 1, np.nan)
    # the density is NaN where the matching CDF is, and unchanged elsewhere
    for pdf in (lambda x: table.pdf(1.0, x), lambda x: table.score_pdf(1.0, x)[1],
                lambda x: emp.pdf(1.0, x)):
        got = pdf(zn)
        assert np.isnan(got[1]) and np.array_equal(np.delete(got, 1), pdf(z))
    assert np.isnan(table.cdf(1.0, zn)[1]) and np.isnan(emp.cdf(1.0, zn)[1])


def test_validation_rules():
    with pytest.raises(ParameterError):
        tr.TukeyGH(0.0, 1.0, 0.5, -0.1).validate()
    with pytest.raises(ParameterError):
        tr.TukeyGH(0.0, -1.0, 0.5, 0.1).validate()
    with pytest.raises(ParameterError):
        tr.TukeyG(0.0, 1.0, 0.0).validate()
    with pytest.raises(ParameterError):
        tr.GaussianLaw(0.0, -1.0).validate()


@pytest.mark.parametrize("call", [
    lambda: d.Brownian().cdf(0.0, [0.1, -0.1, 0.0]),
    lambda: d.Brownian().pdf(0.0, [0.1, 0.0]),
    lambda: tr.PivotLaw(d.Brownian()).cdf(0.0, [0.1, 0.0]),
    lambda: tr.GaussianLaw(0.0, -1.0).quantile(1.0, [0.3]),
], ids=["brownian-law-cdf", "brownian-law-pdf", "pivot-cdf", "gaussian-law-quantile"])
def test_degenerate_normal_law_is_a_parameter_error(call):
    # a normal law without 0 < sd < inf gives neither silent NaNs nor an untyped math error
    with pytest.raises(ParameterError):
        call()


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
              tr.TukeyG(-1.0, 2.0, -0.6), tr.GaussianLaw(0.5, 2.0)):
        z = tr.quantile_eval(q, 1.0, u)
        back = tr.quantile_cdf(q, 1.0, z)
        assert np.max(np.abs(back - u)) < 1e-9
        # levels far below 1e-15 are not clamped on the way in
        tail = np.array([1e-300, 1e-20])
        back = tr.quantile_cdf(q, 1.0, tr.quantile_eval(q, 1.0, tail))
        assert np.all(np.abs(back - tail) <= 1e-12 * tail)


def test_time_dependent_parameters():
    q = tr.TukeyGH(a=lambda t: t, b=1.0, g=lambda t: 0.5 * t, h=0.0)
    z = float(tr.quantile_eval(q, 2.0, PHI_1))
    assert z == pytest.approx(2.0 + math.expm1(1.0) / 1.0, abs=1e-9)


def test_table_quantile_interpolates_and_clamps(tmp_path):
    q = tr.TableQuantile(u_knots=np.array([0.1, 0.5, 0.9]),
                         z_knots=np.array([-1.0, 0.0, 2.0]))
    assert float(q.quantile(1.0, 0.3)) == pytest.approx(-0.5)
    assert float(q.quantile(1.0, 0.05)) == -1.0  # clamped
    assert float(q.cdf(1.0, 1.0)) == pytest.approx(0.7)
    with pytest.raises(ParameterError):
        tr.TableQuantile(u_knots=np.array([0.1, 0.1]), z_knots=np.array([0.0, 1.0]))
    csv = tmp_path / "table.csv"
    csv.write_text("0.1,-1.0\n0.5,0.0\n0.9,2.0\n")
    q2 = tr.TableQuantile.from_csv(str(csv))
    assert float(q2.quantile(1.0, 0.5)) == 0.0


def test_poisson_quantile_steps():
    q = tr.PoissonQuantile(rate=2.0)
    assert float(q.quantile(1.0, 0.05)) == 0.0
    assert float(q.quantile(1.0, 0.5)) == 2.0
    assert float(q.cdf(1.0, 1.0)) == pytest.approx(stats.poisson.cdf(1, 2.0))


# ---------------------------------------------------------------------------
# composite maps
# ---------------------------------------------------------------------------

def test_identity_composite_reproduces_paths():
    ou = d.InhomogeneousOU(1.0, 0.0, 1.0, 0.3)
    ens = d.simulate(ou, d.TimeGrid(np.array([0.5, 1.0])), 5_000, 9)
    mq = lambda t: ou.marginal_mean_std(t)[0]
    vq = lambda t: ou.marginal_mean_std(t)[1] ** 2
    ident = tr.true_law_map(ou, tr.GaussianLaw(m=mq, v=vq))
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
    # a driver's true law is the driver itself; a law equal to it in law, such as N(0, t)
    # for Brownian motion, is another law
    ens = d.simulate(d.Brownian(), d.TimeGrid(np.array([1.0])), 100, 0)
    for dist in (tr.GaussianLaw(0.5, 1.0), tr.GaussianLaw(0.0, lambda t: t), d.Brownian(0.5)):
        wrong = tr.CompositeMap(dist=dist, quantile=tr.TukeyG(0, 1, 0.5), mode=tr.MapMode.TRUE_LAW)
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


def test_gaussian_cdf_keeps_relative_accuracy_far_below_the_mean():
    # 1 + erf(.) rounds to exactly 0 below -8.37 sd; ndtr keeps the tail
    assert float(tr.GaussianLaw(-1.0, 0.0625).cdf(1.0, -3.25)) == pytest.approx(
        special.ndtr(-9.0), rel=1e-14)
    assert float(d.Brownian().cdf(0.25, -4.5)) == pytest.approx(
        special.ndtr(-9.0), rel=1e-14)
    # sqrt(0.04) rounds, so this point lies at -9 sd plus two ulps: 2e-14 relative
    v = float(tr.GaussianLaw(-1.0, 0.04).cdf(1.0, -1.0 - 9 * 0.2))
    assert v > 0.0 and v == pytest.approx(PHI_M9, rel=1e-13)


def test_score_composite_is_exact_past_the_level_clamp():
    # F(y) clamped to 1 - 1e-15 capped the score at 7.94, so all three points
    # gave 456.03; composing in the score keeps them apart and exact
    y = np.array([1.6, 1.8, 2.0])
    ens = d.PathEnsemble(grid=d.TimeGrid(np.array([1.0])), paths=y[:, None], seed=0,
                         driver=d.Brownian())
    cm = tr.CompositeMap(dist=tr.GaussianLaw(0.0, 0.04), quantile=tr.TukeyGH(0.0, 1.0, 0.2, 0.1))
    z = tr.apply_composite(cm, ens).paths[:, 0]
    np.testing.assert_allclose(z, tr._gh_core(y / 0.2, 0.2, 0.1), rtol=1e-14, atol=0.0)
    assert np.all(np.diff(z) > 0) and z[-1] == pytest.approx(4741.1, rel=1e-5)


def test_score_composite_overflow_is_a_numeric_error():
    # x = 5 / 0.01 = 500 overflows exp(h x^2 / 2): a typed error, no RuntimeWarning
    ens = d.PathEnsemble(grid=d.TimeGrid(np.array([1.0])), paths=np.array([[0.0], [5.0]]),
                         seed=0, driver=d.Brownian())
    cm = tr.CompositeMap(dist=tr.GaussianLaw(0.0, 1e-4), quantile=tr.TukeyGH(0.0, 1.0, 0.0, 0.5))
    with pytest.raises(NumericError, match="path 1"):
        tr.apply_composite(cm, ens)


_BM, _OU = d.Brownian(0.3), d.InhomogeneousOU(0.9, 0.2, 1.1, 0.4)
_GAUSSIAN_LAWS = [
    tr.GaussianLaw(0.1, 0.05), d.Brownian(), _BM, _OU,
    tr.ShiftedDriverLaw(_BM, 0.4), tr.ShiftedDriverLaw(_OU, 0.7),
    tr.PivotLaw(_OU), tr.PivotLaw(_BM, tr.GaussianLaw(0.2, 1.5)),
]


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(_GAUSSIAN_LAWS), q=_families(("gh", "g", "gaussian")),
       t=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
def test_score_composite_is_the_probability_composite(law, q, t, seed):
    y = law.quantile(t, special.ndtr(np.random.default_rng(seed).uniform(-7.5, 7.5, 64)))
    x = law.score(t, y)
    keep = np.abs(x) < 7.0
    x, y = x[keep], y[keep]
    got = q.compose(t, law, y)
    want = q.quantile(t, clip_unit(law.cdf(t, y)))
    # the probability route rounds u near 1 to absolute precision, an error of
    # eps / phi(x) in the score; the bound is that error carried through Q
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    dx = 1e-13 * (1.0 + np.abs(x)) + np.where(x > 0, 4.0 * np.finfo(float).eps / phi, 0.0)
    bound = np.abs(q.from_score(t, x + dx) - q.from_score(t, x - dx)) + 1e-12 * (1.0 + np.abs(want))
    assert np.all(np.abs(got - want) <= bound)


_TABLE_Q = tr.TableQuantile(np.array([0.0, 0.2, 0.6, 1.0]), np.array([-2.0, -0.5, 0.7, 3.0]))
_VG, _GAMMA = d.VarianceGamma(-0.1, 0.3, 0.4), d.GammaProcess(1.2, 0.6)
_EMPIRICAL = tr.EmpiricalLaw(np.random.default_rng(5).normal(size=200))
_ALL_FAMILIES = [tr.TukeyGH(0.1, 1.0, 0.5, 0.1), tr.TukeyG(0.0, 1.0, 0.4),
                 tr.GaussianLaw(0.2, 2.0), _TABLE_Q, tr.PoissonQuantile(2.5)]
_PROBABILITY_PATH = (
    [(law, drv, q) for law, drv in ((_VG, _VG), (_GAMMA, _GAMMA),
                                    (_EMPIRICAL, _BM), (tr.PivotLaw(_BM, _EMPIRICAL), _BM))
     for q in _ALL_FAMILIES]
    + [(law, drv, q) for law, drv in ((tr.GaussianLaw(0.1, 0.05), _BM), (_OU, _OU))
       for q in (_TABLE_Q, tr.PoissonQuantile(2.5))])


@pytest.mark.parametrize("law, drv, q", _PROBABILITY_PATH,
                         ids=[f"{getattr(law, 'kind', law.family)}-{q.family}"
                              for law, _, q in _PROBABILITY_PATH])
def test_composite_without_closed_form_keeps_the_probability_path(law, drv, q):
    # a law without an exact score, or a family without a closed form in it,
    # composes Q(clip_unit(F(y))) bit for bit
    ens = d.simulate(drv, d.TimeGrid(np.array([0.5, 1.0])), 500, 7)
    z = tr.apply_composite(tr.CompositeMap(dist=law, quantile=q), ens).paths
    for k, t in enumerate(ens.grid.times):
        assert np.array_equal(z[:, k], q.quantile(t, clip_unit(law.cdf(t, ens.paths[:, k]))))


def test_driver_law_takes_no_shift():
    # the older name of a driver's true law hands back the driver, which is that law
    assert tr.DriverLaw(_BM) is _BM
    with pytest.raises(TypeError):
        tr.DriverLaw(_BM, 0.3)


@pytest.mark.parametrize("drv", [_BM, _OU, _VG], ids=["Brownian", "OU", "VG"])
def test_driver_law_is_the_shifted_law_at_zero(drv):
    # forward and inverse composites agree bit for bit
    q = tr.TukeyGH(0.1, 1.0, 0.5, 0.1)
    laws = (drv, tr.ShiftedDriverLaw(drv, 0.0))
    ens = d.simulate(drv, d.TimeGrid(np.array([0.5, 1.0])), 500, 7)
    fwd = [tr.apply_composite(tr.CompositeMap(dist=law, quantile=q), ens).paths for law in laws]
    assert np.array_equal(*fwd)
    zs = np.linspace(-3.0, 6.0, 41)
    inv = [tr.preimage(q, law, 1.0, zs) for law in laws]
    for a, b in zip(*inv):
        assert np.array_equal(a, b, equal_nan=True)


# ---------------------------------------------------------------------------
# score maps
# ---------------------------------------------------------------------------

#: the empirical law inverts strictly between its outermost knot levels 0.5/n and
#: 1 - 0.5/n; from_score sends the scores at and past them to -inf and +inf
_EMPIRICAL_REACH = float(special.ndtri(1.0 - 0.5 / _EMPIRICAL.samples.size)) * (1.0 - 1e-12)
#: (name, law, its driver, the reach |x| of the score round trip, exact): the maps of
#: a normal law are affine; a law read through its level ndtr(x) carries the round-off
#: of the level, eps / phi(x), and of its value w, eps |w| f(w) / phi(x), into x
_SCORE_LAWS = [
    ("gaussian", tr.GaussianLaw(lambda t: 0.3 * t, lambda t: 0.5 + t), _BM, 30.0, True),
    ("driver-bm", _BM, _BM, 30.0, True),
    ("shifted-bm", tr.ShiftedDriverLaw(_BM, 0.4), _BM, 30.0, True),
    ("driver-ou", _OU, _OU, 30.0, True),
    ("shifted-ou", tr.ShiftedDriverLaw(_OU, 0.7), _OU, 30.0, True),
    ("pivot-normal", tr.PivotLaw(_OU, tr.GaussianLaw(0.2, 1.5)), _OU, 30.0, True),
    ("driver-vg", _VG, _VG, 7.0, False),
    ("shifted-vg", tr.ShiftedDriverLaw(_VG, 0.3), _VG, 7.0, False),
    ("driver-gamma", _GAMMA, _GAMMA, 7.0, False),
    ("shifted-gamma", tr.ShiftedDriverLaw(_GAMMA, 0.5), _GAMMA, 7.0, False),
    ("pivot-empirical", tr.PivotLaw(_BM, _EMPIRICAL), _BM, _EMPIRICAL_REACH, False),
    ("empirical", _EMPIRICAL, _BM, _EMPIRICAL_REACH, False),
    # the quantile families are laws too; TukeyG's score log1p(g z) / g loses digits where
    # g x << 0 and core is flat, so its reach stops at 8; the table resolves levels to 1e-12
    ("gh", tr.TukeyGH(0.1, 1.0, 0.5, 0.1), _BM, 30.0, True),
    ("g", tr.TukeyG(0.2, 1.3, -0.4), _BM, 8.0, True),
    ("gaussian-q", tr.GaussianLaw(0.2, 2.0), _BM, 30.0, True),
    ("table", _TABLE_Q, _BM, 7.0, False),
]
_score_laws = st.sampled_from(_SCORE_LAWS)


def _score_tol(law, t, x, w, exact):
    """The round-off of the score x = score(w): relative for an exact law, else the
    level's and the value's round-off carried into x (see _SCORE_LAWS)."""
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 1e-14 * (1.0 + np.abs(x) + (0.0 if exact else (1.0 + np.abs(w) * law.pdf(t, w)) / phi))


@settings(max_examples=40, deadline=None)
@given(case=_score_laws, fracs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20),
       t=st.floats(0.2, 3.0))
# x = 7 on the VG law at t = 0.25: its level 1 - 1.3e-12 is read from the upper tail
@example(case=next(c for c in _SCORE_LAWS if c[0] == "driver-vg"), fracs=[1.0], t=0.25)
def test_from_score_inverts_score(case, fracs, t):
    _, law, _, reach, exact = case
    x = reach * np.array(fracs)
    w = law.from_score(t, x)
    assert np.all(np.abs(law.score(t, w) - x) <= _score_tol(law, t, x, w, exact))


@settings(max_examples=40, deadline=None)
@given(case=_score_laws, fracs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20),
       t=st.floats(0.2, 3.0))
# x = -7 on the shifted gamma law at t = 0.25: the density is +inf there
@example(case=next(c for c in _SCORE_LAWS if c[0] == "shifted-gamma"), fracs=[-1.0], t=0.25)
def test_pdf_is_phi_of_score_times_its_slope(case, fracs, t):
    # score' by a central difference whose step moves the score by about 2e-5: its
    # truncation error stays below 1e-6 relative, its rounding error is the score's
    # round-off over the step.  Across a knot of a piecewise-linear law the quotient lies
    # between the densities at the step's ends; an end past the support, or an infinite
    # density, leaves no slope to compare.
    _, law, _, reach, exact = case
    x = reach * np.array(fracs)
    w = law.from_score(t, x)
    s = law.score(t, w)
    phi = np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)
    f = law.pdf(t, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = 1e-5 * phi / f
        dens = np.array([law.pdf(t, w - step), f, law.pdf(t, w + step)])
        slope = phi * (law.score(t, w + step) - law.score(t, w - step)) / (2.0 * step)
    keep = np.all(np.isfinite(dens) & (dens > 0), axis=0)
    err = (f * (_score_tol(law, t, x, w, exact) / 1e-5 + 1e-6))[keep]
    slope, dens = slope[keep], dens[:, keep]
    assert np.all((slope >= dens.min(0) - err) & (slope <= dens.max(0) + err))


@settings(max_examples=30, deadline=None)
@given(case=_score_laws, q=_families(kinds=("gh", "g", "gaussian")), t=st.floats(0.2, 3.0))
def test_distorted_cdf_is_monotone_in_the_unit_interval(case, q, t):
    _, law, drv, _, _ = case
    zs = q.from_score(t, np.linspace(-12.0, 12.0, 97))
    cdf = me.distorted_cdf(me.DistortedLaw(tr.CompositeMap(dist=law, quantile=q), drv), t, zs)
    # monotone to round-off: scipy's gamma CDF can step down by an ulp between adjacent floats
    assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= -4.0 * np.finfo(float).eps)


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
