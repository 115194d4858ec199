import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from quantproc import copulas as cp
from quantproc import dominance as dm
from quantproc import drivers as d
from quantproc import measures as me
from quantproc import transforms as tr
from quantproc._util import _BLOCK
from quantproc.errors import CapabilityError, NumericError, ParameterError

from conftest import ks_critical


def identity_map(ou):
    mq = lambda t: ou.marginal_mean_std(t)[0]
    vq = lambda t: ou.marginal_mean_std(t)[1] ** 2
    return tr.true_law_map(ou, tr.GaussianLaw(m=mq, v=vq))


# ---------------------------------------------------------------------------
# distorted laws
# ---------------------------------------------------------------------------

def test_identity_distorted_cdf_equals_base():
    ou = d.InhomogeneousOU(1.0, 0.2, 0.8, 0.1)
    law = me.DistortedLaw(identity_map(ou), ou)
    zs = np.linspace(-1.5, 2.0, 25)
    got = me.distorted_cdf(law, 0.7, zs)
    assert np.max(np.abs(got - ou.cdf(0.7, zs))) < 1e-10


def test_distorted_cdf_tukey_g_closed_form():
    g = 0.5
    law = me.DistortedLaw(tr.canonical_map(tr.TukeyG(0, 1, g)), d.Brownian())
    zs = np.array([-1.5, -0.3, 0.0, 1.0, 4.0])
    want = np.where(g * zs + 1 > 0,
                    stats.norm.cdf(np.log(np.maximum(g * zs + 1, 1e-300)) / g), 0.0)
    got = me.distorted_cdf(law, 1.0, zs)
    assert np.max(np.abs(got - want)) < 1e-12
    # mass vanishes off the family's range
    assert me.distorted_cdf(law, 1.0, -2.0 - 1e-9) == 0.0
    assert me.distorted_cdf(law, 1.0, -5.0) == 0.0
    assert me.distorted_cdf(law, 1.0, 1e12) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dist", [None, tr.GaussianLaw(0.0, 1.0)])
def test_pivot_map_distorted_law_is_family_law(dist):
    # the N(0, 1) pivot of a Gaussian driver makes the level uniform, so the
    # distorted law is the quantile family's own law at every time
    q = tr.TukeyG(0, 1, 0.5)
    cm = tr.CompositeMap(dist=dist, quantile=q, mode=tr.MapMode.PIVOT)
    zs = np.array([-1.2, 0.3, 2.5])
    for base in (d.Brownian(), d.InhomogeneousOU(1.0, 0.3, 0.9, 0.2)):
        law = me.DistortedLaw(cm, base)
        assert me.distorted_cdf(law, 0.5, 0.3) == pytest.approx(float(q.cdf(0.5, 0.3)), abs=1e-12)
        assert np.allclose(me.distorted_pdf(law, 0.5, zs), q.pdf(0.5, zs), rtol=1e-10)


def test_distorted_cdf_matches_ensemble_frequencies():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyGH(0, 1, 0.5, 0.1))
    law = me.DistortedLaw(cm, bm)
    ens = d.simulate(bm, d.TimeGrid(np.array([1.0])), 100_000, 19)
    z = tr.apply_composite(cm, ens).paths[:, 0]
    u = me.distorted_cdf(law, 1.0, z)
    zs = np.sort(z)
    emp = np.arange(1, z.size + 1) / z.size
    stat = float(np.max(np.abs(np.sort(u) - emp)))
    assert stat < ks_critical(z.size)


def test_true_law_distorted_cdf_is_stationary():
    # with the driver's own law in the map, the output law is the quantile
    # family's CDF at every time
    ou = d.InhomogeneousOU(0.8, 0.3, 1.1, -0.2)
    q = tr.TukeyGH(0.1, 1.3, 0.6, 0.15)
    law = me.DistortedLaw(tr.true_law_map(ou, q), ou)
    zs = np.linspace(-2.0, 4.0, 31)
    for t in (0.3, 1.0, 2.5):
        got = me.distorted_cdf(law, t, zs)
        want = tr.quantile_cdf(q, t, zs)
        assert np.max(np.abs(got - want)) < 1e-12


def test_conditional_partial_mass_identity_ou_driver():
    ou = d.InhomogeneousOU(1.1, 0.2, 0.7, 0.4)
    cm = tr.true_law_map(ou, tr.TukeyGH(0, 1, 0.5, 0.1))
    dist = cm.dist_for(ou)
    s, t = 0.4, 1.1
    for state, cut in ((0.1, 0.8), (0.6, 0.2), (-0.3, 1.5)):
        mean, sd = ou._transition_mean_std(s, t, np.array([state]))
        lo = float(mean[0]) - 9 * sd
        got, _ = integrate.quad(
            lambda y: float(me.conditional_rn(cm, ou, s, t, state, y))
            * float(ou.transition_pdf(s, t, state, y)),
            lo, cut, limit=500)

        def mapped_mass(z):
            w = float(dist.quantile(t, cm.quantile.cdf(t, z)))
            return stats.norm.cdf((w - float(mean[0])) / sd)

        want = mapped_mass(cut) - mapped_mass(lo)
        assert got == pytest.approx(want, abs=1e-7)


def test_distorted_pdf_is_cdf_derivative():
    law = me.DistortedLaw(tr.canonical_map(tr.TukeyGH(0, 1, 0.4, 0.2)), d.Brownian())
    eps = 1e-6
    for z in (-0.8, 0.0, 1.3):
        fd = (me.distorted_cdf(law, 1.0, z + eps) - me.distorted_cdf(law, 1.0, z - eps)) / (2 * eps)
        assert me.distorted_pdf(law, 1.0, z) == pytest.approx(fd, rel=1e-5)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-0.5, 0.5), b=st.floats(0.5, 2.0), g=st.floats(-1.0, 1.0),
       h=st.floats(0.0, 0.3), kind=st.sampled_from(["brownian", "ou", "false-law"]))
def test_preimage_ties_density_ratio_and_cdf(a, b, g, h, kind):
    # density, density ratio and CDF all read the one preimage w = Q_dist(F_Q(z))
    q = tr.TukeyGH(a, b, g, h)
    if kind == "ou":
        base = d.InhomogeneousOU(1.0, 0.2, 0.8, 0.1)
        cm = tr.true_law_map(base, q)
    else:
        base = d.Brownian()
        cm = (tr.true_law_map(base, q) if kind == "brownian"
              else tr.CompositeMap(dist=tr.GaussianLaw(0.3, 1.5), quantile=q))
    law = me.DistortedLaw(cm, base)
    t = 0.8
    zs = np.linspace(-3.0, 3.0, 25)
    pdf = me.distorted_pdf(law, t, zs)
    rho = me.rn_derivative(cm, base, t, zs)
    assert np.allclose(pdf, rho * base.pdf(t, zs), rtol=1e-12, atol=0.0)
    eps = 1e-5
    central = (me.distorted_cdf(law, t, zs + eps) - me.distorted_cdf(law, t, zs - eps)) / (2 * eps)
    assert np.allclose(central, pdf, rtol=1e-5, atol=1e-7)
    dist = cm.dist_for(base)
    x, w, _, _, ok = tr.preimage(q, dist, t, zs)
    # the Gaussian CDF keeps ~1e-16 absolute, not relative, accuracy as it nears 1,
    # hence the level cut and the tolerance
    sel = ok & (np.abs(x) < 7.0)
    assert np.allclose(q.quantile(t, dist.cdf(t, w[sel])), zs[sel], rtol=1e-6, atol=1e-9)


# a false-law map whose narrow law sends the family's score x to y = 0.2 x: at these
# scores the level ndtr(x) rounds to 1, and the inverse path must not pass through it
_FALSE_Q = tr.TukeyGH(0.0, 1.0, 0.2, 0.1)
_FALSE_LAW = me.DistortedLaw(tr.CompositeMap(dist=tr.GaussianLaw(0.0, 0.04), quantile=_FALSE_Q),
                             d.Brownian())


@pytest.mark.parametrize("x", [8.0, 8.25, 8.3, 9.0])
def test_false_law_keeps_the_upper_tail(x):
    # Z = Q(Y / 0.2) for Y ~ N(0, 1), so F_Z(Q(x)) = Phi(0.2 x) and f_Z = phi(0.2 x) 0.2 / Q'(x)
    z = float(_FALSE_Q.from_score(1.0, x))
    g, h = 0.2, 0.1
    slope = math.exp(0.5 * h * x * x) * (math.exp(g * x) + h * x * math.expm1(g * x) / g)
    want = stats.norm.cdf(0.2 * x)
    assert me.distorted_cdf(_FALSE_LAW, 1.0, z) == pytest.approx(want, rel=1e-12)
    assert me.distorted_pdf(_FALSE_LAW, 1.0, z) == pytest.approx(
        stats.norm.pdf(0.2 * x) * 0.2 / slope, rel=1e-12)


@pytest.mark.parametrize("x", [45.0, 60.0])
def test_false_law_reads_scores_past_the_start_table(x):
    # a law of sd 0.01 sends the score x to y = 0.01 x, so F_Z(Q(x)) = Phi(0.01 x);
    # x_from_z had clamped these scores to 39, giving Phi(0.39)
    law = me.DistortedLaw(tr.CompositeMap(dist=tr.GaussianLaw(0.0, 1e-4), quantile=_FALSE_Q), d.Brownian())
    z = float(_FALSE_Q.from_score(1.0, x))
    assert me.distorted_cdf(law, 1.0, z) == pytest.approx(stats.norm.cdf(0.01 * x), rel=1e-12)


def test_false_law_density_integrates_to_one():
    # the CDF ends at 0 and 1, and 64-node Gauss-Legendre panels between Q at the
    # scores -38, -36, ..., 38 hold the mass; the mass beyond them, 2 Phi(-7.6), is 3e-14
    assert np.array_equal(me.distorted_cdf(_FALSE_LAW, 1.0, [-np.inf, np.inf]), [0.0, 1.0])
    edges = _FALSE_Q.from_score(1.0, np.arange(-38.0, 39.0, 2.0))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    mass = sum((b - a) / 2.0 * np.sum(weights * me.distorted_pdf(
        _FALSE_LAW, 1.0, (a + b) / 2.0 + (b - a) / 2.0 * nodes)) for a, b in zip(edges[:-1], edges[1:]))
    assert mass == pytest.approx(1.0, abs=1e-10)


#: 200 N(0, 1) samples: the empirical CDF ranges over [0.5/200, 1 - 0.5/200], so
#: Z = Q(F(Y)) lives on [Q(-2.807), Q(2.807)] with an atom at each end
_EMPIRICAL = tr.EmpiricalLaw(np.random.default_rng(0).standard_normal(200))
_EMPIRICAL_Q = tr.TukeyGH(0.1, 1.0, 0.3, 0.1)


@pytest.mark.parametrize("mode", [tr.MapMode.FALSE_LAW, tr.MapMode.PIVOT])
def test_empirical_law_keeps_the_atoms_of_the_composite(mode):
    law = me.DistortedLaw(tr.CompositeMap(dist=_EMPIRICAL, quantile=_EMPIRICAL_Q, mode=mode),
                          d.Brownian())
    below = _EMPIRICAL_Q.from_score(1.0, np.array([-30.0, -12.0, -8.5, -2.9]))
    above = _EMPIRICAL_Q.from_score(1.0, np.array([2.9, 8.5, 12.0, 30.0]))
    assert np.array_equal(me.distorted_cdf(law, 1.0, below), np.zeros(4))
    assert np.array_equal(me.distorted_cdf(law, 1.0, above), np.ones(4))
    cdf = me.distorted_cdf(law, 1.0, np.linspace(below[-1], above[0], 20001))
    assert np.all(np.diff(cdf) >= 0.0) and 0.0 <= cdf[0] and cdf[-1] <= 1.0


def test_one_inversion_per_call(monkeypatch):
    # F_Q and f_Q come from one x_from_z solve per call on the whole inverse path
    calls = []
    solve = tr.TukeyGH.x_from_z

    def counting(self, t, z):
        calls.append(self.family)
        return solve(self, t, z)

    monkeypatch.setattr(tr.TukeyGH, "x_from_z", counting)
    base = d.Brownian()
    ys = np.linspace(-2.0, 2.0, 9)
    ens = d.simulate(base, d.TimeGrid(np.array([0.5, 1.0, 1.5])), 50, 1)
    for q in (tr.TukeyGH(0.1, 1.0, 0.5, 0.1), tr.TukeyG(0.0, 1.0, 0.5)):
        cm = tr.true_law_map(base, q)
        law = me.DistortedLaw(cm, base)
        mm = cp.MultiCompositeMap(margins=(tr.GaussianLaw(0.0, 1.0),) * 2,
                                  copula=cp.ClaytonCopula(2.0, 2), quantile=q)
        for run, n in ((lambda: tr.preimage(q, cm.dist_for(base), 1.0, ys), 1),
                       (lambda: me.distorted_pdf(law, 1.0, ys), 1),
                       (lambda: me.rn_derivative(cm, base, 1.0, ys), 1),
                       (lambda: me.conditional_rn(cm, base, 0.5, 1.0, 0.1, ys), 1),
                       (lambda: cp.multi_rn_derivative(mm, 1.0, ys, tr.GaussianLaw(0.0, 1.0)), 1),
                       (lambda: me.pricing_kernel(cm, base, ens), 2),
                       (lambda: dm.sosd_sufficient_conditions(cm, cm, 1.0, ys, base, base), 2)):
            calls.clear()
            run()
            assert calls == [q.family] * n


def test_nan_state_gives_nan():
    base = d.Brownian()
    cm = tr.true_law_map(base, tr.TukeyGH(0.0, 1.0, 0.5, 0.1))
    law = me.DistortedLaw(cm, base)
    z = np.array([-1.0, 0.4])
    zn = np.insert(z, 1, np.nan)
    for f in (lambda v: me.distorted_pdf(law, 1.0, v), lambda v: me.distorted_cdf(law, 1.0, v),
              lambda v: me.rn_derivative(cm, base, 1.0, v),
              lambda v: me.conditional_rn(cm, base, 0.5, 1.0, 0.1, v)):
        got, want = f(zn), f(z)
        assert np.isnan(got[1]) and np.array_equal(np.delete(got, 1), want)
    assert math.isnan(me.distorted_pdf(law, 1.0, np.nan))


# ---------------------------------------------------------------------------
# density ratios
# ---------------------------------------------------------------------------

def test_identity_ratio_is_one():
    ou = d.InhomogeneousOU(1.0, 0.2, 0.8, 0.1)
    cm = identity_map(ou)
    ys = np.linspace(-1.0, 1.5, 11)
    rho = me.rn_derivative(cm, ou, 0.7, ys)
    assert np.max(np.abs(rho - 1.0)) < 1e-9
    rho_c = me.conditional_rn(cm, ou, 0.3, 0.7, 0.2, ys)
    assert np.max(np.abs(rho_c - 1.0)) < 1e-9


def test_ratio_normalizes_by_quadrature_and_monte_carlo():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    # quadrature oracle: integral of rho against the base density is 1
    # (upper limit chosen so the distorted law's tail mass is below 1e-8)
    val, _ = integrate.quad(
        lambda y: float(me.rn_derivative(cm, bm, 1.0, y)) * float(bm.pdf(1.0, y)),
        -2.0 + 1e-9, 38.0, limit=500)
    assert val == pytest.approx(1.0, abs=1e-7)
    rng = np.random.default_rng(55)
    y = rng.standard_normal(400_000)
    rho = me.rn_derivative(cm, bm, 1.0, y)
    se = rho.std(ddof=1) / math.sqrt(y.size)
    assert abs(rho.mean() - 1.0) <= 3.0 * se


def test_ratio_vanishes_outside_range():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    rho = me.rn_derivative(cm, d.Brownian(), 1.0, np.array([-2.5, -2.0 - 1e-12]))
    assert np.all(rho == 0.0)


def test_reweighting_identity_unbounded_payoff_by_quadrature():
    # E[rho V(Y)] = E[V(Z)] for V = max(y, 0): both sides deterministically,
    # since the left-hand importance estimator has infinite variance under
    # Monte Carlo (the distorted tail is far heavier than the base)
    bm = d.Brownian()
    g = 0.5
    cm = tr.canonical_map(tr.TukeyG(0, 1, g))
    lhs, _ = integrate.quad(
        lambda y: float(me.rn_derivative(cm, bm, 1.0, y)) * max(y, 0.0)
        * float(bm.pdf(1.0, y)), 0.0, 38.0, limit=500)
    rhs, _ = integrate.quad(
        lambda x: max(math.expm1(g * x) / g, 0.0) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
        0.0, 10.0, limit=200)
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_reweighting_identity_bounded_payoff_by_monte_carlo():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    rng = np.random.default_rng(55)
    y = rng.standard_normal(400_000)
    rho = me.rn_derivative(cm, bm, 1.0, y)
    layer = lambda x: np.clip(np.asarray(x) - 1.0, 0.0, 1.0)
    lhs = float(np.mean(rho * layer(y)))
    z = tr.quantile_eval(tr.TukeyG(0, 1, 0.5), 1.0, stats.norm.cdf(y))
    rhs = float(np.mean(layer(z)))
    se = math.hypot(float(np.std(rho * layer(y), ddof=1)),
                    float(np.std(layer(z), ddof=1))) / math.sqrt(y.size)
    assert abs(lhs - rhs) <= 3.0 * se


def test_denominator_underflow_raises():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    with pytest.raises(NumericError):
        me.rn_derivative(cm, bm, 1.0, 40.0)


def test_denominator_underflow_raises_from_a_later_block():
    # the ratio works in blocks of _BLOCK points; the underflow at the last point is
    # found in the last block
    y = np.append(np.linspace(-2.0, 2.0, 2 * _BLOCK), 40.0)
    with pytest.raises(NumericError, match="underflow"):
        me.rn_derivative(tr.canonical_map(tr.TukeyG(0, 1, 0.5)), d.Brownian(), 1.0, y)


def test_conditional_ratio_in_blocks_reads_each_points_state():
    # across the block edges each point's ratio reads its own state, as a call on its
    # block alone does
    ou = d.InhomogeneousOU(0.9, 0.2, 1.1, 0.4)
    cm = tr.true_law_map(ou, tr.TukeyGH(0.1, 1.2, 0.5, 0.2))
    rng = np.random.default_rng(3)
    n = 3 * _BLOCK + 5
    state, y = rng.normal(0.2, 0.5, n), rng.normal(0.2, 0.8, n)
    whole = me.conditional_rn(cm, ou, 0.5, 1.0, state, y)
    parts = [me.conditional_rn(cm, ou, 0.5, 1.0, state[i:i + _BLOCK], y[i:i + _BLOCK])
             for i in range(0, n, _BLOCK)]
    np.testing.assert_array_equal(whole, np.concatenate(parts))


_OU_MAP = tr.true_law_map(d.InhomogeneousOU(0.9, 0.2, 1.1, 0.4), tr.TukeyGH(0.1, 1.2, 0.5, 0.2))
_GH_LAW = me.DistortedLaw(tr.canonical_map(tr.TukeyGH(0.1, 1.2, 0.5, 0.2)), d.Brownian())
_BLOCKED_MAPS = {
    "rn_derivative": lambda y: me.rn_derivative(_GH_LAW.map, _GH_LAW.base, 1.0, y),
    "conditional_rn": lambda y: me.conditional_rn(_OU_MAP, _OU_MAP.dist, 0.5, 1.0, 0.3, y),
    "distorted_cdf": lambda y: me.distorted_cdf(_GH_LAW, 1.0, y),
    "distorted_pdf": lambda y: me.distorted_pdf(_GH_LAW, 1.0, y),
}


@pytest.mark.parametrize("name", list(_BLOCKED_MAPS))
def test_blocked_maps_keep_scalar_and_2d_shapes(name):
    fn = _BLOCKED_MAPS[name]
    y = np.linspace(-3.0, 3.0, 2 * (_BLOCK + 3)).reshape(2, _BLOCK + 3)
    flat, square = fn(y.ravel()), fn(y)
    assert square.shape == y.shape and np.array_equal(square.ravel(), flat)
    one = fn(float(y[1, 5]))
    assert isinstance(one, float) and one == pytest.approx(float(square[1, 5]), rel=1e-13)


def test_conditional_ratio_normalizes_per_state():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    for state in (-0.8, 0.0, 0.6):
        val, _ = integrate.quad(
            lambda y: float(me.conditional_rn(cm, bm, 0.5, 1.0, state, y))
            * float(bm.transition_pdf(0.5, 1.0, state, y)),
            -2.0 + 1e-9, 14.0, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_conditional_ratio_partial_mass_identity_many_states():
    # sharp deterministic check avoiding the infinite-variance far tail:
    # integral of rho over (-inf, Y] against the transition law equals the
    # conditional probability the distorted value sits at or below Y
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyGH(0, 1, 0.5, 0.1))
    dist = cm.dist_for(bm)
    rng = np.random.default_rng(6)
    s, t = 0.5, 1.0
    sd = math.sqrt(t - s)
    for state, cut in zip(rng.uniform(-1.5, 1.5, 12), rng.uniform(-1.0, 3.0, 12)):
        got, _ = integrate.quad(
            lambda y: float(me.conditional_rn(cm, bm, s, t, state, y))
            * float(bm.transition_pdf(s, t, state, y)),
            state - 9 * sd, cut, limit=500)
        w = float(dist.quantile(t, cm.quantile.cdf(t, cut)))
        want = stats.norm.cdf((w - state) / sd)
        assert got == pytest.approx(want, abs=1e-7)


def test_conditional_ratio_monte_carlo_bounded_map():
    # a location-scale distortion keeps the ratio bounded, so the plain
    # Monte Carlo normalization is statistically clean
    bm = d.Brownian()
    cm = tr.canonical_map(tr.GaussianLaw(m=0.2, v=lambda t: 0.6 * t))
    rng = np.random.default_rng(6)
    for s in rng.uniform(-1.0, 1.0, 10):
        y = s + math.sqrt(0.5) * rng.standard_normal(40_000)
        rho = me.conditional_rn(cm, bm, 0.5, 1.0, s, y)
        se = rho.std(ddof=1) / math.sqrt(y.size)
        assert abs(rho.mean() - 1.0) <= 3.5 * se


def test_conditional_reduces_to_marginal_at_time_zero():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    ys = np.linspace(-1.5, 3.0, 9)
    a = me.conditional_rn(cm, bm, 0.0, 1.0, 0.0, ys)
    b = me.rn_derivative(cm, bm, 1.0, ys)
    assert np.max(np.abs(a - b)) < 1e-10


def test_s_must_precede_t():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    with pytest.raises(ParameterError):
        me.conditional_rn(cm, bm, 1.0, 0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# pushforward consistency: three routes to the same interval probability
# ---------------------------------------------------------------------------

def test_pushforward_three_ways():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyGH(0, 1, 0.5, 0.1))
    law = me.DistortedLaw(cm, bm)
    ens = d.simulate(bm, d.TimeGrid(np.array([1.0])), 200_000, 41)
    z = tr.apply_composite(cm, ens).paths[:, 0]
    y = ens.paths[:, 0]
    a_, b_ = 0.2, 1.5
    freq = float(np.mean((z > a_) & (z <= b_)))
    cdf_diff = float(me.distorted_cdf(law, 1.0, b_) - me.distorted_cdf(law, 1.0, a_))
    rho = me.rn_derivative(cm, bm, 1.0, y)
    reweight = float(np.mean(rho * ((y > a_) & (y <= b_))))
    se_freq = math.sqrt(freq * (1 - freq) / z.size)
    se_rho = float(np.std(rho * ((y > a_) & (y <= b_)), ddof=1)) / math.sqrt(y.size)
    assert abs(freq - cdf_diff) <= 3.0 * se_freq
    assert abs(reweight - cdf_diff) <= 3.0 * se_rho


# ---------------------------------------------------------------------------
# pricing kernel
# ---------------------------------------------------------------------------

def test_identity_kernel_zero_rate():
    ou = d.InhomogeneousOU(1.0, 0.0, 1.0, 0.2)
    ens = d.simulate(ou, d.TimeGrid(np.array([1e-6, 0.5, 1.0])), 2_000, 7)
    pk = me.pricing_kernel(identity_map(ou), ou, ens, 0.0)
    assert np.max(np.abs(pk.phi - 1.0)) < 1e-9


def test_identity_kernel_constant_rate():
    ou = d.InhomogeneousOU(1.0, 0.0, 1.0, 0.2)
    ens = d.simulate(ou, d.TimeGrid(np.array([1e-6, 0.4, 1.0])), 2_000, 7)
    pk = me.pricing_kernel(identity_map(ou), ou, ens, 0.05)
    # rho == 1 chain leaves phi = B_first / B_t
    want = pk.money_market[0] / pk.money_market
    assert np.max(np.abs(pk.phi - want[None, :])) < 1e-9
    assert pk.money_market[-1] == pytest.approx(math.exp(0.05), rel=1e-10)


def test_kernel_positive_for_full_range_family():
    bm = d.Brownian()
    cm = tr.canonical_map(tr.TukeyGH(0, 1, 0.5, 0.1))
    ens = d.simulate(bm, d.TimeGrid(np.array([0.25, 0.5, 1.0])), 20_000, 9)
    pk = me.pricing_kernel(cm, bm, ens, 0.0)
    assert np.all(pk.phi > 0)
    assert np.all(pk.phi[:, 0] == 1.0)


def test_kernel_martingale_bucketed():
    # the distortion must keep the conditional density ratio bounded for the
    # bucket means to obey a clean central limit theorem; a location-scale
    # map does (heavy g-and-h maps give the ratio infinite variance)
    bm = d.Brownian()
    cm = tr.canonical_map(tr.GaussianLaw(m=0.2, v=lambda t: 0.6 * t))
    ens = d.simulate(bm, d.TimeGrid(np.array([0.25, 0.5, 1.0])), 200_000, 101)
    for rate in (0.0, 0.05):
        pk = me.pricing_kernel(cm, bm, ens, rate)
        m = pk.deflated()
        y_t = ens.paths[:, 1]
        edges = np.quantile(y_t, np.linspace(0, 1, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (y_t >= lo) & (y_t <= hi)
            diff = m[sel, 2] - m[sel, 1]
            se = diff.std(ddof=1) / math.sqrt(sel.sum())
            assert abs(diff.mean()) <= 3.0 * se


def test_kernel_needs_two_grid_points():
    bm = d.Brownian()
    ens = d.simulate(bm, d.TimeGrid(np.array([1.0])), 100, 0)
    with pytest.raises(ParameterError):
        me.pricing_kernel(tr.canonical_map(tr.TukeyG(0, 1, 0.5)), bm, ens, 0.0)
    with pytest.raises(ParameterError):
        ens2 = d.simulate(bm, d.TimeGrid(np.array([0.5, 1.0])), 100, 0)
        me.pricing_kernel(tr.canonical_map(tr.TukeyG(0, 1, 0.5)), bm, ens2, -0.01)


# ---------------------------------------------------------------------------
# discrete composites
# ---------------------------------------------------------------------------

def test_discrete_mass_ratio_normalizes():
    lam = d.InhomogeneousPoisson(intensity=2.0)
    cmap = tr.CompositeMap(dist=lam, quantile=tr.PoissonQuantile(rate=1.3),
                           mode=tr.MapMode.FALSE_LAW)
    t = 1.5
    ks = np.arange(0, 80).astype(float)
    rho = me.rn_derivative(cmap, lam, t, ks)
    total = float(np.sum(rho * lam.pmf(t, ks)))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_discrete_identity_ratio_is_one():
    lam = d.InhomogeneousPoisson(intensity=2.0)
    cmap = tr.CompositeMap(dist=lam, quantile=tr.PoissonQuantile(rate=2.0),
                           mode=tr.MapMode.FALSE_LAW)
    rho = me.rn_derivative(cmap, lam, 1.5, np.arange(0, 12).astype(float))
    assert np.max(np.abs(rho - 1.0)) < 1e-9


def test_discrete_requires_discrete_quantile():
    lam = d.InhomogeneousPoisson(intensity=2.0)
    cmap = tr.CompositeMap(dist=lam, quantile=tr.TukeyG(0, 1, 0.5),
                           mode=tr.MapMode.FALSE_LAW)
    with pytest.raises(CapabilityError):
        me.rn_derivative(cmap, lam, 1.0, 3.0)
