import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from quantproc import dominance as dom
from quantproc import drivers as d
from quantproc import transforms as tr
from quantproc.errors import NumericError, ParameterError


def gh(g, h):
    return tr.TukeyGH(0.0, 1.0, g, h)


# ---------------------------------------------------------------------------
# crossing levels (the canonical skew/kurtosis table)
# ---------------------------------------------------------------------------

def test_crossing_low_tail_pair():
    u = dom.crossing_u_star(gh(2.0, 0.4), gh(0.8, 0.05))
    assert u == pytest.approx(0.0218, abs=0.001)
    rep = dom.crossing_report(gh(2.0, 0.4), gh(0.8, 0.05))
    assert rep.direction == 1
    assert rep.domain_lower == pytest.approx(-1.109, abs=0.01)


def test_crossing_effectively_zero():
    u = dom.crossing_u_star(gh(3.0, 0.2), gh(0.5, 0.05))
    assert u == pytest.approx(0.0, abs=1e-3)


def test_crossing_boundary_pair():
    rep = dom.crossing_report(gh(2.0, 0.05), gh(0.8, 0.4))
    assert rep.u_star == pytest.approx(1.0, abs=1e-3)
    assert "boundary" in rep.notes


def test_equal_g_crosses_at_median():
    # the quantile difference vanishes cubically at the median, so the root is
    # resolvable only to the documented 1e-8 level
    u = dom.crossing_u_star(gh(1.0, 0.4), gh(1.0, 0.1))
    assert u == pytest.approx(0.5, abs=1e-7)


def test_crossing_none_when_second_dominates():
    # second curve strictly above everywhere: shifted location
    u = dom.crossing_u_star(tr.TukeyGH(0.0, 1.0, 0.5, 0.1), tr.TukeyGH(1.0, 1.0, 0.5, 0.1))
    assert u is None


def test_crossing_zero_when_first_dominates_everywhere():
    u = dom.crossing_u_star(tr.TukeyGH(1.0, 1.0, 0.5, 0.1), tr.TukeyGH(0.0, 1.0, 0.5, 0.1))
    assert u == 0.0


def test_crossing_antisymmetry():
    q1, q2 = gh(2.0, 0.4), gh(0.8, 0.05)
    r12 = dom.crossing_report(q1, q2)
    r21 = dom.crossing_report(q2, q1)
    assert r12.u_star == pytest.approx(r21.u_star, abs=1e-9)
    assert r12.direction == -r21.direction


def test_crossing_identical_curves_no_verdict():
    q = tr.TukeyGH(0.0, 1.0, 0.5, 0.1)
    rep = dom.crossing_report(q, q)
    assert rep.order is None and rep.direction == 0 and rep.u_star is None
    assert rep.notes == "curves indistinguishable at tolerance"


def test_crossing_consistency_with_quantile_value():
    # the dominance domain bound is the common quantile value at the crossing
    for q1, q2 in ((gh(2.0, 0.4), gh(0.8, 0.05)), (gh(2.0, 0.05), gh(1.5, 0.4))):
        rep = dom.crossing_report(q1, q2)
        z1 = float(q1.quantile(1.0, rep.u_star))
        z2 = float(q2.quantile(1.0, rep.u_star))
        assert rep.domain_lower == pytest.approx(z1, rel=1e-6)
        assert z1 == pytest.approx(z2, rel=1e-6)


# domain bounds Q1(x*) = Q2(x*) solved in 40-digit arithmetic; at these crossings the
# level ndtr(x*) is within 1e-8 of 1 and keeps few digits of x*

@pytest.mark.parametrize("g1, g2, h1, h2, want", [(2.0, 0.8, 0.05, 0.4, 196110.81441188508),
                                                  (2.0, 1.5, 0.05, 0.2, 214900.76336581291)],
                         ids=["row3", "row4"])
def test_crossing_table_far_tail_rows_domain_bound(g1, g2, h1, h2, want):
    rep = dom.crossing_report(gh(g1, h1), gh(g2, h2))
    assert rep.direction == -1
    assert rep.domain_lower == pytest.approx(want, rel=1e-12)


# b2 = core_1(x*) / core_2(x*) puts the crossing of gh(0.2, 0.1) and
# TukeyGH(0, b2, 0.3, 0.05) at x* = 7.8 and 8.1, where 1 - ndtr(x*) is 3e-15 and 3e-16
@pytest.mark.parametrize("b2, want", [(2.7507096520546512, 393.68193907312036),
                                      (3.0263292477587074, 538.83938727524648)],
                         ids=["x7.8", "x8.1"])
def test_crossing_deep_in_the_upper_tail(b2, want):
    rep = dom.crossing_report(gh(0.2, 0.1), tr.TukeyGH(0.0, b2, 0.3, 0.05))
    assert rep.direction == 1
    assert rep.domain_lower == pytest.approx(want, rel=1e-12)


def test_reference_pair_with_heavier_second_tail():
    # the (2, 1.5, 0.05, 0.4) pair reproduces the reference crossing level
    # 0.985 and domain bound 42.36
    rep = dom.crossing_report(gh(2.0, 0.05), gh(1.5, 0.4))
    assert rep.u_star == pytest.approx(0.985, abs=0.002)
    assert rep.domain_lower == pytest.approx(42.36, abs=0.1)
    assert rep.direction == -1


def test_crossing_monotone_in_skew_gap():
    # u* falls as the skew gap widens, at fixed kurtosis gap
    g2, h2 = 0.1, 0.05
    for dh in (0.2, 0.35, 0.5):
        us = []
        for dg in (0.05, 0.5, 1.0, 2.0, 4.0):
            us.append(dom.crossing_u_star(gh(g2 + dg, h2 + dh), gh(g2, h2)))
        assert all(a >= b - 1e-9 for a, b in zip(us, us[1:]))
        assert 0.3 < us[0] < 0.5
        assert us[-1] <= 0.01


def test_crossing_curve_ordering_in_kurtosis_gap():
    g2, h2 = 0.1, 0.05
    dg = 1.0
    u_by_dh = [dom.crossing_u_star(gh(g2 + dg, h2 + dh), gh(g2, h2))
               for dh in (0.2, 0.35, 0.5)]
    assert u_by_dh[0] < u_by_dh[1] < u_by_dh[2]


# ---------------------------------------------------------------------------
# first-order checks
# ---------------------------------------------------------------------------

def test_fosd_mean_shift():
    rep = dom.fosd_check(lambda z: stats.norm.cdf(z, 1, 1),
                         lambda z: stats.norm.cdf(z, 0, 1), (-6.0, 7.0))
    assert rep.order == "FOSD" and rep.direction == 1
    assert rep.domain_lower == -6.0
    assert rep.strictness_witness is not None


def test_fosd_reversed_direction_detected():
    rep = dom.fosd_check(lambda z: stats.norm.cdf(z, 0, 1),
                         lambda z: stats.norm.cdf(z, 1, 1), (-6.0, 7.0))
    assert rep.order == "FOSD" and rep.direction == -1


def test_fosd_identical_cdfs_no_verdict():
    rep = dom.fosd_check(lambda z: stats.norm.cdf(z), lambda z: stats.norm.cdf(z),
                         (-6.0, 6.0))
    assert rep.order is None and rep.direction == 0


def test_fosd_tukey_g_ordering_in_g():
    # canonical pure-skew processes order by the skew parameter
    q1, q2 = tr.TukeyG(0, 1, 0.8), tr.TukeyG(0, 1, 0.3)
    rep = dom.fosd_check(lambda z: q1.cdf(1.0, z), lambda z: q2.cdf(1.0, z),
                         (-1.0 / 0.3 + 1e-9, np.inf))
    assert rep.order == "FOSD" and rep.direction == 1
    u = dom.crossing_u_star(q1, q2)
    assert u == pytest.approx(0.0, abs=1e-6)


def test_heavy_tailed_crossing_pair_has_no_verdict():
    # truncation widens this pair's domain to about [-4096, 1.07e9]; the CDFs
    # still cross near z = -1.11, where the quantile curves cross
    q1, q2 = gh(2.0, 0.4), gh(0.8, 0.05)
    F1 = lambda z: q1.cdf(1.0, z)
    F2 = lambda z: q2.cdf(1.0, z)
    fosd = dom.fosd_check(F1, F2, (-np.inf, np.inf))
    assert fosd.order is None and fosd.direction == 0
    assert fosd.truncation[1] > 1e8
    sosd = dom.sosd_check(F1, F2, (-np.inf, np.inf))
    assert sosd.order is None and sosd.direction == 0
    assert sosd.inconclusive is False
    # the running integral's dip matches quadrature of F2 - F1 up to the crossing
    z_cross = dom.crossing_report(q1, q2).domain_lower
    dip, _ = integrate.quad(lambda z: float(F2(z) - F1(z)), fosd.truncation[0], z_cross,
                            points=[-10.0, -2.0], limit=200)
    assert dip == pytest.approx(-0.01101, abs=2e-4)
    assert np.min(sosd.evidence["cum_integral"]) == pytest.approx(dip, abs=5e-4)


def test_fosd_grid_size_guard():
    with pytest.raises(ParameterError):
        dom.fosd_check(lambda z: z, lambda z: z, (0.0, 1.0), grid_size=16)


# ---------------------------------------------------------------------------
# second-order checks
# ---------------------------------------------------------------------------

def test_fosd_implies_sosd():
    pairs = [
        (lambda z: stats.norm.cdf(z, 1, 1), lambda z: stats.norm.cdf(z, 0, 1)),
        (lambda z: tr.TukeyG(0, 1, 0.8).cdf(1.0, z), lambda z: tr.TukeyG(0, 1, 0.3).cdf(1.0, z)),
    ]
    for F1, F2 in pairs:
        fosd = dom.fosd_check(F1, F2, (-10.0, np.inf))
        sosd = dom.sosd_check(F1, F2, (-10.0, np.inf))
        assert fosd.order == "FOSD" and fosd.direction == 1
        assert sosd.order == "SOSD" and sosd.direction == 1


def test_sosd_mean_preserving_spread():
    # lower-variance normal second-order dominates the spread one
    rep = dom.sosd_check(lambda z: stats.norm.cdf(z, 0, 1),
                         lambda z: stats.norm.cdf(z, 0, math.sqrt(2.0)),
                         (-np.inf, np.inf))
    assert rep.order == "SOSD" and rep.direction == 1
    fosd = dom.fosd_check(lambda z: stats.norm.cdf(z, 0, 1),
                          lambda z: stats.norm.cdf(z, 0, math.sqrt(2.0)),
                          (-np.inf, np.inf))
    assert fosd.order is None


@settings(max_examples=25, deadline=None)
@given(g2=st.floats(0.15, 0.6), gap=st.floats(0.1, 1.2))
def test_fosd_implies_sosd_property(g2, gap):
    # pure-skew pairs order first-order in g, hence also second-order
    g1 = g2 + gap
    F1 = lambda z: tr.TukeyG(0, 1, g1).cdf(1.0, z)
    F2 = lambda z: tr.TukeyG(0, 1, g2).cdf(1.0, z)
    domain = (-1.0 / g2 + 1e-9, np.inf)
    fosd = dom.fosd_check(F1, F2, domain, grid_size=256)
    sosd = dom.sosd_check(F1, F2, domain, grid_size=256)
    assert fosd.order == "FOSD" and fosd.direction == 1
    assert sosd.order == "SOSD" and sosd.direction == 1


def test_sosd_flags_live_truncation():
    # cutting the comparison domain through live probability mass is reported
    F1 = lambda z: stats.norm.cdf(z, 0.5, 1)
    F2 = lambda z: stats.norm.cdf(z, 0.0, 1)
    rep = dom.sosd_check(F2, F1, (-6.0, 1.0))
    assert rep.inconclusive
    assert "truncation" in rep.notes


def test_state_dependent_pair_sosd_without_fosd():
    F1 = dom.state_dependent_tukey_g_cdf(0.8, 0.2)
    q2 = tr.TukeyG(0.0, 1.0, 0.3)
    F2 = lambda z: q2.cdf(1.0, z)
    domain = (-1.0 / 0.3, np.inf)
    assert dom.fosd_check(F1, F2, domain).order is None
    rep = dom.sosd_check(F1, F2, domain)
    assert rep.order == "SOSD" and rep.direction == 1


def test_split_g_integrals_reference_values():
    left, right = dom.split_g_sosd_integrals(0.8, 0.2, 0.3)
    assert left == pytest.approx(0.1341347, abs=1e-4)
    assert right == pytest.approx(0.0660684, abs=1e-4)
    assert left >= right


def test_split_g_integrals_match_extended_precision():
    # references: the integrals at 30 digits (mpmath quadrature)
    left, right = dom.split_g_sosd_integrals(0.8, 0.2, 0.3)
    assert abs(left - 0.1341347311533213) <= 1e-15
    assert abs(right - 0.06606843250359083) <= 1e-15
    # a right integral whose tail reaches far past any fixed truncation
    assert dom.split_g_sosd_integrals(3.0, 3.0, 2.5)[1] == pytest.approx(-41.90222722506058, rel=1e-13)
    # -1/g1_below left of -1/g2: the whole left range is common support
    assert dom.split_g_sosd_integrals(0.2, 0.8, 0.5)[0] == pytest.approx(-0.1041598078190162,
                                                                         rel=0.0, abs=1e-15)


def test_split_g_integrals_at_small_skew():
    # references: 40-digit values; [Phi(w) - Phi(w - g)] / g inside A_g cancels as g -> 0
    for args, left, right in (((1e-6, 2e-6, 5e-7), 2.4999980052896916e-7, -7.5000099735668535e-7),
                              ((1e-4, 2e-4, 5e-5), 2.4998005397968007e-5, -7.5009974541469821e-5)):
        assert dom.split_g_sosd_integrals(*args) == pytest.approx((left, right), rel=1e-9, abs=0.0)


def test_split_g_integrals_at_large_skew():
    # e^{g^2/2} overflows past g = 37.7: the left integral stays finite (30-digit reference),
    # and a right integral holding a Tukey-g mean beyond the float range raises
    left, right = dom.split_g_sosd_integrals(40.0, 0.2, 0.3)
    assert left == pytest.approx(0.32228906652321043, rel=1e-14)
    assert right == pytest.approx(0.06606843250359083, rel=1e-14)
    with pytest.raises(NumericError):
        dom.split_g_sosd_integrals(0.8, 40.0, 0.3)


def test_split_g_integrals_degenerate_equal_parameters():
    left, right = dom.split_g_sosd_integrals(0.3, 0.3, 0.3)
    assert left == pytest.approx(0.0, abs=1e-10)
    assert right == pytest.approx(0.0, abs=1e-10)


def test_split_g_integrals_validation():
    with pytest.raises(ParameterError):
        dom.split_g_sosd_integrals(-0.1, 0.2, 0.3)


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------

def test_sufficient_conditions_identical_maps():
    cm = tr.CompositeMap(dist=tr.GaussianLaw(0.0, 1.0),
                         quantile=tr.GaussianLaw(0.0, 1.0))
    res = dom.sosd_sufficient_conditions(cm, cm, 1.0, np.linspace(-2, 2, 41))
    # ratio bounds hold with equality everywhere: every point satisfies some condition
    assert res.sufficient
    assert np.all(res.any_condition() | res.indeterminate)


def test_sufficient_conditions_scaled_gaussian_base():
    # identity quantiles over bases with different spreads: the derivative
    # fields d/dz Q_i(F_zeta_i(z)) are constants sigma_i, bracketing 1
    narrow = tr.CompositeMap(dist=tr.GaussianLaw(0.0, 0.25),
                             quantile=tr.GaussianLaw(0.0, 1.0))
    wide = tr.CompositeMap(dist=tr.GaussianLaw(0.0, 4.0),
                           quantile=tr.GaussianLaw(0.0, 1.0))
    z = np.linspace(-3, 3, 61)
    res = dom.sosd_sufficient_conditions(wide, narrow, 1.0, z)
    # d1 = 2 >= 1 >= d2 = 0.5 everywhere: condition (i)
    assert np.all(res.cond_i | res.indeterminate)
    assert res.sufficient
    # finite-difference cross-check of the derivative fields at one point
    q = tr.GaussianLaw(0.0, 1.0)
    eps = 1e-6
    for cm, want in ((wide, 2.0), (narrow, 0.5)):
        f = lambda zz: float(cm.dist.quantile(1.0, q.cdf(1.0, zz)))
        got = (f(0.3 + eps) - f(0.3 - eps)) / (2 * eps)
        assert got == pytest.approx(want, rel=1e-5)


def test_sufficient_conditions_off_range_is_indeterminate():
    # below the Tukey-g support edge a - b/g = -2 neither derivative exists
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    z = np.array([-3.0, -2.5, -1.0, 0.0, 1.0])
    bm = d.Brownian()
    for bases in ((), (bm, bm)):
        res = dom.sosd_sufficient_conditions(cm, cm, 1.0, z, *bases)
        assert res.indeterminate.tolist() == [True, True, False, False, False]
        assert not np.any(res.any_condition()[:2])
        assert res.sufficient


def test_sufficient_conditions_not_necessary():
    # a pair that is second-order ordered although the pointwise conditions fail
    # somewhere is a legal outcome: sufficiency false, dominance true
    m1 = tr.CompositeMap(dist=tr.GaussianLaw(0.0, 1.0),
                         quantile=tr.GaussianLaw(0.5, 1.0))
    m2 = tr.CompositeMap(dist=tr.GaussianLaw(0.0, 1.0),
                         quantile=tr.GaussianLaw(0.0, 1.0))
    z = np.linspace(-4, 4, 81)
    res = dom.sosd_sufficient_conditions(m1, m2, 1.0, z)
    sosd = dom.sosd_check(lambda zz: m1.quantile.cdf(1.0, zz),
                          lambda zz: m2.quantile.cdf(1.0, zz), (-8.0, 8.0))
    assert sosd.order == "SOSD" and sosd.direction == 1
    assert isinstance(res.sufficient, bool)


# ---------------------------------------------------------------------------
# Kendall ordering
# ---------------------------------------------------------------------------

def _kendall_comonotone(v):
    return v


def _kendall_independence(v):
    return v - special.xlogy(v, v)


def test_kendall_comonotone_dominates_independence():
    rep = dom.kendall_order_check(_kendall_comonotone, _kendall_independence)
    assert rep.order == "Kendall" and rep.direction == 1


def test_kendall_equal_functions_no_verdict():
    assert dom.kendall_order_check(_kendall_comonotone, _kendall_comonotone).order is None


def test_kendall_reversed_direction():
    rep = dom.kendall_order_check(_kendall_independence, _kendall_comonotone)
    assert rep.direction == -1
