import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from quantproc import drivers as d
from quantproc import transforms as tr
from quantproc import valuation as va
from quantproc._util import substream
from quantproc.errors import NumericError, ParameterError, RequestError

from conftest import InfLinear


def brownian_identity():
    return tr.true_law_map(d.Brownian(), tr.GaussianLaw(m=0.0, v=lambda t: t))


def make_req(cmap, payoff, n=100_000, seed=5, t=0.0, u=1.0, rate=0.0, state=None,
             risk=None):
    return va.ValuationRequest(risk=risk or d.Brownian(), map=cmap, payoff=payoff,
                               t=t, u=u, rate=rate, state=state,
                               mc=va.MCSettings(n_paths=n, seed=seed))


# ---------------------------------------------------------------------------
# payoff catalogue
# ---------------------------------------------------------------------------

def test_payoff_shapes_and_validation():
    layer = va.Layer(1.0, 2.0)
    assert layer(np.array([0.5, 1.25, 5.0])) == pytest.approx([0.0, 0.25, 1.0])
    sl = va.StopLoss(1.0, 0.5)
    assert sl(np.array([0.5, 1.25, 5.0])) == pytest.approx([0.0, 0.25, 0.5])
    pu = va.PowerUtility(0.5)
    assert pu(np.array([4.0, -4.0, 0.0])) == pytest.approx([2.0, -2.0, 0.0])
    with pytest.raises(ParameterError):
        va.Layer(2.0, 1.0).validate()
    with pytest.raises(ParameterError):
        va.Layer(0.0, 1.0).validate()
    with pytest.raises(ParameterError):
        va.StopLoss(-1.0, 1.0).validate()
    tab = va.TablePayoff(y_knots=np.array([0.0, 1.0, 2.0]),
                         v_knots=np.array([0.0, 0.5, 0.5]))
    assert tab(np.array([0.5, 3.0])) == pytest.approx([0.25, 0.5])
    with pytest.raises(ParameterError):
        va.TablePayoff(y_knots=np.array([0.0, 1.0]), v_knots=np.array([1.0, 0.0]))


def test_request_validation():
    cm = brownian_identity()
    with pytest.raises(RequestError):
        make_req(cm, va.Linear(), t=0.5, u=0.4).validate()
    with pytest.raises(RequestError):
        make_req(cm, va.Linear(), t=0.5, u=1.0).validate()  # missing state
    with pytest.raises(ParameterError):
        make_req(cm, va.Linear(), n=10).validate()


@pytest.mark.parametrize("mc", [va.MCSettings(2e5, 3), va.MCSettings(n_inner=2.5),
                                va.MCSettings("5000", 1)], ids=["float-paths", "float-inner",
                                                               "str-paths"])
def test_non_integral_path_counts_raise_a_typed_error(mc):
    with pytest.raises(ParameterError, match="must be an integer"):
        mc.validate()
    with pytest.raises(ParameterError):
        va.qpvp_price(replace(make_req(brownian_identity(), va.Linear()), mc=mc))


def test_numpy_integer_path_counts_are_accepted():
    va.MCSettings(np.int64(2_000), 1, n_inner=np.int32(10)).validate()


@pytest.mark.parametrize("seed, match", [(-1, "non-negative"), (1.5, "must be an integer"),
                                         ("x", "must be an integer")],
                         ids=["negative", "non-integral", "non-numeric"])
def test_invalid_seeds_raise_a_typed_error(seed, match):
    mc = va.MCSettings(2_000, seed)
    with pytest.raises(ParameterError, match=match):
        mc.validate()
    with pytest.raises(ParameterError):
        va.qpvp_price(replace(make_req(brownian_identity(), va.Linear()), mc=mc))


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def test_identity_linear_price_is_zero():
    res = va.qpvp_price(make_req(brownian_identity(), va.Linear(), n=200_000))
    assert abs(res.price) <= 3.0 * res.std_error
    assert res.risk_loading == pytest.approx(0.0, abs=1e-12)


def test_layer_price_matches_quantile_integral_oracle():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    req = make_req(cm, va.Layer(1.0, 2.0), n=400_000, seed=4)
    res = va.qpvp_price(req)
    oracle = va.quantile_integral_price(req)
    assert abs(res.price - oracle) <= 3.0 * res.std_error
    # brute-force cross-check of the oracle itself
    g = 0.5
    brute, _ = integrate.quad(
        lambda p: float(np.clip(math.expm1(g * stats.norm.ppf(p)) / g - 1.0, 0.0, 1.0)),
        1e-12, 1 - 1e-12, limit=400)
    assert oracle == pytest.approx(brute, abs=1e-6)


def test_discounting_is_multiplicative():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    p0 = va.qpvp_price(make_req(cm, va.Layer(1, 2), seed=4, rate=0.0)).price
    p5 = va.qpvp_price(make_req(cm, va.Layer(1, 2), seed=4, rate=0.05)).price
    assert p5 == pytest.approx(p0 * math.exp(-0.05), rel=1e-12)


def test_conditional_price_needs_state_and_uses_it():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    hi = va.qpvp_price(make_req(cm, va.Linear(), t=0.5, u=1.0, state=1.0, seed=4))
    lo = va.qpvp_price(make_req(cm, va.Linear(), t=0.5, u=1.0, state=-1.0, seed=4))
    assert hi.price > lo.price


def test_oracle_rejects_false_law_and_positive_t():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    with pytest.raises(RequestError):
        va.quantile_integral_price(make_req(cm, va.Linear(), t=0.5, u=1.0, state=0.0))
    false_map = tr.CompositeMap(dist=tr.GaussianLaw(0.3, 1.0),
                                quantile=tr.TukeyG(0, 1, 0.5))
    with pytest.raises(RequestError):
        va.quantile_integral_price(make_req(false_map, va.Linear()))


def test_oracle_reads_the_family_at_scores_past_the_level_range():
    # E[A + B core(X)] = B (exp(g^2 / (2 (1 - h))) - 1) / (g sqrt(1 - h)); read through the
    # level ndtr(x), which rounds to 1 past x = 8.3, the integrand was the family's +inf
    g, h, r = 0.3, 0.1, 0.05
    req = make_req(tr.canonical_map(tr.TukeyGH(0.0, 1.0, g, h)), va.Linear(), rate=r)
    want = math.exp(-r) * math.expm1(g * g / (2.0 * (1.0 - h))) / (g * math.sqrt(1.0 - h))
    assert va.quantile_integral_price(req) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# estimator interface identities (common random numbers make them exact)
# ---------------------------------------------------------------------------

def test_translation_and_homogeneity_exact_in_estimator():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    req = make_req(cm, va.Linear(), n=50_000, seed=9)
    base = va.qpvp_price(req).price
    scaled = va.qpvp_price(make_req(cm, va.Linear(scale=2.5), n=50_000, seed=9)).price
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)
    # translation: adding a constant to the priced risk shifts by discounted c
    z = np.concatenate([z_u for _, z_u in va._terminal_blocks(req)])
    c = 0.7
    assert float(np.mean(z + c)) == pytest.approx(float(np.mean(z)) + c, abs=1e-12)
    # zero risk prices to zero exactly
    assert float(va.Linear()(0.0)) == 0.0


def test_layer_additivity_exact_with_common_paths():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    a, b, c = 0.5, 1.5, 3.0
    p_ab = va.qpvp_price(make_req(cm, va.Layer(a, b), seed=11)).price
    p_bc = va.qpvp_price(make_req(cm, va.Layer(b, c), seed=11)).price
    p_ac = va.qpvp_price(make_req(cm, va.Layer(a, c), seed=11)).price
    assert p_ab + p_bc == pytest.approx(p_ac, abs=1e-12)


# ---------------------------------------------------------------------------
# block-streamed reduction
# ---------------------------------------------------------------------------

def whole_sample(req):
    """(Y_u, V(Z_u), discount) over every path of the request's blocked draws."""
    y, z = (np.concatenate(parts) for parts in zip(*va._terminal_blocks(req)))
    return y, req.payoff(z), va._discount(req.rate, req.t, req.u)


def std_error(x, disc):
    return disc * float(np.std(x, ddof=1)) / math.sqrt(x.size)


def skewed_req(payoff, n, seed):
    return make_req(tr.canonical_map(tr.TukeyG(0, 1, 0.5)), payoff, n=n, seed=seed, rate=0.05)


def same_floats(got, want, n):
    """Bit for bit in one block; within 1e-13 relative across blocks."""
    if n <= va._BLOCK:
        return got == want
    return got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [1_000, 5_003, va._BLOCK, 3 * va._BLOCK + 17])
def test_streamed_reduction_matches_the_whole_sample_over_the_same_draws(n):
    req = skewed_req(va.Layer(0.5, 3.0), n, 61)
    y, v, disc = whole_sample(req)
    assert v.size == n
    res = va.qpvp_price(req)
    price = disc * float(np.mean(v))
    assert same_floats([res.price, res.std_error, res.risk_loading],
                       [price, std_error(v, disc), price - disc * float(np.mean(y))], n)
    lin = replace(req, payoff=va.Linear())
    y, v, disc = whole_sample(lin)
    out = va.risk_loading_check(lin)
    assert same_floats([out["gap"], out["se"]],
                       [disc * float(np.mean(v)) - disc * float(np.mean(y)),
                        std_error(v - y, disc)], n)


@pytest.mark.parametrize("n", [20_000, 2 * va._BLOCK + 5])
def test_price_ordering_under_crn_keeps_the_paired_difference_se(n):
    r1 = skewed_req(va.Layer(0.5, 3.0), n, 71)
    r2 = replace(r1, map=tr.canonical_map(tr.TukeyG(0, 1, 0.3)))
    out = va.price_ordering(r1, r2)
    _, v1, disc = whole_sample(r1)
    _, v2, _ = whole_sample(r2)
    assert same_floats([out.price_1, out.price_2, out.std_error],
                       [disc * float(np.mean(v1)), disc * float(np.mean(v2)),
                        std_error(v1 - v2, disc)], n)
    # the paired SE sits well below the SE of two independent estimates
    assert out.std_error < 0.5 * math.hypot(std_error(v1, disc), std_error(v2, disc))


@pytest.mark.parametrize("second", ["shared", "equal-twin", "brownian"])
def test_price_ordering_gives_the_paired_se_for_drivers_on_the_same_variates(second):
    # OU(1, 0, 1) and Brownian motion step on the same normal innovations, so under
    # true-law maps path i of both requests is one draw whichever driver prices it
    ou = d.InhomogeneousOU(1.0, 0.0, 1.0)
    risk = {"shared": ou, "equal-twin": d.InhomogeneousOU(1.0, 0.0, 1.0),
            "brownian": d.Brownian()}[second]
    r1 = make_req(tr.true_law_map(ou, tr.TukeyG(0, 1, 0.8)), va.Layer(0.5, 3.0), n=20_000, risk=ou)
    r2 = make_req(tr.true_law_map(risk, tr.TukeyG(0, 1, 0.3)), va.Layer(0.5, 3.0), n=20_000,
                  risk=risk)
    out = va.price_ordering(r1, r2)
    _, v1, disc = whole_sample(r1)
    _, v2, _ = whole_sample(r2)
    assert out.std_error == std_error(v1 - v2, disc)
    assert out.std_error < 0.5 * math.hypot(std_error(v1, disc), std_error(v2, disc))


PRICERS = {"qpvp": va.qpvp_price, "risk-loading": va.risk_loading_check,
           "ordering": lambda r: va.price_ordering(r, replace(r, map=brownian_identity())),
           "nested": lambda r: va.nested_price(replace(r, mc=replace(r.mc, n_inner=200)), 0.5, 50)}


@pytest.mark.parametrize("pricer", PRICERS.values(), ids=PRICERS.keys())
def test_a_non_finite_payoff_value_raises_a_request_error(pricer):
    with pytest.raises(RequestError, match="non-finite"):
        pricer(make_req(brownian_identity(), InfLinear(), n=5_000))


@pytest.mark.parametrize("pricer", PRICERS.values(), ids=PRICERS.keys())
def test_an_overflowing_standard_error_raises_a_numeric_error_without_a_warning(pricer):
    # every V(Z) = Z^4 is finite at h = 20, but their squared deviations leave the floats
    req = make_req(tr.true_law_map(d.Brownian(), tr.TukeyGH(0, 1, 0.5, 20)), va.PowerUtility(4),
                   n=20_000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="standard error"):
            pricer(req)


def test_price_runs_in_constant_memory():
    def peak(n):
        req = make_req(brownian_identity(), va.Linear(), n=n, seed=73)
        tracemalloc.start()
        try:
            va.qpvp_price(req)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # build the map's cached laws outside the measurement
    small, large = peak(1_000_000), peak(4_000_000)
    assert large <= 1.1 * small
    assert large < 8e6


# ---------------------------------------------------------------------------
# risk loading
# ---------------------------------------------------------------------------

def test_risk_loading_positive_skew_certified():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    out = va.risk_loading_check(make_req(cm, va.Linear(), n=200_000, seed=13),
                                fosd_certificate=True)
    assert out["loaded"]
    assert out["gap"] > 3.0 * out["se"]
    assert out["fosd"].order == "FOSD" and out["fosd"].direction == 1


def test_risk_loading_identity_is_flat():
    out = va.risk_loading_check(make_req(brownian_identity(), va.Linear(), n=200_000))
    assert out["gap"] == pytest.approx(0.0, abs=1e-12)
    assert out["loaded"]


def test_risk_discount_for_negative_skew():
    cm = tr.canonical_map(tr.TukeyG(0, 1, -0.5))
    out = va.risk_loading_check(make_req(cm, va.Linear(), n=200_000, seed=17))
    assert out["gap"] < -3.0 * out["se"]
    assert not out["loaded"]
    # quadrature oracle for the distorted mean: E[(e^{gX}-1)/g] < 0 for g < 0
    mean, _ = integrate.quad(
        lambda x: math.expm1(-0.5 * x) / -0.5 * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
        -10, 10)
    assert mean < 0
    assert out["gap"] == pytest.approx(mean, abs=4 * out["se"] + 3e-3)


# ---------------------------------------------------------------------------
# price ordering
# ---------------------------------------------------------------------------

def test_price_ordering_in_skew_parameter():
    a = make_req(tr.canonical_map(tr.TukeyG(0, 1, 0.8)), va.Layer(0.5, 3.0), seed=19)
    b = make_req(tr.canonical_map(tr.TukeyG(0, 1, 0.3)), va.Layer(0.5, 3.0), seed=999)
    out = va.price_ordering(a, b)
    assert out.difference > 3.0 * out.std_error
    assert out.fosd.direction == 1
    assert out.consistent


def test_price_ordering_identical_maps():
    a = make_req(tr.canonical_map(tr.TukeyG(0, 1, 0.5)), va.Layer(0.5, 3.0), seed=23)
    b = make_req(tr.canonical_map(tr.TukeyG(0, 1, 0.5)), va.Layer(0.5, 3.0), seed=23)
    out = va.price_ordering(a, b)
    assert out.difference == pytest.approx(0.0, abs=1e-12)
    assert out.consistent


def test_price_ordering_layer_above_crossing_domain():
    # dominance holds above the crossing value, so a layer sitting fully above
    # the domain edge must price higher under the dominating map
    from quantproc import dominance as dom

    q1, q2 = tr.TukeyGH(0, 1, 2.0, 0.4), tr.TukeyGH(0, 1, 0.8, 0.05)
    rep = dom.crossing_report(q1, q2)
    # the domain edge is negative (~ -1.109); the layer must both sit above it
    # and respect the positive-attachment invariant
    a_attach = rep.domain_lower + 2.0
    assert a_attach > 0
    payoff = va.Layer(a_attach, a_attach + 5.0)
    r1 = make_req(tr.canonical_map(q1), payoff, n=200_000, seed=29)
    r2 = make_req(tr.canonical_map(q2), payoff, n=200_000, seed=29)
    out = va.price_ordering(r1, r2)
    assert out.difference > 0
    assert out.consistent


def test_price_ordering_requires_common_payoff():
    a = make_req(brownian_identity(), va.Layer(1, 2))
    b = make_req(brownian_identity(), va.Layer(1, 3))
    with pytest.raises(RequestError):
        va.price_ordering(a, b)


def test_fosd_implies_ordering_over_payoff_catalogue():
    rng = np.random.default_rng(31)
    payoffs = [va.Linear(), va.Layer(0.5, 2.0), va.StopLoss(0.5, 2.0), va.PowerUtility(0.7)]
    for _ in range(5):
        g2 = rng.uniform(0.1, 0.6)
        g1 = g2 + rng.uniform(0.1, 1.0)
        for payoff in payoffs:
            r1 = make_req(tr.canonical_map(tr.TukeyG(0, 1, g1)), payoff, n=50_000, seed=37)
            r2 = make_req(tr.canonical_map(tr.TukeyG(0, 1, g2)), payoff, n=50_000, seed=37)
            out = va.price_ordering(r1, r2)
            assert out.difference >= -3.0 * out.std_error


# ---------------------------------------------------------------------------
# relativized tariffs
# ---------------------------------------------------------------------------

def test_tariff_monotone_in_skew():
    bm = d.Brownian()
    exps = [va.Exporter("hi-skew", 0.0, 0.6, bm), va.Exporter("lo-skew", 0.0, 0.2, bm)]
    tab = va.carbon_tariff_table(exps, unit_cost=2.0, t=0.0, u=1.0, rate=0.0,
                                 mc=va.MCSettings(100_000, 41))
    assert tab["monotone_in_g"]
    by_name = {r["name"]: r for r in tab["rows"]}
    se = math.hypot(by_name["hi-skew"]["std_error"], by_name["lo-skew"]["std_error"])
    assert by_name["hi-skew"]["price"] >= by_name["lo-skew"]["price"] - 3 * se


def test_tariff_paid_carbon_cost_lowers_price():
    bm = d.Brownian()
    exps = [va.Exporter("unpaid", 0.0, 0.4, bm), va.Exporter("paid", 1.0, 0.4, bm)]
    tab = va.carbon_tariff_table(exps, unit_cost=1.0, t=0.0, u=1.0, rate=0.0,
                                 mc=va.MCSettings(100_000, 43))
    by_name = {r["name"]: r for r in tab["rows"]}
    assert by_name["paid"]["price"] < by_name["unpaid"]["price"]
    # quadrature oracle for the shifted composite's mean
    g, gamma = 0.4, 1.0
    mean_paid, _ = integrate.quad(
        lambda y: math.expm1(g * stats.norm.ppf(stats.norm.cdf(y - gamma))) / g
        * math.exp(-y * y / 2) / math.sqrt(2 * math.pi), -8, 8, limit=200)
    assert by_name["paid"]["price"] == pytest.approx(
        mean_paid, abs=4 * by_name["paid"]["std_error"] + 1e-3)


def test_tariff_small_skew_approaches_plain_expectation():
    bm = d.Brownian()
    exps = [va.Exporter("tiny", 0.0, 1e-4, bm), va.Exporter("small", 0.0, 0.05, bm)]
    tab = va.carbon_tariff_table(exps, unit_cost=3.0, t=0.0, u=1.0, rate=0.0,
                                 mc=va.MCSettings(100_000, 47))
    by_name = {r["name"]: r for r in tab["rows"]}
    # undistorted expectation of the standardized level is zero
    assert abs(by_name["tiny"]["price"]) <= 3.5 * by_name["tiny"]["std_error"]


def test_tariff_compares_exporters_over_equal_twin_drivers(monkeypatch):
    # exporters read from a config each build their own driver; equal twins form one
    # group, so a tariff falling in g within it breaks the monotonicity flag
    monkeypatch.setattr(va, "qpvp_price",
                        lambda req: va.ValuationResult(-req.map.quantile.g, 0.0, 0.0))
    exps = [va.Exporter(name, 0.0, g, d.InhomogeneousOU(1.0, 0.0, 1.0))
            for name, g in (("hi-skew", 0.6), ("lo-skew", 0.2))]
    tab = va.carbon_tariff_table(exps, 1.0, 0.0, 1.0, 0.0, va.MCSettings(1_000, 1))
    assert not tab["monotone_in_g"]


def test_tariff_needs_two_exporters():
    with pytest.raises(RequestError):
        va.carbon_tariff_table([va.Exporter("solo", 0.0, 0.5, d.Brownian())],
                               1.0, 0.0, 1.0, 0.0, va.MCSettings(10_000, 1))


# ---------------------------------------------------------------------------
# time consistency
# ---------------------------------------------------------------------------

def test_nested_price_matches_direct():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    req = make_req(cm, va.Layer(1.0, 2.0), n=200_000, seed=53)
    direct = va.qpvp_price(req)
    nested, se = va.nested_price(replace(req, mc=replace(req.mc, n_inner=2_000)), mid=0.5,
                                 n_outer=400)
    combined = math.hypot(se, direct.std_error)
    assert abs(nested - direct.price) <= 3.0 * combined


def test_nested_price_from_positive_t():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    req = make_req(cm, va.Layer(1.0, 2.0), n=200_000, seed=59, t=0.25, u=1.25, state=0.3)
    direct = va.qpvp_price(req)
    nested, se = va.nested_price(replace(req, mc=replace(req.mc, n_inner=2_000)), mid=0.75,
                                 n_outer=400)
    combined = math.hypot(se, direct.std_error)
    assert abs(nested - direct.price) <= 3.0 * combined


def test_nested_needs_interior_time():
    cm = tr.canonical_map(tr.TukeyG(0, 1, 0.5))
    req = make_req(cm, va.Layer(1.0, 2.0))
    with pytest.raises(RequestError):
        va.nested_price(req, mid=1.5, n_outer=10)


@pytest.mark.parametrize("n_outer", [0, 1, 2.5])
def test_nested_needs_an_integral_outer_count_of_two(n_outer):
    req = make_req(tr.canonical_map(tr.TukeyG(0, 1, 0.5)), va.Layer(1.0, 2.0))
    with pytest.raises(ParameterError, match="n_outer"):
        va.nested_price(req, mid=0.5, n_outer=n_outer)
