"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  All statistical criteria run on fixed seeds
so the verdicts are reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from quantproc import copulas as cp
from quantproc import dominance as dom
from quantproc import drivers as d
from quantproc import measures as me
from quantproc import transforms as tr
from quantproc import valuation as va
from quantproc._util import substream


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


def gh(g, h):
    return tr.TukeyGH(0.0, 1.0, g, h)


# ---------------------------------------------------------------------------
# criterion 1: crossing-level table
# ---------------------------------------------------------------------------

def test_criterion_01_crossing_table_rows_1_to_3():
    t0 = time.time()
    u1 = dom.crossing_u_star(gh(2.0, 0.4), gh(0.8, 0.05))
    u2 = dom.crossing_u_star(gh(3.0, 0.2), gh(0.5, 0.05))
    u3 = dom.crossing_u_star(gh(2.0, 0.05), gh(0.8, 0.4))
    z1 = dom.crossing_report(gh(2.0, 0.4), gh(0.8, 0.05)).domain_lower
    ok = (abs(u1 - 0.0218) <= 0.001 and abs(u2) <= 1e-3 and abs(u3 - 1.0) <= 1e-3
          and abs(z1 - (-1.109)) <= 0.01 and time.time() - t0 < 10.0)
    report("criterion 1 (rows 1-3 + row-1 domain)", ok,
           f"u*=({u1:.4f}, {u2:.2e}, {u3:.6f}), z0={z1:.4f}")


def test_criterion_01_crossing_table_row_4_as_specified():
    """Row 4 with the stated inputs (2, 1.5, 0.05, 0.2).

    As specified this expects u* = 0.985 +- 0.002 and a domain bound of
    42.36 +- 0.1.  The pair's quantile curves provably cross only at
    u = 1 - 8.2e-10 (the kurtosis-gap term 0.075 x^2 overtakes the skew-gap
    term 0.5 x near x = 6.03, and nowhere before), so the stated targets are
    not attainable from these inputs; they correspond to a kurtosis parameter
    of 0.4 for the second process, a combination covered by a passing
    companion test.  Kept faithful to the stated inputs; see the decisions
    ledger for the full analysis.
    """
    t0 = time.time()
    rep = dom.crossing_report(gh(2.0, 0.05), gh(1.5, 0.2))
    ok = (abs(rep.u_star - 0.985) <= 0.002
          and abs(rep.domain_lower - 42.36) <= 0.1
          and time.time() - t0 < 10.0)
    report("criterion 1 (row 4 as specified)", ok,
           f"u*={rep.u_star!r}, domain_lower={rep.domain_lower:.4g}")


def test_criterion_01_row_4_reference_values_companion():
    # the reference (0.985, 42.36) pair is reproduced exactly by the
    # heavier-second-tail combination (2, 1.5, 0.05, 0.4)
    rep = dom.crossing_report(gh(2.0, 0.05), gh(1.5, 0.4))
    ok = abs(rep.u_star - 0.985) <= 0.002 and abs(rep.domain_lower - 42.36) <= 0.1
    report("criterion 1 (row-4 reference values, corrected inputs)", ok,
           f"u*={rep.u_star:.5f}, domain_lower={rep.domain_lower:.4f}")


# ---------------------------------------------------------------------------
# criterion 2: crossing-level curves
# ---------------------------------------------------------------------------

def test_criterion_02_crossing_curves():
    t0 = time.time()
    g2, h2 = 0.1, 0.05
    g_gaps = [0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    curves = {}
    for dh in (0.2, 0.35, 0.5):
        us = [dom.crossing_u_star(gh(g2 + dg, h2 + dh), gh(g2, h2)) for dg in g_gaps]
        curves[dh] = us
    ok = True
    for dh, us in curves.items():
        ok &= all(a >= b - 1e-9 for a, b in zip(us, us[1:]))   # non-increasing
        ok &= 0.3 < us[0] < 0.5                                 # start level
        ok &= us[-1] <= 0.01                                    # tail level
    for i in range(len(g_gaps)):
        ok &= curves[0.2][i] <= curves[0.35][i] + 1e-9 <= curves[0.5][i] + 2e-9
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report("criterion 2 (crossing curves)", bool(ok),
           f"starts=({curves[0.2][0]:.3f},{curves[0.35][0]:.3f},{curves[0.5][0]:.3f}), "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: split-skew integrals and verdicts
# ---------------------------------------------------------------------------

def test_criterion_03_split_g_integrals():
    t0 = time.time()
    left, right = dom.split_g_sosd_integrals(0.8, 0.2, 0.3)
    F1 = dom.state_dependent_tukey_g_cdf(0.8, 0.2)
    q2 = tr.TukeyG(0.0, 1.0, 0.3)
    F2 = lambda z: q2.cdf(1.0, z)
    domain = (-1.0 / 0.3, np.inf)
    fosd = dom.fosd_check(F1, F2, domain)
    sosd = dom.sosd_check(F1, F2, domain)
    ok = (abs(left - 0.1341347) <= 1e-4 and abs(right - 0.0660684) <= 1e-4
          and fosd.order is None
          and sosd.order == "SOSD" and sosd.direction == 1
          and time.time() - t0 < 10.0)
    report("criterion 3 (split-skew integrals)", ok,
           f"left={left:.7f}, right={right:.7f}, fosd={fosd.order}, sosd={sosd.order}")


# ---------------------------------------------------------------------------
# criterion 4: pivot moment formulas vs Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_04_pivot_moments():
    t0 = time.time()
    seed, n, n_batches = 3, 1_000_000, 50
    rng = substream(seed, 31)
    gs = rng.uniform(0.1, 1.0, 5)
    vs = rng.uniform(0.5, 2.0, 5)
    ms = rng.uniform(-1.0, 1.0, 5)
    ok = True
    detail = []
    for i, (g, v, m) in enumerate(zip(gs, vs, ms)):
        mom = tr.tukey_g_gaussian_moments(0.0, 1.0, g, m, v)
        x = substream(seed, 32, i).standard_normal(n)
        z = np.expm1(g * (x - m) / math.sqrt(v)) / g
        se_mean = z.std(ddof=1) / math.sqrt(n)
        ok &= abs(z.mean() - mom.mean) <= 3.0 * se_mean
        m2 = z.var(ddof=1)
        zc = z - z.mean()
        # products, not ``**``: numpy sends powers other than 2 to libm pow
        zc2 = zc * zc
        zc4 = zc2 * zc2
        se_var = math.sqrt(max(np.mean(zc4) - m2 * m2, 0.0) / n)
        ok &= abs(m2 - mom.variance) <= 3.0 * se_var
        zb = z.reshape(n_batches, -1)
        bc = zb - zb.mean(axis=1, keepdims=True)
        bc2 = bc * bc
        bv = zb.var(axis=1)
        b_skew = np.mean(bc2 * bc, axis=1) / bv ** 1.5
        b_kurt = np.mean(bc2 * bc2, axis=1) / bv ** 2 - 3.0
        skew = float(np.mean(zc2 * zc) / z.var() ** 1.5)
        kurt = float(np.mean(zc4) / z.var() ** 2 - 3.0)
        ok &= abs(skew - mom.skewness) <= 5.0 * b_skew.std(ddof=1) / math.sqrt(n_batches)
        ok &= abs(kurt - mom.kurtosis_excess) <= 5.0 * b_kurt.std(ddof=1) / math.sqrt(n_batches)
        detail.append(f"g={g:.2f},v={v:.2f}")
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report("criterion 4 (pivot moments vs MC)", bool(ok),
           f"draws [{'; '.join(detail)}], {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: measure-change normalization and reweighting
# ---------------------------------------------------------------------------

def test_criterion_05_measure_change_normalization():
    bm = d.Brownian()
    y = np.random.default_rng(8).standard_normal(1_000_000)
    layer = va.Layer(1.0, 2.0)
    ok = True
    detail = []
    for name, quantile in (("g", tr.TukeyG(0, 1, 0.5)), ("gh", tr.TukeyGH(0, 1, 0.5, 0.1))):
        cm = tr.canonical_map(quantile)
        rho = me.rn_derivative(cm, bm, 1.0, y)
        se = rho.std(ddof=1) / math.sqrt(y.size)
        ok &= abs(rho.mean() - 1.0) <= 3.0 * se
        detail.append(f"E[rho]_{name}={rho.mean():.4f}+-{se:.4f}")
        z = tr.quantile_eval(quantile, 1.0, stats.norm.cdf(y))
        lhs = rho * layer(y)
        rhs = layer(z)
        se2 = math.hypot(float(np.std(lhs, ddof=1)), float(np.std(rhs, ddof=1))) / math.sqrt(y.size)
        ok &= abs(float(np.mean(lhs)) - float(np.mean(rhs))) <= 3.0 * se2
    report("criterion 5 (normalization + reweighting)", bool(ok), "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 6: martingale property of the deflated kernel
# ---------------------------------------------------------------------------

def test_criterion_06_kernel_martingale():
    bm = d.Brownian()
    # a location-scale distortion keeps the conditional density ratio bounded,
    # making the bucket means obey a clean central limit theorem
    cm = tr.canonical_map(tr.GaussianLaw(m=0.2, v=lambda t: 0.6 * t))
    ens = d.simulate(bm, d.TimeGrid(np.array([0.25, 0.5, 1.0])), 200_000, 101)
    ok = True
    worst = 0.0
    for rate in (0.0, 0.05):
        pk = me.pricing_kernel(cm, bm, ens, rate)
        m = pk.deflated()
        y_t = ens.paths[:, 1]
        edges = np.quantile(y_t, np.linspace(0, 1, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (y_t >= lo) & (y_t <= hi)
            diff = m[sel, 2] - m[sel, 1]
            ratio = abs(diff.mean()) / (diff.std(ddof=1) / math.sqrt(sel.sum()))
            worst = max(worst, ratio)
            ok &= ratio <= 3.0
    report("criterion 6 (martingale buckets)", bool(ok), f"worst |mean|/se = {worst:.2f}")


# ---------------------------------------------------------------------------
# criterion 7: price ordering across random skew pairs
# ---------------------------------------------------------------------------

def test_criterion_07_price_ordering():
    seed, n = 1, 100_000
    rng = substream(seed, 77)
    g2s = rng.uniform(0.1, 0.7, 20)
    gaps = rng.uniform(0.05, 1.0, 20)
    payoffs = [va.Linear(), va.Layer(0.5, 2.0), va.StopLoss(0.5, 2.0)]
    floor_ok = True
    n_strict = 0
    for i, (g2, gap) in enumerate(zip(g2s, gaps)):
        g1 = g2 + gap
        strict = True
        for payoff in payoffs:
            r1 = va.ValuationRequest(risk=d.Brownian(), map=tr.canonical_map(tr.TukeyG(0, 1, g1)),
                                     payoff=payoff, t=0.0, u=1.0,
                                     mc=va.MCSettings(n, seed * 1000 + i))
            r2 = va.ValuationRequest(risk=d.Brownian(), map=tr.canonical_map(tr.TukeyG(0, 1, g2)),
                                     payoff=payoff, t=0.0, u=1.0, mc=va.MCSettings(n, 1))
            out = va.price_ordering(r1, r2)
            floor_ok &= out.difference >= -3.0 * out.std_error
            strict &= out.difference > 3.0 * out.std_error
        n_strict += strict
    ok = floor_ok and n_strict >= 18
    report("criterion 7 (price ordering)", ok, f"strict pairs: {n_strict}/20")


# ---------------------------------------------------------------------------
# criterion 8: quantile-integral pricing oracle
# ---------------------------------------------------------------------------

def test_criterion_08_quantile_integral_oracle():
    rng = substream(5, 88)
    ok = True
    worst = 0.0
    for i in range(10):
        g = float(rng.uniform(0.1, 1.0))
        h = float(rng.uniform(0.0, 0.3))
        a = float(rng.uniform(0.2, 1.0))
        b = a + float(rng.uniform(0.5, 2.0))
        payoff = va.Layer(a, b) if i % 2 == 0 else va.StopLoss(a, b)
        req = va.ValuationRequest(risk=d.Brownian(), map=tr.canonical_map(gh(g, h)),
                                  payoff=payoff, t=0.0, u=1.0,
                                  mc=va.MCSettings(100_000, 300 + i))
        res = va.qpvp_price(req)
        oracle = va.quantile_integral_price(req)
        ratio = abs(res.price - oracle) / res.std_error
        worst = max(worst, ratio)
        ok &= ratio <= 3.0
    report("criterion 8 (quantile-integral oracle)", bool(ok), f"worst |diff|/se = {worst:.2f}")


# ---------------------------------------------------------------------------
# criterion 9: Kendall identities
# ---------------------------------------------------------------------------

def test_criterion_09_kendall_identities():
    ok = True
    # comonotone: exactly the identity
    vs = np.array([0.1, 0.5, 0.9])
    ok &= bool(np.all(cp.kendall_function(cp.ComonotoneCopula(2), 1.0, vs) == vs))
    # independence at 0.5: closed form to 1e-10, empirical within 3 SE
    want = 0.5 - 0.5 * math.log(0.5)
    closed = float(cp.kendall_function(cp.IndependenceCopula(2), 1.0, 0.5))
    ok &= abs(closed - want) <= 1e-10
    n = 400_000
    draws = cp.IndependenceCopula(2).sample(1.0, n, substream(9, 1))
    emp = float(np.mean(draws.prod(axis=1) <= 0.5))
    ok &= abs(emp - want) <= 3.0 * math.sqrt(want * (1 - want) / n)
    # Clayton theta = 2 at 0.5: 0.6875, empirically within 3 SE
    cl = cp.ClaytonCopula(2.0, 2)
    ok &= float(cp.kendall_function(cl, 1.0, 0.5)) == pytest.approx(0.6875, abs=1e-12)
    draws = cl.sample(1.0, n, substream(9, 2))
    empc = float(np.mean(cl.cdf(1.0, draws) <= 0.5))
    ok &= abs(empc - 0.6875) <= 3.0 * math.sqrt(0.6875 * (1 - 0.6875) / n)
    report("criterion 9 (Kendall identities)", bool(ok),
           f"indep emp={emp:.5f} want={want:.5f}; clayton emp={empc:.5f}")


# ---------------------------------------------------------------------------
# criterion 10: identity-composite invariance
# ---------------------------------------------------------------------------

def test_criterion_10_identity_invariance():
    ou = d.InhomogeneousOU(1.0, 0.1, 0.9, 0.3)
    mq = lambda t: ou.marginal_mean_std(t)[0]
    vq = lambda t: ou.marginal_mean_std(t)[1] ** 2
    ident = tr.true_law_map(ou, tr.GaussianLaw(m=mq, v=vq))
    ens = d.simulate(ou, d.TimeGrid(np.array([0.5, 1.0])), 100_000, 12)
    z = tr.apply_composite(ident, ens)
    path_err = float(np.max(np.abs(z.paths - ens.paths)))
    rho = me.rn_derivative(ident, ou, 1.0, ens.paths[:, 1])
    rho_err = float(np.max(np.abs(rho - 1.0)))
    req = va.ValuationRequest(risk=ou, map=ident, payoff=va.Linear(), t=0.0, u=1.0,
                              mc=va.MCSettings(100_000, 14))
    out = va.risk_loading_check(req)
    ok = (path_err < 1e-10 and rho_err < 1e-8
          and abs(out["gap"]) <= 3.0 * max(out["se"], 1e-15))
    report("criterion 10 (identity invariance)", ok,
           f"path_err={path_err:.2e}, rho_err={rho_err:.2e}, gap={out['gap']:.2e}")
