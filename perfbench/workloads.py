"""The three workloads: fixed job lists whose parameters come from the seed.

Each job builds its quantproc objects fresh from a plain config (as one CLI
invocation would), so per-object caches are paid on every execution.  The
seed moves parameter values inside narrow ranges; sizes, grids and path
counts never move.  Expected values come from ``reference`` and are computed
once, before any timing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import yaml
from scipy import special

import reference as R
from quantproc import cli
from quantproc import copulas as cp
from quantproc import dominance as dom
from quantproc import drivers as d
from quantproc import measures as me
from quantproc import transforms as tr
from quantproc import valuation as va

WORKLOADS = ("mc-pricing", "density-dominance", "levy-marginals")
# The crossing table as the paper specifies it, (g1, g2, h1, h2) per row.  Kept
# here rather than read from the program, so that a changed row shows.
CROSSING_TABLE_ROWS = ((2.0, 0.8, 0.4, 0.05), (3.0, 0.5, 0.2, 0.05),
                       (2.0, 0.8, 0.05, 0.4), (2.0, 1.5, 0.05, 0.2))
K_SE = 5.0  # Monte Carlo outputs must sit within this many standard errors


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right
    known_fault: Optional[str] = None  # the program fault this job fails on today
    out_dir: Optional[Path] = None  # CLI artifacts, counted by the traced run


class Params:
    """Parameter draws for one workload and seed: uniform inside narrow ranges."""

    def __init__(self, seed: int, workload: str):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def __call__(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def se_gap(what, got, se, want, extra_se=0.0) -> Optional[str]:
    tol = K_SE * math.hypot(se, extra_se) + 1e-10 * max(1.0, abs(want))
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return f"{what}: {got:.8g} vs reference {want:.8g} (se {se:.3g})"
    return None


def close(what, got, want, atol=0.0, rtol=0.0) -> Optional[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    if got.shape != want.shape or not np.all(np.isfinite(got)) or np.any(err > 0):
        worst = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf))) if got.size else 0
        return (f"{what}: {got.ravel()[worst]!r} vs reference {want.ravel()[worst]!r} "
                f"at index {worst}")
    return None


def first_error(*msgs) -> Optional[str]:
    return next((m for m in msgs if m), None)


def monotone_unit(what, f) -> Optional[str]:
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)) or f.min() < 0 or f.max() > 1:
        return f"{what}: values leave [0, 1]"
    if np.any(np.diff(f) < 0):
        return f"{what}: not monotone"
    return None


def mean_se_gap(what, x, want_mean, want_var) -> Optional[str]:
    x = np.asarray(x, dtype=float)
    return se_gap(what, float(x.mean()), math.sqrt(want_var / x.size), want_mean)


class SameBytes:
    """Checks that an artifact directory holds the same bytes on every pass."""

    def __init__(self):
        self.digest = None

    def __call__(self, out_dir: Path) -> Optional[str]:
        h = hashlib.sha256()
        for f in sorted(out_dir.iterdir()):
            h.update(f.name.encode())
            h.update(f.read_bytes())
        if self.digest is None:
            self.digest = h.hexdigest()
        elif h.hexdigest() != self.digest:
            return f"artifacts in {out_dir.name} changed between passes"
        return None


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def disc(rate, t, u):
    return math.exp(-rate * (u - t))


# ---------------------------------------------------------------------------
# plain config -> quantproc objects
# ---------------------------------------------------------------------------

def gh_spec(p: dict) -> tr.TukeyGH:
    return tr.TukeyGH(p["a"], p["b"], p["g"], p["h"])


def ref_gh(p: dict) -> R.GH:
    return R.GH(p["a"], p["b"], p["g"], p["h"])


def ou_driver(p: dict) -> d.InhomogeneousOU:
    return d.InhomogeneousOU(p["theta"], p["mu"], p["sigma"], p["y0"])


def ou_ref(p: dict, t: float):
    return R.ou_mean_std(p["theta"], p["mu"], p["sigma"], p["y0"], t)


def payoff_obj(p: dict) -> va.Payoff:
    kind = p["kind"]
    if kind == "Linear":
        return va.Linear(p["scale"])
    if kind == "Layer":
        return va.Layer(p["a"], p["b"])
    if kind == "StopLoss":
        return va.StopLoss(p["a"], p["b"])
    return va.PowerUtility(p["gamma"])


def crossing_expect(p1: dict, p2: dict):
    """(u*, z0, direction) the crossing report should give, from the reference scan."""
    x, kind = R.crossing_x_star((p1["a"], p1["b"], p1["g"], p1["h"]),
                                (p2["a"], p2["b"], p2["g"], p2["h"]))
    if kind == "first-above":
        return 0.0, None, 1
    if kind == "second-above":
        return None, None, -1
    q1, q2 = ref_gh(p1), ref_gh(p2)
    above = x + max(1e-6, 1e-6 * abs(x))
    direction = 1 if float(q1.z(above) - q2.z(above)) > 0 else -1
    return float(special.ndtr(x)), float(q1.z(x)), direction


def crossing_gap(what, u_got, z_got, expect) -> Optional[str]:
    u_want, z_want, _ = expect
    if u_want is None or u_got is None:
        return None if u_want is None and u_got is None else f"{what}: u* {u_got} vs {u_want}"
    return first_error(close(f"{what} u*", u_got, u_want, atol=1e-9),
                       None if z_want is None or z_got is None
                       else close(f"{what} z0", z_got, z_want, rtol=1e-6, atol=1e-9))


# ---------------------------------------------------------------------------
# mc-pricing: forward Monte Carlo
# ---------------------------------------------------------------------------

def mc_pricing(seed: int, tmp: Path, counter=None) -> list[Job]:
    P = Params(seed, "mc-pricing")
    rate = P(0.029, 0.031)
    gh = {"a": 0.0, "b": 1.0, "g": P(0.49, 0.51), "h": P(0.098, 0.102)}
    g_only = {"a": 0.0, "b": 1.0, "g": P(0.39, 0.41), "h": 0.0}
    ou = {"theta": P(0.99, 1.01), "mu": P(0.19, 0.21), "sigma": P(0.69, 0.71), "y0": P(-0.02, 0.02)}
    n_big, n_mid = 1_000_000, 200_000
    jobs: list[Job] = []

    def qpvp_job(name, make_req, q_ref, alpha, beta, payoff, t, u):
        want = R.premium(q_ref, alpha, beta, payoff, disc(rate, t, u))

        def check(res):
            return se_gap(name, res.price, res.std_error, want)
        jobs.append(Job(name, lambda: va.qpvp_price(make_req()), check))

    # qpvp_price at 1e6 paths over drivers, quantile families and map modes
    lay = {"kind": "Layer", "a": 1.0, "b": 2.0}
    qpvp_job("qpvp.brownian.tukeygh.layer",
             lambda: va.ValuationRequest(d.Brownian(), tr.canonical_map(gh_spec(gh)), payoff_obj(lay),
                                         0.0, 1.0, rate, va.MCSettings(n_big, seed)),
             ref_gh(gh), 0.0, 1.0, lay, 0.0, 1.0)
    stop = {"kind": "StopLoss", "a": 0.5, "b": 1.0}
    qpvp_job("qpvp.ou.tukeyg.stoploss",
             lambda: va.ValuationRequest(
                 (o := ou_driver(ou)), tr.true_law_map(o, tr.TukeyG(0.0, 1.0, g_only["g"])),
                 payoff_obj(stop), 0.0, 1.0, rate, va.MCSettings(n_big, seed + 1)),
             ref_gh(g_only), 0.0, 1.0, stop, 0.0, 1.0)
    fl = {"m": P(-0.02, 0.02), "v": P(0.99, 1.01), "mq": P(-0.02, 0.02), "vq": P(0.98, 1.02)}
    lin = {"kind": "Linear", "scale": 1.0}
    qpvp_job("qpvp.brownian.gaussian.false-law.linear",
             lambda: va.ValuationRequest(
                 d.Brownian(), tr.CompositeMap(tr.GaussianLaw(fl["m"], fl["v"]),
                                               tr.GaussianQuantile(fl["mq"], fl["vq"]),
                                               tr.MapMode.FALSE_LAW),
                 payoff_obj(lin), 0.0, 1.0, rate, va.MCSettings(n_big, seed + 2)),
             R.GH(fl["mq"], math.sqrt(fl["vq"]), 0.0, 0.0),
             -fl["m"] / math.sqrt(fl["v"]), 1.0 / math.sqrt(fl["v"]), lin, 0.0, 1.0)
    state = P(-0.04, 0.04)
    power = {"kind": "PowerUtility", "gamma": P(0.59, 0.61)}
    qpvp_job("qpvp.brownian.pivot.power.t0.5",
             lambda: va.ValuationRequest(
                 d.Brownian(), tr.CompositeMap(None, gh_spec(gh), tr.MapMode.PIVOT),
                 payoff_obj(power), 0.5, 1.0, rate, va.MCSettings(n_big, seed + 3), state=state),
             ref_gh(gh), state, math.sqrt(0.5), power, 0.5, 1.0)
    m_u, sd_u = ou_ref(ou, 1.0)
    ou_state = ou_ref(ou, 0.5)[0] + P(-0.04, 0.04)
    tm, tsd = R.ou_transition_mean_std(ou["theta"], ou["mu"], ou["sigma"], 0.5, 1.0, ou_state)
    lay2 = {"kind": "Layer", "a": 0.5, "b": 2.0}
    qpvp_job("qpvp.ou.tukeygh.layer.t0.5",
             lambda: va.ValuationRequest(
                 (o := ou_driver(ou)), tr.true_law_map(o, gh_spec(gh)), payoff_obj(lay2),
                 0.5, 1.0, rate, va.MCSettings(n_big, seed + 4), state=ou_state),
             ref_gh(gh), (float(tm) - m_u) / sd_u, tsd / sd_u, lay2, 0.5, 1.0)

    # price ordering under common random numbers: equal h, larger g dominates
    gh_hi = dict(gh, g=gh["g"] + 0.3)
    d_want = (R.premium(ref_gh(gh_hi), 0, 1, lay2, disc(rate, 0, 1))
              - R.premium(ref_gh(gh), 0, 1, lay2, disc(rate, 0, 1)))

    def ordering():
        def req(p, s):
            return va.ValuationRequest(d.Brownian(), tr.canonical_map(gh_spec(p)), payoff_obj(lay2),
                                       0.0, 1.0, rate, va.MCSettings(n_mid, s))
        return va.price_ordering(req(gh_hi, seed + 5), req(gh, seed + 6))

    def ordering_check(out):
        return first_error(
            se_gap("price_ordering difference", out.difference, out.std_error, d_want),
            None if (out.fosd.order, out.fosd.direction, out.consistent) == ("FOSD", 1, True)
            else f"price_ordering verdict {out.fosd.order} {out.fosd.direction} {out.consistent}")
    jobs.append(Job("price_ordering.tukeygh", ordering, ordering_check))

    # risk loading with the FOSD certificate: (e^{gx} - 1)/g >= x, so it dominates
    gap_want = R.premium(ref_gh(g_only), 0, 1, lin, disc(rate, 0, 1))

    def loading():
        req = va.ValuationRequest(d.Brownian(), tr.canonical_map(tr.TukeyG(0.0, 1.0, g_only["g"])),
                                  payoff_obj(lin), 0.0, 1.0, rate, va.MCSettings(n_mid, seed + 7))
        return va.risk_loading_check(req, fosd_certificate=True)

    def loading_check(out):
        rep = out["fosd"]
        return first_error(
            se_gap("risk loading gap", out["gap"], out["se"], gap_want),
            None if out["loaded"] and (rep.order, rep.direction) == ("FOSD", 1)
            else f"risk loading verdict {out['loaded']} {rep.order} {rep.direction}")
    jobs.append(Job("risk_loading_check.tukeyg", loading, loading_check))

    # relativized tariffs: exporters A and B share gamma, so the table orders them
    cost = P(0.98, 1.02)
    exporters = [("A", 0.5, 0.3), ("B", 0.5, 0.8), ("C", P(0.24, 0.26), P(0.59, 0.61))]
    tariff_want = {n: R.premium(R.GH(0, 1, g, 0), -gam, 1.0, {"kind": "Linear", "scale": cost},
                                disc(rate, 0, 1)) for n, gam, g in exporters}

    def tariff():
        exs = [va.Exporter(n, gam, g, d.Brownian()) for n, gam, g in exporters]
        return va.carbon_tariff_table(exs, cost, 0.0, 1.0, rate, va.MCSettings(100_000, seed + 8))

    def tariff_check(out):
        return first_error(*[se_gap(f"tariff {r['name']}", r["price"], r["std_error"],
                                    tariff_want[r["name"]]) for r in out["rows"]],
                           None if out["monotone_in_g"] else "tariff table not monotone in g")
    jobs.append(Job("carbon_tariff_table", tariff, tariff_check))

    # nested (time-consistent) pricing: 200 small inner composites
    nest_want = R.premium(ref_gh(g_only), 0, 1, lay2, disc(rate, 0, 1))

    def nested():
        req = va.ValuationRequest(d.Brownian(), tr.canonical_map(tr.TukeyG(0.0, 1.0, g_only["g"])),
                                  payoff_obj(lay2), 0.0, 1.0, rate,
                                  va.MCSettings(1_000, seed + 9, n_inner=2_000))
        return va.nested_price(req, 0.5, 200)
    jobs.append(Job("nested_price", nested, lambda out: se_gap("nested price", out[0], out[1], nest_want)))

    # multidimensional premiums under Clayton, Gumbel and Gaussian copulas
    q_g = ref_gh(g_only)
    for fam, theta, dens in (("clayton", P(1.96, 2.04), R.kendall_clayton_density),
                             ("gumbel", P(1.96, 2.04), R.kendall_gumbel_density)):
        want = R.kendall_premium(q_g, lambda v, th=theta, f=dens: f(v, th), lay2, disc(rate, 0, 1))

        def multi(fam=fam, theta=theta, k=len(jobs)):
            cop = cp.ClaytonCopula(theta) if fam == "clayton" else cp.GumbelCopula(theta)
            drs = [d.Brownian(), d.Brownian()]
            mmap = cp.MultiCompositeMap(tuple(tr.DriverLaw(x) for x in drs), cop,
                                        tr.TukeyG(0.0, 1.0, g_only["g"]))
            return cp.multi_layer_premium(mmap, drs, 0, payoff_obj(lay2), 0.0, 1.0, rate,
                                          va.MCSettings(n_mid, seed + 10 + k))
        jobs.append(Job(f"multi_layer_premium.{fam}", multi,
                        lambda res, w=want, f=fam: se_gap(f"{f} premium", res.price, res.std_error, w)))
    rho = P(0.49, 0.51)
    g_mean, g_se = R.gaussian_copula_premium_mc(q_g, rho, lay2, 1_000_000, seed + 1000)
    g_mean *= disc(rate, 0, 1)
    g_se *= disc(rate, 0, 1)

    def multi_gauss():
        drs = [d.Brownian(), d.Brownian()]
        cop = cp.GaussianCopula(np.array([[1.0, rho], [rho, 1.0]]))
        mmap = cp.MultiCompositeMap(tuple(tr.DriverLaw(x) for x in drs), cop,
                                    tr.TukeyG(0.0, 1.0, g_only["g"]))
        return cp.multi_layer_premium(mmap, drs, 0, payoff_obj(lay2), 0.0, 1.0, rate,
                                      va.MCSettings(20_000, seed + 12))
    jobs.append(Job("multi_layer_premium.gaussian", multi_gauss,
                    lambda res: se_gap("gaussian premium", res.price, res.std_error, g_mean, g_se)))

    # the CLI: price, tariff, simulate (CSV artifact), reproduce pivot-moments
    cli_price = {"kind": "price", "seed": seed, "n_paths": n_mid, "u": 1.0, "rate": rate,
                 "driver": {"kind": "Brownian"},
                 "map": {"mode": "TrueLaw", "dist": {"family": "Gaussian", "brownian_scaling": True},
                         "quantile": {"family": "TukeyG", "a": 0.0, "b": 1.0, "g": g_only["g"]}},
                 "payoff": {"kind": "Layer", "a": 1.0, "b": 2.0}}
    price_want = R.premium(q_g, 0, 1, lay, disc(rate, 0, 1))

    def price_check(out_dir):
        res = json.loads((out_dir / "price.json").read_text())
        return se_gap("cli price", res["price"], res["std_error"], price_want)

    cli_tariff = {"kind": "tariff", "seed": seed, "n_paths": 100_000, "unit_cost": cost, "rate": rate,
                  "driver": {"kind": "Brownian"},
                  "exporters": [{"name": n, "gamma": gam, "g": g} for n, gam, g in exporters]}

    def tariff_cli_check(out_dir):
        rows = read_csv(out_dir / "tariff.csv")
        flags = json.loads((out_dir / "tariff_checks.json").read_text())
        return first_error(*[se_gap(f"cli tariff {r['name']}", float(r["price"]), float(r["std_error"]),
                                    tariff_want[r["name"]]) for r in rows],
                           None if len(rows) == 3 and flags["monotone_in_g"] else "cli tariff rows/flag")

    times = [0.25, 0.5, 1.0]
    cli_sim = {"kind": "simulate", "seed": seed, "n_paths": 20_000,
               "driver": {"kind": "InhomogeneousOU", **ou}, "grid": {"times": times}}

    def sim_check(out_dir):
        data = np.loadtxt(out_dir / "ensemble.csv", delimiter=",", skiprows=1)
        msgs = []
        for k, t in enumerate(times):
            m, sd = ou_ref(ou, t)
            x = data[:, k]
            msgs.append(mean_se_gap(f"cli simulate mean t={t}", x, m, sd * sd))
            msgs.append(se_gap(f"cli simulate var t={t}", float(x.var(ddof=1)),
                               sd * sd * math.sqrt(2.0 / (x.size - 1)), sd * sd))
        return first_error(*msgs)

    n_piv = 200_000
    draws = [{"g": P(0.38, 0.42), "v": P(0.98, 1.02), "m": P(-0.1, 0.1)} for _ in range(5)]
    cli_piv = {"seed": seed, "n_paths": n_piv, "draws": draws}

    def piv_check(out_dir):
        msgs = []
        for r, dr in zip(read_csv(out_dir / "pivot_moments.csv"), draws):
            mean, var, skew, kurt = R.lognormal_pivot_moments(0.0, 1.0, dr["g"], dr["m"], dr["v"])
            msgs.append(close("pivot formula", [float(r["mean_formula"]), float(r["var_formula"]),
                                                float(r["skew_formula"]), float(r["kurt_excess_formula"])],
                              [mean, var, skew, kurt], rtol=1e-8, atol=1e-12))
            msgs.append(se_gap("pivot mean by MC", float(r["mean_mc"]), math.sqrt(var / n_piv), mean))
        return first_error(*msgs)

    for name, argv, cfg, check in (
            ("cli.price", ["price"], cli_price, price_check),
            ("cli.tariff", ["tariff"], cli_tariff, tariff_cli_check),
            ("cli.simulate", ["simulate"], cli_sim, sim_check),
            ("cli.reproduce.pivot-moments", ["reproduce", "pivot-moments"], cli_piv, piv_check)):
        jobs.append(cli_job(name, argv, cfg, check, tmp))
    return jobs


def cli_job(name, argv, cfg, check, tmp: Path) -> Job:
    out_dir = tmp / name
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    full = argv + ["--config", str(cfg_path), "--out", str(out_dir)]
    same = SameBytes()

    def run():
        return run_cli(full)

    def judge(rc):
        if rc != 0:
            return f"{name}: exit code {rc}"
        return first_error(check(out_dir), same(out_dir))
    return Job(name, run, judge, out_dir=out_dir)


# ---------------------------------------------------------------------------
# density-dominance: the inverse path
# ---------------------------------------------------------------------------

def density_dominance(seed: int, tmp: Path, counter=None) -> list[Job]:
    P = Params(seed, "density-dominance")
    rate = P(0.029, 0.031)
    # Newton's iteration count and the dominance checks' domain-widening loops
    # follow the shape (g, h) and the driver's law, so those stay fixed.  The
    # seed moves location and scale, and every grid is laid out in the map's
    # standardized coordinate (z - a) / b, so each pass does the same work.
    mild = {"g": 0.05, "h": 0.005}
    gh = {"a": P(-0.02, 0.02), "b": P(0.98, 1.02), "g": 0.5, "h": 0.1}
    ou = {"theta": 1.0, "mu": 0.2, "sigma": 0.7, "y0": 0.0}
    grid = np.linspace(0.1, 1.0, 10)
    n_kernel, n_pts = 20_000, 100_000
    jobs: list[Job] = []

    def martingale_check(what):
        # one step at a time: E[m_{k+1} / m_k | F_k] = 1 for the deflated kernel m,
        # and these one-step ratios are light-tailed where the product is not
        def check(out):
            m = out.deflated()
            if not (np.all(np.isfinite(m)) and np.all(m > 0)):
                return f"{what}: kernel values not finite and positive"
            return first_error(*[mean_se_gap(f"{what} martingale step {k}", m[:, k + 1] / m[:, k], 1.0,
                                             float(np.var(m[:, k + 1] / m[:, k], ddof=1)))
                                 for k in range(m.shape[1] - 1)])
        return check

    # pricing kernels over Brownian and OU ensembles; the maps stay close to the
    # driver's own law so that the kernel's one-step ratios have finite variance
    def kernel_bm():
        bm = d.Brownian()
        ens = d.simulate(bm, d.TimeGrid(grid), n_kernel, seed)
        q = tr.TukeyGH(0.0, math.sqrt, mild["g"], mild["h"])
        return me.pricing_kernel(tr.canonical_map(q), bm, ens, rate)
    jobs.append(Job("pricing_kernel.brownian.tukeygh", kernel_bm, martingale_check("brownian kernel")))

    def kernel_ou():
        o = ou_driver(ou)
        ens = d.simulate(o, d.TimeGrid(grid), n_kernel, seed + 1)
        q = tr.TukeyG(lambda t: ou_ref(ou, t)[0], lambda t: ou_ref(ou, t)[1], mild["g"])
        return me.pricing_kernel(tr.true_law_map(o, q), o, ens, rate)
    jobs.append(Job("pricing_kernel.ou.tukeyg", kernel_ou, martingale_check("OU kernel")))

    # density ratio at 1e5 points: pointwise and integrating to the reference mass
    q_ref = ref_gh(gh)
    def std_grid(lo, hi, n):
        return gh["a"] + gh["b"] * np.linspace(lo, hi, n)

    ys = std_grid(-8.0, 8.0, n_pts)
    sub = slice(0, n_pts, 500)
    rho_want = R.gh_pdf(ys[sub], **gh) / R.phi(ys[sub])
    mass_want = float(np.diff(special.ndtr(q_ref.x(ys[[0, -1]])))[0])

    def ratio_check(rho):
        return first_error(
            close("rn_derivative", rho[sub], rho_want, rtol=1e-8),
            close("rn_derivative mass", np.trapezoid(rho * R.phi(ys), ys), mass_want, atol=1e-6))
    jobs.append(Job("rn_derivative.brownian.1e5",
                    lambda: me.rn_derivative(tr.canonical_map(gh_spec(gh)), d.Brownian(), 1.0, ys),
                    ratio_check))

    # conditional ratio over OU: integrates against the transition law to the mapped mass
    m_u, sd_u = ou_ref(ou, 1.0)
    s0 = ou_ref(ou, 0.5)[0] + 0.1
    tm, tsd = R.ou_transition_mean_std(ou["theta"], ou["mu"], ou["sigma"], 0.5, 1.0, s0)
    tm = float(tm)
    yc = std_grid(tm - 8 * tsd, tm + 8 * tsd, n_pts)
    w_sub = m_u + sd_u * q_ref.x(yc[sub])
    crho_want = (R.normal_pdf(w_sub, tm, tsd) * R.gh_pdf(yc[sub], **gh)
                 / (R.normal_pdf(w_sub, m_u, sd_u) * R.normal_pdf(yc[sub], tm, tsd)))
    w_edges = m_u + sd_u * q_ref.x(yc[[0, -1]])
    cmass_want = float(np.diff(special.ndtr((w_edges - tm) / tsd))[0])

    def cond_check(rho):
        return first_error(
            close("conditional_rn", rho[sub], crho_want, rtol=1e-8),
            close("conditional_rn mass", np.trapezoid(rho * R.normal_pdf(yc, tm, tsd), yc),
                  cmass_want, atol=1e-6))
    jobs.append(Job("conditional_rn.ou.1e5",
                    lambda: me.conditional_rn(tr.true_law_map(o := ou_driver(ou), gh_spec(gh)), o,
                                              0.5, 1.0, s0, yc),
                    cond_check))

    # distorted CDF and density at 1e5 points
    zs = std_grid(-6.0, 12.0, n_pts)
    cdf_want, pdf_want = R.gh_cdf(zs[sub], **gh), R.gh_pdf(zs[sub], **gh)

    def distorted():
        law = me.DistortedLaw(tr.canonical_map(gh_spec(gh)), d.Brownian())
        return me.distorted_cdf(law, 1.0, zs), me.distorted_pdf(law, 1.0, zs)

    def distorted_check(out):
        cdf, pdf = out
        return first_error(monotone_unit("distorted cdf", cdf),
                           None if np.all(pdf >= 0) else "distorted pdf negative",
                           close("distorted cdf", cdf[sub], cdf_want, atol=1e-12),
                           close("distorted pdf", pdf[sub], pdf_want, rtol=1e-8, atol=1e-14))
    jobs.append(Job("distorted_cdf_pdf.1e5", distorted, distorted_check))

    # Q monotone and Q^{-1}(Q(u)) = u at 1e5 levels
    us = np.linspace(1e-6, 1.0 - 1e-6, n_pts)
    zq_want = R.gh_q(us[sub], **gh)

    def roundtrip():
        q = gh_spec(gh)
        z = tr.quantile_eval(q, 1.0, us)
        return z, tr.quantile_cdf(q, 1.0, z)

    def roundtrip_check(out):
        z, u2 = out
        return first_error(None if np.all(np.diff(z) > 0) else "Q not strictly increasing",
                           close("Q", z[sub], zq_want, rtol=1e-12, atol=1e-12),
                           close("Q^-1(Q(u))", u2, us, atol=1e-12))
    jobs.append(Job("quantile_roundtrip.1e5", roundtrip, roundtrip_check))

    # FOSD/SOSD between distorted laws: equal h, larger g dominates; equal g
    # crosses at 0.  Unit location and scale: the checks widen their domain
    # in steps of 4 from z = -1 and 1, so the step count would follow a and b.
    gh_0 = dict(gh, a=0.0, b=1.0)
    gh_hi0, gh_fat0 = dict(gh_0, g=gh["g"] + 0.3), dict(gh_0, h=gh["h"] + 0.15)
    expect_dom = R.crossing_x_star(tuple(gh_hi0.values()), tuple(gh_0.values()))[1]
    expect_cross = R.crossing_x_star(tuple(gh_fat0.values()), tuple(gh_0.values()))[1]

    def dominance():
        bm = d.Brownian()
        laws = [me.DistortedLaw(tr.canonical_map(gh_spec(p)), bm) for p in (gh_hi0, gh_0, gh_fat0)]
        F = [lambda z, law=law: me.distorted_cdf(law, 1.0, z) for law in laws]
        whole = (-np.inf, np.inf)
        return (dom.fosd_check(F[0], F[1], whole), dom.sosd_check(F[0], F[1], whole),
                dom.fosd_check(F[2], F[1], whole))

    def dominance_check(out):
        fo, so, fc = out
        ok = (expect_dom == "first-above" and (fo.order, fo.direction) == ("FOSD", 1)
              and (so.order, so.direction) == ("SOSD", 1)
              and expect_cross == "root" and fc.order is None)
        return None if ok else f"dominance verdicts {fo.order} {so.order} {fc.order}"
    jobs.append(Job("fosd_sosd.distorted", dominance, dominance_check))

    # sufficient conditions: condition (i) from the reference derivatives
    gh_hi = dict(gh, g=gh["g"] + 0.3)
    zg = std_grid(-3.0, 6.0, 2000)
    D1 = 1.0 / (gh_hi["b"] * R.gh_core_deriv(ref_gh(gh_hi).x(zg), gh_hi["g"], gh_hi["h"]))
    D2 = 1.0 / (gh["b"] * R.gh_core_deriv(q_ref.x(zg), gh["g"], gh["h"]))
    decisive = (np.abs(D1 - 1) > 1e-6) & (np.abs(D2 - 1) > 1e-6)
    cond_i_want = (D2 <= 1.0) & (D1 >= 1.0)

    def sufficient():
        bm = d.Brownian()
        return dom.sosd_sufficient_conditions(tr.canonical_map(gh_spec(gh_hi)),
                                              tr.canonical_map(gh_spec(gh)), 1.0, zg, bm, bm)

    def sufficient_check(res):
        if np.any(res.indeterminate):
            return "sufficient conditions: indeterminate points"
        if not np.array_equal(res.cond_i[decisive], cond_i_want[decisive]):
            return "sufficient conditions: condition (i) differs from the reference"
        return None
    jobs.append(Job("sosd_sufficient_conditions", sufficient, sufficient_check))

    # crossing levels: the four table rows, and row 1 at the seed's location and scale
    pairs = [({"a": 0.0, "b": 1.0, "g": g1, "h": h1}, {"a": 0.0, "b": 1.0, "g": g2, "h": h2})
             for g1, g2, h1, h2 in CROSSING_TABLE_ROWS]
    pairs.append(tuple(dict(p, a=gh["a"], b=gh["b"]) for p in pairs[0]))
    expects = [crossing_expect(p1, p2) for p1, p2 in pairs]

    def crossings():
        out = []
        for p1, p2 in pairs:
            q1, q2 = gh_spec(p1), gh_spec(p2)
            out.append((dom.crossing_report(q1, q2), dom.crossing_u_star(q1, q2)))
        return out

    def crossings_check(out):
        msgs = []
        for i, ((rep, u), ex) in enumerate(zip(out, expects)):
            z0 = rep.domain_lower if ex[1] is not None else None
            msgs.append(crossing_gap(f"pair {i} report", rep.u_star, z0, ex))
            msgs.append(crossing_gap(f"pair {i} u*", u, None, ex))
            msgs.append(None if rep.direction == ex[2] else f"pair {i} direction {rep.direction}")
        return first_error(*msgs)
    jobs.append(Job("crossing_report.pairs", crossings, crossings_check))

    # Kendall order: larger Clayton / Gumbel theta means a smaller Kendall function
    th = {"clayton": (P(2.48, 2.52), P(1.48, 1.52)), "gumbel": (P(2.48, 2.52), P(1.48, 1.52))}
    vs = np.linspace(0.0, 1.0, 514)[1:-1]
    kendall_want = {
        "clayton": 1 if np.all(R.kendall_clayton(vs, th["clayton"][1])
                               - R.kendall_clayton(vs, th["clayton"][0]) >= 0) else 0,
        "gumbel": 1 if np.all(R.kendall_gumbel(vs, th["gumbel"][1])
                              - R.kendall_gumbel(vs, th["gumbel"][0]) >= 0) else 0}

    def kendall():
        out = {}
        for fam, (t1, t2) in th.items():
            make = cp.ClaytonCopula if fam == "clayton" else cp.GumbelCopula
            c1, c2 = make(t1), make(t2)
            out[fam] = dom.kendall_order_check(lambda v: cp.kendall_function(c1, 1.0, v),
                                               lambda v: cp.kendall_function(c2, 1.0, v))
        return out

    def kendall_check(out):
        bad = [f for f, rep in out.items() if rep.direction != kendall_want[f] or kendall_want[f] != 1]
        return f"Kendall order for {bad}" if bad else None
    jobs.append(Job("kendall_order_check", kendall, kendall_check))

    # the CLI: dominance and three reproduce targets
    dp1, dp2 = pairs[0]  # unit location and scale, as for fosd_sosd.distorted
    cli_dom = {"kind": "dominance", "seed": seed,
               "map1": {"quantile": {"family": "TukeyGH", **dp1}},
               "map2": {"quantile": {"family": "TukeyGH", **dp2}}}
    dom_expect = expects[0]

    def dom_check(out_dir):
        rep = json.loads((out_dir / "dominance.json").read_text())
        # the fosd/sosd verdicts are not judged: on these heavy-tailed pairs the
        # check's 512-point grid spans thousands and steps over the crossing
        return crossing_gap("cli dominance", rep["u_star"], rep["crossing_domain_lower"], dom_expect)

    table_expect = expects[:4]

    def table_check(out_dir):
        rows = read_csv(out_dir / "crossing_table.csv")
        if len(rows) != len(CROSSING_TABLE_ROWS):
            return "crossing table rows"
        return first_error(*[close(f"table row {i + 1} g1, g2, h1, h2",
                                   [float(r[k]) for k in ("g1", "g2", "h1", "h2")], spec)
                             for i, (r, spec) in enumerate(zip(rows, CROSSING_TABLE_ROWS))],
                           *[crossing_gap(f"table row {i + 1}", float(r["u_star"]),
                                          float(r["domain_lower"]), ex)
                             for i, (r, ex) in enumerate(zip(rows, table_expect))])

    g_gaps = [0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    curve_expect = {(dh, dg): crossing_expect({"a": 0.0, "b": 1.0, "g": 0.1 + dg, "h": 0.05 + dh},
                                              {"a": 0.0, "b": 1.0, "g": 0.1, "h": 0.05})
                    for dh in (0.2, 0.35, 0.5) for dg in g_gaps}

    def curves_check(out_dir):
        rows = read_csv(out_dir / "crossing_curves.csv")
        return first_error(*[crossing_gap(f"curve {r['h_gap']},{r['g_gap']}", float(r["u_star"]), None,
                                          curve_expect[(float(r["h_gap"]), float(r["g_gap"]))])
                             for r in rows],
                           None if len(rows) == len(curve_expect) else "crossing curve rows")

    split = {"g1_below": P(0.79, 0.81), "g1_above": P(0.196, 0.204), "g2": P(0.296, 0.304)}
    left, right = R.split_g_integrals(split["g1_below"], split["g1_above"], split["g2"])

    def split_check(out_dir):
        r = read_csv(out_dir / "sosd_split_g.csv")[0]
        return first_error(close("split-g integrals", [float(r["left_integral"]), float(r["right_integral"])],
                                 [left, right], atol=1e-7),
                           None if r["sosd_inequality_holds"] == str(left >= right) else "split-g verdict")

    for name, argv, cfg, check in (
            ("cli.dominance", ["dominance"], cli_dom, dom_check),
            ("cli.reproduce.crossing-table", ["reproduce", "crossing-table"], {}, table_check),
            ("cli.reproduce.crossing-curves", ["reproduce", "crossing-curves"], {}, curves_check),
            ("cli.reproduce.sosd-split-g", ["reproduce", "sosd-split-g"], split, split_check)):
        jobs.append(cli_job(name, argv, cfg, check, tmp))
    return jobs


# ---------------------------------------------------------------------------
# levy-marginals: the non-Gaussian drivers
# ---------------------------------------------------------------------------

def levy_marginals(seed: int, tmp: Path, counter=None) -> list[Job]:
    P = Params(seed, "levy-marginals")
    vg = {"mu_vg": P(-0.104, -0.096), "sigma_vg": P(0.298, 0.302), "nu": P(0.396, 0.404)}
    gam = {"mean_rate": P(0.99, 1.01), "variance_rate": P(0.396, 0.404)}
    ou = {"theta": P(0.99, 1.01), "mu": P(0.19, 0.21), "sigma": P(0.69, 0.71), "y0": P(-0.02, 0.02)}
    count = counter or (lambda f: f)
    jobs: list[Job] = []

    def vg_obj():
        return d.VarianceGamma(vg["mu_vg"], vg["sigma_vg"], vg["nu"])

    def vg_ref_cdf(y, t):
        return R.vg_cdf(y, t, vg["mu_vg"], vg["sigma_vg"], vg["nu"])

    # VG marginal CDF and density: 2500 points at each of four times
    vg_times = (0.25, 0.5, 1.0, 2.0)
    grids = {}
    for t in vg_times:
        sd = math.sqrt((vg["sigma_vg"] ** 2 + vg["nu"] * vg["mu_vg"] ** 2) * t)
        grids[t] = np.linspace(vg["mu_vg"] * t - 6 * sd, vg["mu_vg"] * t + 6 * sd, 2500) + 1e-3 * sd
    sub = slice(0, 2500, 100)
    vg_cdf_want = {t: vg_ref_cdf(y[sub], t) for t, y in grids.items()}
    vg_pdf_want = {t: R.vg_pdf(y, t, vg["mu_vg"], vg["sigma_vg"], vg["nu"]) for t, y in grids.items()}

    def vg_laws():
        out = {}
        for t, y in grids.items():
            drv_ = vg_obj()
            out[t] = (d.marginal_cdf(drv_, t, y), d.marginal_pdf(drv_, t, y))
        return out

    def vg_laws_check(out):
        msgs = []
        for t, (c, p) in out.items():
            msgs += [monotone_unit(f"VG cdf t={t}", c),
                     close(f"VG cdf t={t}", c[sub], vg_cdf_want[t], atol=1e-9),
                     close(f"VG pdf t={t}", p, vg_pdf_want[t], rtol=1e-7, atol=1e-12)]
        return first_error(*msgs)
    jobs.append(Job("vg.marginal_cdf_pdf.1e4", vg_laws, vg_laws_check))

    # VG marginal quantile: one root search per level
    levels = np.linspace(0.02, 0.98, 20)

    def vg_quantile_check(q):
        return first_error(None if np.all(np.diff(q) > 0) else "VG quantile not increasing",
                           close("VG F(Q(u))", vg_ref_cdf(q, 1.0), levels, atol=1e-9))
    jobs.append(Job("vg.marginal_quantile", lambda: vg_obj().marginal_quantile(1.0, levels),
                    vg_quantile_check))

    # probability integral transform and a true-law composite over VG
    def uniform_check(ens):
        u = ens.paths
        return first_error(*[mean_se_gap(f"uniformized mean col {k}", u[:, k], 0.5, 1.0 / 12.0)
                             for k in range(u.shape[1])],
                           *[se_gap(f"uniformized var col {k}", float(u[:, k].var(ddof=1)),
                                    math.sqrt((1 / 80 - 1 / 144) / u.shape[0]), 1.0 / 12.0)
                             for k in range(u.shape[1])])

    def uniformize():
        drv_ = vg_obj()
        ens = d.simulate(drv_, d.TimeGrid(np.array([0.5, 1.0])), 2_000, seed)
        return d.uniformize(drv_, ens)
    jobs.append(Job("vg.uniformize", uniformize, uniform_check))

    g_vg = {"a": 0.0, "b": 1.0, "g": P(0.39, 0.41), "h": 0.0}
    lay = {"kind": "Layer", "a": 0.5, "b": 2.0}
    vg_price_want = R.premium(ref_gh(g_vg), 0.0, 1.0, lay)

    def vg_price():
        drv_ = vg_obj()
        req = va.ValuationRequest(drv_, tr.true_law_map(drv_, tr.TukeyG(0.0, 1.0, g_vg["g"])),
                                  payoff_obj(lay), 0.0, 1.0, 0.0, va.MCSettings(2_000, seed + 1))
        return va.qpvp_price(req)
    jobs.append(Job("vg.true_law_qpvp", vg_price,
                    lambda res: se_gap("VG true-law price", res.price, res.std_error, vg_price_want)))

    # gamma-process marginal laws
    g_times = (0.5, 1.0, 2.0)
    g_levels = np.linspace(0.001, 0.999, 3000)

    def gamma_laws():
        gp = d.GammaProcess(**gam)
        out = {}
        for t in g_times:
            q = gp.marginal_quantile(t, g_levels)
            out[t] = (q, gp.marginal_cdf(t, q), gp.marginal_pdf(t, q))
        return out

    def gamma_check(out):
        msgs = []
        for t, (q, c, p) in out.items():
            shape, scale = R.gamma_shape_scale(gam["mean_rate"], gam["variance_rate"], t)
            msgs += [close(f"gamma F(Q(u)) t={t}", R.gamma_cdf(q, shape, scale), g_levels, atol=1e-10),
                     close(f"gamma cdf t={t}", c, g_levels, atol=1e-10),
                     close(f"gamma pdf t={t}", p, R.gamma_pdf(q, shape, scale), rtol=1e-9)]
        return first_error(*msgs)
    jobs.append(Job("gamma.marginal_laws", gamma_laws, gamma_check))

    # Gaussian-copula joint simulation with gamma and OU margins
    rho = P(0.49, 0.51)
    j_times = [0.5, 1.0]
    n_joint = 20_000

    def joint():
        drs = [d.GammaProcess(**gam), ou_driver(ou)]
        cop = cp.GaussianCopula(np.array([[1.0, rho], [rho, 1.0]]))
        return cp.simulate_joint(drs, cop, d.TimeGrid(np.array(j_times)), n_joint, seed + 2)

    def joint_check(ens):
        g_e, o_e = ens
        msgs = []
        for k, t in enumerate(j_times):
            msgs.append(mean_se_gap(f"joint gamma mean t={t}", g_e.paths[:, k],
                                    gam["mean_rate"] * t, gam["variance_rate"] * t))
            m, sd = ou_ref(ou, t)
            msgs.append(mean_se_gap(f"joint OU mean t={t}", o_e.paths[:, k], m, sd * sd))
        shape, scale = R.gamma_shape_scale(gam["mean_rate"], gam["variance_rate"], j_times[0])
        m, sd = ou_ref(ou, j_times[0])
        x1 = special.ndtri(np.clip(R.gamma_cdf(g_e.paths[:, 0], shape, scale), 1e-16, 1 - 1e-16))
        x2 = (o_e.paths[:, 0] - m) / sd
        r = float(np.corrcoef(x1, x2)[0, 1])
        msgs.append(se_gap("joint innovation correlation", r, (1 - rho * rho) / math.sqrt(n_joint), rho))
        return first_error(*msgs)
    jobs.append(Job("copula.gaussian_joint.gamma_ou", joint, joint_check))

    # inhomogeneous Poisson with a smooth intensity: grid simulation, events, pivot, mass ratio
    c0, c1 = P(1.49, 1.51), P(1.99, 2.01)
    lam, cum = R.smooth_intensity(c0, c1)
    p_times = [0.5, 1.0]
    n_pois = 50_000

    def pois_sim():
        proc = d.InhomogeneousPoisson(intensity=count(lam))
        return d.simulate(proc, d.TimeGrid(np.array(p_times)), n_pois, seed + 3)

    def pois_sim_check(ens):
        return first_error(*[mean_se_gap(f"Poisson mean count t={t}", ens.paths[:, k], cum(t), cum(t))
                             for k, t in enumerate(p_times)])
    jobs.append(Job("poisson.smooth.simulate", pois_sim, pois_sim_check))

    n_event_paths = 200
    target_rate = cum(1.0)

    def events():
        proc = d.InhomogeneousPoisson(intensity=count(lam))
        rng = np.random.default_rng(seed + 4)
        evs = [proc.sample_events(rng, 1.0) for _ in range(n_event_paths)]
        return evs, [d.poisson_pivot(count(lam), target_rate, ev) for ev in evs]

    def events_check(out):
        evs, mapped = out
        counts = np.array([ev.size for ev in evs], dtype=float)
        flat = np.concatenate(evs)
        got = np.concatenate([np.sort(m) for m in mapped])
        want = np.concatenate([np.array([cum(x) for x in np.sort(ev)]) / target_rate for ev in evs])
        return first_error(mean_se_gap("events per path", counts, cum(1.0), cum(1.0)),
                           None if np.all((flat > 0) & (flat <= 1.0)) else "event outside (0, 1]",
                           close("poisson pivot", got, want, atol=1e-9))
    jobs.append(Job("poisson.sample_events.pivot", events, events_check))

    kappa = P(1.98, 2.02)
    ks = np.arange(0, 21)
    lam1 = cum(1.0)
    pmf = R.poisson_cdf(ks, lam1) - R.poisson_cdf(ks - 1, lam1)
    mass_want = R.poisson_pivot_masses(lam1, kappa, ks)

    def discrete_ratio():
        base = d.InhomogeneousPoisson(intensity=count(lam))
        cmap = tr.CompositeMap(None, tr.PoissonQuantile(kappa), tr.MapMode.TRUE_LAW)
        return me.rn_derivative(cmap, base, 1.0, ks)

    def discrete_check(r):
        # compare masses ratio * p_N rather than ratios, which amplify tail round-off
        return first_error(close("discrete ratio masses", r * pmf, mass_want, atol=1e-12),
                           close("discrete ratio total mass", float(np.sum(r * pmf)), 1.0, atol=1e-9))
    jobs.append(Job("poisson.discrete_ratio", discrete_ratio, discrete_check))

    # two operations that fail today on every seed; their inputs never depend on it
    small_y = np.array([-1e-2, -1e-3, 0.0, 1e-3, 1e-2])
    small_want = R.vg_cdf(small_y, 1e-3, 0.1, 0.3, 0.5)

    def vg_small():
        with np.errstate(all="ignore"):
            return d.VarianceGamma(0.1, 0.3, 0.5).marginal_cdf(1e-3, small_y)
    jobs.append(Job("vg.small_t.cdf", vg_small,
                    lambda c: close("VG cdf at t=1e-3", c, small_want, atol=1e-6),
                    known_fault="VG small t: _mixture_nodes underflow gives NaN at y=0 "
                                "(drivers.py VarianceGamma._mixture_nodes)"))
    spike, spike_cum = R.spike_intensity()
    n_spike = 20_000

    def spike_run():
        proc = d.InhomogeneousPoisson(intensity=count(spike))
        ens = d.simulate(proc, d.TimeGrid(np.array([1.0])), n_spike, 1)
        return ens.paths[:, 0], proc.cumulative_intensity(1.0)

    def spike_check(out):
        counts, lam1 = out
        return first_error(mean_se_gap("spike mean count", counts, spike_cum(1.0), spike_cum(1.0)),
                           close("spike cumulative intensity", lam1, spike_cum(1.0), atol=1e-6))
    jobs.append(Job("poisson.spike.simulate", spike_run, spike_check,
                    known_fault="Poisson narrow spike: _sup_on misses the peak and "
                                "cumulative_intensity misses the spike (drivers.py InhomogeneousPoisson)"))
    return jobs


JOB_LISTS = {"mc-pricing": mc_pricing, "density-dominance": density_dominance,
            "levy-marginals": levy_marginals}
