"""Pricing payoffs under distorted measures by Monte Carlo.

The conditional-expectation valuation principle prices a payoff V of the
risk at time u as discount * E[V(Z_u) | state at t], where Z is the quantile
process built over the risk driver: expectations of V(Y_u) under the
distorted measure coincide with expectations of V(Z_u) under the base one.
Comparative operations share random numbers so ordering claims are paired
differences of means.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import dominance as dom
from . import drivers as drv
from . import measures as me
from . import transforms as tr
from ._util import TimeParam, substream
from .errors import NumericError, ParameterError, RequestError

__all__ = [
    "Payoff",
    "Linear",
    "Layer",
    "StopLoss",
    "PowerUtility",
    "TablePayoff",
    "MCSettings",
    "ValuationRequest",
    "ValuationResult",
    "qpvp_price",
    "quantile_integral_price",
    "risk_loading_check",
    "price_ordering",
    "Exporter",
    "carbon_tariff_table",
    "nested_price",
]


# ---------------------------------------------------------------------------
# payoff catalogue
# ---------------------------------------------------------------------------

class Payoff:
    """Monotone non-decreasing payoff with V(0) = 0, finite on finite inputs."""

    kind: str = "abstract"

    def __call__(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def validate(self) -> None:
        pass


@dataclass(frozen=True)
class Linear(Payoff):
    """V(y) = scale * y."""

    scale: float = 1.0

    kind = "Linear"

    def validate(self) -> None:
        if not self.scale > 0:
            raise ParameterError("linear payoff scale must be positive")

    def __call__(self, y):
        return self.scale * np.asarray(y, dtype=float)


@dataclass(frozen=True)
class Layer(Payoff):
    """Losses between attachment a and exhaustion b, capped at b - a."""

    a: float
    b: float

    kind = "Layer"

    def validate(self) -> None:
        if not (0 < self.a < self.b < math.inf):
            raise ParameterError(f"layer needs 0 < a < b < inf, got a={self.a}, b={self.b}")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.clip(y - self.a, 0.0, self.b - self.a)


@dataclass(frozen=True)
class StopLoss(Payoff):
    """Limited stop-loss min((y - a)^+, b)."""

    a: float
    b: float

    kind = "StopLoss"

    def validate(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ParameterError("stop-loss needs a > 0 and b > 0")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.minimum(np.maximum(y - self.a, 0.0), self.b)


@dataclass(frozen=True)
class PowerUtility(Payoff):
    """Odd power map sign(y) |y|^gamma, monotone with V(0) = 0."""

    gamma: float = 0.5

    kind = "PowerUtility"

    def validate(self) -> None:
        if not self.gamma > 0:
            raise ParameterError("power exponent must be positive")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.abs(y) ** self.gamma


@dataclass(frozen=True)
class TablePayoff(Payoff):
    """Monotone piecewise-linear payoff from (y, V) knots; clamps outside."""

    y_knots: np.ndarray
    v_knots: np.ndarray

    kind = "Custom"

    def __post_init__(self):
        yk = np.asarray(self.y_knots, dtype=float)
        vk = np.asarray(self.v_knots, dtype=float)
        if yk.shape != vk.shape or yk.size < 2:
            raise ParameterError("payoff table needs two equal-length columns, >= 2 rows")
        if not (np.all(np.diff(yk) > 0) and np.all(np.diff(vk) >= 0)):
            raise ParameterError("payoff table must be increasing in y, non-decreasing in V")
        object.__setattr__(self, "y_knots", yk)
        object.__setattr__(self, "v_knots", vk)

    def __call__(self, y):
        return np.interp(np.asarray(y, dtype=float), self.y_knots, self.v_knots)


# ---------------------------------------------------------------------------
# requests and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCSettings:
    n_paths: int = 100_000
    seed: int = 0
    n_inner: int = 1_000

    def validate(self) -> None:
        for name in ("n_paths", "n_inner", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.n_paths < 1_000:
            raise ParameterError("n_paths must be at least 1000")
        if self.n_inner < 1:
            raise ParameterError("n_inner must be positive")


@dataclass(frozen=True)
class ValuationRequest:
    """Everything needed to price one payoff of one risk under one map."""

    risk: drv.Driver
    map: tr.CompositeMap
    payoff: Payoff
    t: float
    u: float
    rate: TimeParam = 0.0
    mc: MCSettings = field(default_factory=MCSettings)
    state: Optional[float] = None   # driver value at t, required when t > 0

    def validate(self) -> None:
        if not 0 <= self.t <= self.u or self.u <= 0:
            raise RequestError(f"need 0 <= t <= u with u > 0, got t={self.t}, u={self.u}")
        if self.t > 0 and self.state is None:
            raise RequestError("pricing at t > 0 needs the driver state at t")
        self.payoff.validate()
        self.mc.validate()
        self.map.validate(self.u)
        self.risk.validate()


@dataclass(frozen=True)
class ValuationResult:
    price: float
    std_error: float
    risk_loading: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0:
            raise ParameterError("standard error cannot be negative")


def _discount(rate: TimeParam, t: float, u: float) -> float:
    """B_t / B_u for a deterministic short rate."""
    return me.money_market(rate, t) / me.money_market(rate, u)


#: paths drawn and reduced at a time by the terminal Monte Carlo, so that memory stays
#: constant in the path count
_BLOCK = 1 << 16


class _Moments:
    """Count, mean and sum of squared deviations (M2) of a sample seen in blocks.

    The first block is read as ``np.mean`` and ``np.std`` read a whole sample, so
    a one-block sample gives their floats bit for bit; each later block joins by
    the pairwise update of Chan, Golub and LeVeque (1979).  With ``spread`` off
    only the mean is kept.  Every premium's finite check is here: a non-finite block
    mean raises ``RequestError``, a non-finite standard error ``NumericError``.
    """

    def __init__(self, spread: bool = True):
        self.spread = spread
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, x: np.ndarray) -> "_Moments":
        n_b, mean_b = x.size, float(np.mean(x))
        if not math.isfinite(mean_b):
            raise RequestError(f"Monte Carlo block mean is {mean_b}: a non-finite value")
        m2_b = 0.0
        if self.spread:
            with np.errstate(over="ignore"):  # std_error raises on an M2 past the floats
                d = x - mean_b
                m2_b = float(np.sum(np.square(d, out=d)))
        if self.n == 0:
            self.n, self.mean, self.m2 = n_b, mean_b, m2_b
            return self
        n = self.n + n_b
        delta = mean_b - self.mean
        self.mean += delta * (n_b / n)
        self.m2 += m2_b + delta * delta * (self.n * n_b / n)
        self.n = n
        return self

    def std_error(self, scale: float) -> float:
        """Standard error of the mean of the sample scaled by ``scale`` (ddof = 1)."""
        se = scale * math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n)
        if not math.isfinite(se):
            raise NumericError(f"Monte Carlo standard error {se} is not finite")
        return se


def _premium(blocks, payoff: Payoff, disc: float, diagnostics: dict) -> ValuationResult:
    """disc * mean V(Z) over (Y, Z) blocks, its standard error and excess over disc * mean Y."""
    mv, my = _Moments(), _Moments(spread=False)
    for y, z in blocks:
        mv.add(payoff(z))
        my.add(y)
    price = disc * mv.mean
    return ValuationResult(price=price, std_error=mv.std_error(disc),
                           risk_loading=price - disc * my.mean, diagnostics=diagnostics)


def _start_state(req: ValuationRequest) -> tuple[float, float]:
    """The time and driver state the request conditions on."""
    if req.t > 0:
        return req.t, float(req.state)
    return 0.0, req.risk.initial_value()


def _terminal_blocks(req: ValuationRequest, stream: tuple[int, ...] = (0,)):
    """Yield (Y_u, Z_u) from the request's conditioning point by one exact step,
    in consecutive blocks of at most ``_BLOCK`` paths drawn from one substream."""
    rng = substream(req.mc.seed, *stream)
    start_t, start_y = _start_state(req)
    grid = drv.TimeGrid(np.array([req.u]))
    for lo in range(0, req.mc.n_paths, _BLOCK):
        states = np.full(min(_BLOCK, req.mc.n_paths - lo), start_y)
        y_u = drv.simulate_conditional(req.risk, start_t, req.u, states, rng)
        ens = drv.PathEnsemble(grid=grid, paths=y_u[:, None], seed=req.mc.seed, driver=req.risk)
        yield y_u, tr.apply_composite(req.map, ens).paths[:, 0]


def qpvp_price(req: ValuationRequest) -> ValuationResult:
    """Monte Carlo price of the payoff under the map-induced distorted measure.

    price = (B_t / B_u) * mean V(Z_u) with Z_u the composite of the risk at u,
    simulated from the conditioning state by one exact transition.  The
    result also carries the risk loading: price minus the discounted plain
    expectation of the raw risk on the same paths.
    """
    req.validate()
    disc = _discount(req.rate, req.t, req.u)
    return _premium(_terminal_blocks(req), req.payoff, disc,
                    {"n_effective": req.mc.n_paths, "seed": req.mc.seed, "discount": disc})


def quantile_integral_price(req: ValuationRequest) -> float:
    """Quadrature oracle for t = 0 prices of true-law maps.

    For a true-law composite the quantile level is uniform, so
    E[V(Z_u)] = integral over (0, 1) of V(Q(u, p)) dp, computed here through p = ndtr(x)
    with Q read at the score x.  Independent of any Monte Carlo path.
    """
    from scipy import integrate
    if req.t != 0:
        raise RequestError("the quantile-integral oracle prices at t = 0 only")
    req.map.dist_for(req.risk)
    if req.map.mode is not tr.MapMode.TRUE_LAW:
        raise RequestError("the quantile-integral oracle needs a true-law map")
    disc = _discount(req.rate, 0.0, req.u)
    q = req.map.quantile

    def f(x: float) -> float:
        z = q.from_score(req.u, np.asarray(x))
        return float(req.payoff(z)) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    val, err = integrate.quad(f, -10.0, 10.0, epsabs=1e-10, limit=400)
    return disc * float(val)


def risk_loading_check(req: ValuationRequest, fosd_certificate: bool = False) -> dict:
    """Does the price sit above the discounted plain expectation of the risk?

    gap = price - (B_t/B_u) E[Y_u | state]; loaded when the gap clears
    -3 combined standard errors.  With ``fosd_certificate`` the distorted and
    base marginal CDFs at u are also compared, certifying the first-order
    dominance hypothesis under which a non-negative loading is guaranteed.
    """
    req.validate()
    disc = _discount(req.rate, req.t, req.u)
    mv, my, md = _Moments(spread=False), _Moments(spread=False), _Moments()
    for y_u, z_u in _terminal_blocks(req):
        v = req.payoff(z_u)
        mv.add(v)
        my.add(y_u)
        md.add(v - y_u)
    price, bench, se = disc * mv.mean, disc * my.mean, md.std_error(disc)
    gap = price - bench
    out = {"loaded": bool(gap >= -3.0 * se), "gap": gap, "se": se,
           "price": price, "benchmark": bench}
    if fosd_certificate:
        law = me.DistortedLaw(req.map, req.risk)
        out["fosd"] = dom.fosd_check(lambda z: me.distorted_cdf(law, req.u, z),
                                     lambda z: req.risk.cdf(req.u, z),
                                     req.map.quantile.support(req.u))
    return out


@dataclass(frozen=True)
class PriceOrdering:
    price_1: float
    price_2: float
    difference: float
    std_error: float
    fosd: dom.DominanceReport
    consistent: bool


def price_ordering(req1: ValuationRequest, req2: ValuationRequest) -> PriceOrdering:
    """Price two maps with common random numbers and compare with dominance.

    Both requests must share payoff, times and rate, and run on req1's seed.
    The standard error is that of the paired difference V1 - V2, exact when path
    i of both comes from the same variates (one driver, an equal twin, or two
    Gaussian drivers); for drivers of different kinds neither it nor the
    independent-samples SE is.  The flag is False when a definite first-order
    verdict contradicts the sign of the difference beyond 3 standard errors.
    """
    for a, b, what in ((req1.payoff, req2.payoff, "payoff"),
                       ((req1.t, req1.u), (req2.t, req2.u), "times"),
                       (req1.rate if not callable(req1.rate) else id(req1.rate),
                        req2.rate if not callable(req2.rate) else id(req2.rate), "rate")):
        if a != b:
            raise RequestError(f"price ordering requires a common {what}")
    req2 = replace(req2, mc=replace(req2.mc, seed=req1.mc.seed))
    req1.validate()
    req2.validate()
    disc = _discount(req1.rate, req1.t, req1.u)
    mv1, mv2, md = _Moments(spread=False), _Moments(spread=False), _Moments()
    # the two streams step in lockstep, one block of each at a time
    for (_, z1), (_, z2) in zip(_terminal_blocks(req1), _terminal_blocks(req2)):
        v1, v2 = req1.payoff(z1), req2.payoff(z2)
        mv1.add(v1)
        mv2.add(v2)
        md.add(v1 - v2)
    se = md.std_error(disc)
    p1, p2 = disc * mv1.mean, disc * mv2.mean
    law1, law2 = me.DistortedLaw(req1.map, req1.risk), me.DistortedLaw(req2.map, req2.risk)
    lo = min(req1.map.quantile.support(req1.u)[0], req2.map.quantile.support(req2.u)[0])
    rep = dom.fosd_check(lambda z: me.distorted_cdf(law1, req1.u, z),
                         lambda z: me.distorted_cdf(law2, req2.u, z),
                         (lo, np.inf))
    diff = p1 - p2
    consistent = True
    if rep.holds and abs(diff) > 3.0 * se:
        consistent = (diff > 0) == (rep.direction == 1)
    return PriceOrdering(price_1=p1, price_2=p2, difference=diff, std_error=se,
                         fosd=rep, consistent=consistent)


# ---------------------------------------------------------------------------
# relativized tariffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exporter:
    """One exporter in the relativized-tariff example.

    ``gamma`` is the domestic carbon price already paid (1 = highest), ``g``
    the skew parameter their composite map carries, ``driver`` the emissions
    process.
    """

    name: str
    gamma: float
    g: float
    driver: drv.Driver


def carbon_tariff_table(exporters: Sequence[Exporter], unit_cost: float,
                        t: float, u: float, rate: TimeParam,
                        mc: MCSettings, state: Optional[float] = None) -> dict:
    """Tariff per exporter: the distorted expectation of unit-cost times emissions.

    Each exporter's map shifts the driver law by gamma and applies a Tukey-g
    quantile with their skew parameter.  Rows are sorted by price; the
    monotonicity flag asserts that, within groups sharing a driver and gamma,
    tariffs are non-decreasing in g (within 3 standard errors).
    """
    if len(exporters) < 2:
        raise RequestError("tariff table needs at least two exporters")
    if not unit_cost > 0:
        raise ParameterError("unit cost must be positive")
    rows = []
    for ex in exporters:
        cmap = tr.CompositeMap(dist=tr.ShiftedDriverLaw(ex.driver, ex.gamma),
                               quantile=tr.TukeyG(0.0, 1.0, ex.g),
                               mode=tr.MapMode.FALSE_LAW)
        req = ValuationRequest(risk=ex.driver, map=cmap, payoff=Linear(unit_cost),
                               t=t, u=u, rate=rate, mc=mc, state=state)
        res = qpvp_price(req)
        rows.append({"name": ex.name, "gamma": ex.gamma, "g": ex.g,
                     "price": res.price, "std_error": res.std_error})
    monotone = not any(
        ri["price"] < rj["price"] - 3.0 * math.hypot(ri["std_error"], rj["std_error"])
        for ei, ri in zip(exporters, rows) for ej, rj in zip(exporters, rows)
        if ei.driver == ej.driver and ei.gamma == ej.gamma and ei.g > ej.g)
    rows.sort(key=lambda r: r["price"])
    return {"rows": rows, "monotone_in_g": monotone}


# ---------------------------------------------------------------------------
# nested (time-consistency) pricing
# ---------------------------------------------------------------------------

def nested_price(req: ValuationRequest, mid: float, n_outer: int) -> tuple[float, float]:
    """Price at t through intermediate prices at ``mid``: outer states at mid,
    inner re-simulation of ``req.mc.n_inner`` paths each to u, discounted back.

    Returns (nested price, standard error over outer states).  Matching the
    direct price within Monte Carlo error is the time-consistency property of
    conditional-expectation valuation.
    """
    if not req.t < mid < req.u:
        raise RequestError("need t < mid < u for nested pricing")
    if not (isinstance(n_outer, numbers.Integral) and n_outer >= 2):
        raise ParameterError(f"n_outer must be an integer of at least 2, got {n_outer!r}")
    req.validate()
    start_t, start_y = _start_state(req)
    outer = drv.simulate_conditional(req.risk, start_t, mid, np.full(n_outer, start_y),
                                     substream(req.mc.seed, 101))
    inner_vals = np.empty(n_outer)
    disc_mid_u = _discount(req.rate, mid, req.u)
    inner_mc = replace(req.mc, n_paths=req.mc.n_inner)
    for i, s in enumerate(outer):
        inner = _Moments(spread=False)
        for _, z_u in _terminal_blocks(replace(req, t=mid, state=s, mc=inner_mc), stream=(202, i)):
            inner.add(req.payoff(z_u))
        inner_vals[i] = disc_mid_u * inner.mean
    moments = _Moments().add(inner_vals)
    disc = _discount(req.rate, req.t, mid)
    return disc * moments.mean, moments.std_error(disc)
