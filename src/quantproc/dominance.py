"""First- and second-order stochastic dominance between quantile processes.

Dominance is decided on evaluable distribution functions: pointwise CDF
ordering for first order, ordering of the cumulative CDF-difference integral
for second order, each with a strict witness.  Quantile crossing levels u*
delimit the dominance domain for composite-map pairs sharing a driver law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate, optimize, special

from . import transforms as tr
from .errors import NumericError, ParameterError

__all__ = [
    "DominanceReport",
    "crossing_u_star",
    "crossing_report",
    "fosd_check",
    "sosd_check",
    "sosd_sufficient_conditions",
    "split_g_sosd_integrals",
    "state_dependent_tukey_g_cdf",
    "kendall_order_check",
    "TOL",
]

#: numerical strictness threshold: "strict at one point" means exceeding this
TOL = 1e-8


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a dominance check.

    direction is +1 when the first input dominates, -1 when the second does,
    0 when no verdict holds.  ``evidence`` carries the diagnostic grids used
    (z values, CDF differences, cumulative integrals).
    """

    order: Optional[str]           # "FOSD", "SOSD", "Kendall", or None
    direction: int
    domain_lower: float
    u_star: Optional[float] = None
    strictness_witness: Optional[float] = None
    evidence: dict = field(default_factory=dict, repr=False)
    truncation: Optional[tuple[float, float]] = None
    inconclusive: bool = False
    notes: str = ""

    @property
    def holds(self) -> bool:
        return self.order is not None and self.direction != 0


# ---------------------------------------------------------------------------
# quantile crossing levels
# ---------------------------------------------------------------------------

#: beyond this |ndtri| argument, ndtr(x) is indistinguishable from {0, 1} in float64
_X_RESOLVABLE = 8.2


def _crossing_roots(q1: tr.QuantileSpec, q2: tr.QuantileSpec, t: float,
                    x_max: float, n_scan: int) -> tuple[list[float], np.ndarray, np.ndarray]:
    x_max = min(x_max, _X_RESOLVABLE)
    xs = np.linspace(-x_max, x_max, n_scan)
    us = special.ndtr(xs)

    def diff_x(x: float) -> float:
        u = special.ndtr(np.asarray(x))
        return float(q1.eval(t, u) - q2.eval(t, u))

    with np.errstate(invalid="ignore", over="ignore"):
        d = np.asarray(q1.eval(t, us), dtype=float) - np.asarray(q2.eval(t, us), dtype=float)
    d = np.where(np.isfinite(d), d, 0.0)
    s = np.sign(d)
    roots: list[float] = []
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    for i in flips:
        try:
            r = optimize.brentq(diff_x, xs[i], xs[i + 1], xtol=1e-13, maxiter=200)
        except (ValueError, RuntimeError) as exc:
            raise NumericError(f"crossing root-finding failed near x={xs[i]:.3f}: {exc}")
        roots.append(float(r))
    # exact zeros on the scan grid count as touch points
    for i in np.nonzero(s == 0)[0]:
        if 0 < i < n_scan - 1 and s[i - 1] * s[i + 1] < 0:
            roots.append(float(xs[i]))
    roots.sort()
    return roots, us, d


def _u_star(roots: list[float], d: np.ndarray) -> Optional[float]:
    """The crossing level of ``crossing_u_star`` from one scan's roots and differences."""
    if roots:
        return float(special.ndtr(np.asarray(roots[-1])))
    finite = np.isfinite(d)
    if not np.any(finite):
        raise NumericError("quantile difference is nowhere finite on the scan grid")
    dmax = np.max(d[finite])
    dmin = np.min(d[finite])
    if dmin >= -TOL and dmax > TOL:
        return 0.0
    # second curve above throughout, or identical curves: no crossing either way
    return None


def crossing_u_star(q1: tr.QuantileSpec, q2: tr.QuantileSpec, t: float = 1.0,
                    x_max: float = _X_RESOLVABLE, n_scan: int = 4096) -> Optional[float]:
    """Largest quantile level where the two quantile curves cross.

    Returns the largest u* in [0, 1) with Q1(u*) = Q2(u*) such that one curve
    stays above the other on (u*, 1).  Returns 0.0 when Q1 >= Q2 throughout
    (equality at most in the limit u -> 0), and None when Q2 >= Q1 throughout
    with no interior crossing.

    The scan runs on a grid uniform in x = ndtri(u) so crossings pushed far
    into either tail (u within 1e-9 of 0 or 1) are still resolved.
    """
    q1.validate(t)
    q2.validate(t)
    roots, _, d = _crossing_roots(q1, q2, t, x_max, n_scan)
    return _u_star(roots, d)


def crossing_report(q1: tr.QuantileSpec, q2: tr.QuantileSpec, t: float = 1.0,
                    x_max: float = _X_RESOLVABLE, n_scan: int = 4096) -> DominanceReport:
    """Crossing level plus dominance direction and domain bound for the pair.

    The reported domain lower bound is z0 = Q1(u*) = Q2(u*); the dominating
    side on (u*, 1) is read off the sign of Q1 - Q2 beyond the crossing.
    """
    q1.validate(t)
    q2.validate(t)
    roots, us, d = _crossing_roots(q1, q2, t, x_max, n_scan)
    u_star = _u_star(roots, d)
    if u_star is None:
        finite = np.isfinite(d)
        direction = -1 if np.max(d[finite]) <= TOL else 0
        lo, _ = q2.support(t)
        return DominanceReport(order="FOSD" if direction else None, direction=direction,
                               domain_lower=float(lo), u_star=None,
                               notes="no interior crossing; second curve dominates"
                               if direction else "curves indistinguishable at tolerance")
    if roots:
        x_star = roots[-1]
        z0 = float(q1.eval(t, special.ndtr(np.asarray(x_star))))
        above = special.ndtr(np.asarray(x_star + max(1e-6, 1e-6 * abs(x_star))))
        sign_after = float(q1.eval(t, above) - q2.eval(t, above))
        direction = 1 if sign_after > 0 else -1
    else:
        z0 = float(min(q1.support(t)[0], q2.support(t)[0]))
        direction = 1
    boundary = ""
    if u_star is not None and u_star > 1.0 - 1e-6:
        boundary = ("crossing sits at the u -> 1 boundary: the first curve dominates "
                    "everywhere below it, so the verdict reads as full-domain dominance")
    return DominanceReport(order="FOSD", direction=direction, domain_lower=z0,
                           u_star=u_star, strictness_witness=None,
                           evidence={"u_grid": us, "quantile_diff": d},
                           notes=boundary)


# ---------------------------------------------------------------------------
# CDF-based checks
# ---------------------------------------------------------------------------

def _truncate_domain(F1, F2, domain: tuple[float, float],
                     tail: float = 1e-10) -> tuple[float, float]:
    """Shrink an infinite or very wide domain to where the CDFs leave {0, 1}."""
    lo, hi = float(domain[0]), float(domain[1])

    def both_small(z):
        return max(float(F1(z)), float(F2(z))) < tail

    def both_large(z):
        return min(float(F1(z)), float(F2(z))) > 1.0 - tail

    if not math.isfinite(lo):
        lo = -1.0
        while not both_small(lo) and lo > -1e12:
            lo *= 4.0
    if not math.isfinite(hi):
        hi = 1.0
        while not both_large(hi) and hi < 1e12:
            hi *= 4.0
    return lo, hi


def fosd_check(F1, F2, domain: tuple[float, float], grid_size: int = 512,
               tol: float = TOL) -> DominanceReport:
    """First-order check: does one CDF sit below the other on the domain?

    F2 - F1 >= -tol everywhere with one point above tol means the first
    process dominates; the swapped inequality means the second does.  The
    reported domain_lower is the largest grid point, below the first strict
    separation, at which the two CDFs still agree.
    """
    if grid_size < 64:
        raise ParameterError("grid_size must be at least 64")
    lo, hi = _truncate_domain(F1, F2, domain)
    zs = np.linspace(lo, hi, grid_size)
    f1 = np.asarray(F1(zs), dtype=float)
    f2 = np.asarray(F2(zs), dtype=float)
    diff = f2 - f1

    def verdict(d: np.ndarray, direction: int) -> Optional[DominanceReport]:
        if np.min(d) < -tol or np.max(d) <= tol:
            return None
        witness = zs[int(np.argmax(d))]
        # no interior crossing: the dominance domain starts at the requested edge
        return DominanceReport(order="FOSD", direction=direction, domain_lower=float(lo),
                               strictness_witness=float(witness),
                               evidence={"z": zs, "cdf_diff": diff},
                               truncation=(lo, hi))
    rep = verdict(diff, 1) or verdict(-diff, -1)
    if rep is not None:
        return rep
    return DominanceReport(order=None, direction=0, domain_lower=lo,
                           evidence={"z": zs, "cdf_diff": diff}, truncation=(lo, hi),
                           notes="CDFs cross or coincide: no first-order verdict")


def sosd_check(F1, F2, domain: tuple[float, float], grid_size: int = 1024,
               tol: float = TOL) -> DominanceReport:
    """Second-order check via the running integral of the CDF difference.

    The integral of (F2 - F1) from the domain's lower edge must stay above
    -tol with a strict positive witness (first process dominates), or the
    sign-swapped statement for the second.  When the difference has not
    decayed at the truncation edge the verdict is flagged inconclusive.
    """
    if grid_size < 64:
        raise ParameterError("grid_size must be at least 64")
    lo, hi = _truncate_domain(F1, F2, domain)
    zs = np.linspace(lo, hi, grid_size)
    f1 = np.asarray(F1(zs), dtype=float)
    f2 = np.asarray(F2(zs), dtype=float)
    diff = f2 - f1
    cum = integrate.cumulative_trapezoid(diff, zs, initial=0.0)
    scale = max(1.0, hi - lo)
    tail_live = abs(diff[-1]) > 1e-6

    def verdict(c: np.ndarray, direction: int) -> Optional[DominanceReport]:
        if np.min(c) < -tol * scale or np.max(c) <= tol:
            return None
        witness = zs[int(np.argmax(c))]
        return DominanceReport(order="SOSD", direction=direction, domain_lower=lo,
                               strictness_witness=float(witness),
                               evidence={"z": zs, "cdf_diff": diff, "cum_integral": cum},
                               truncation=(lo, hi),
                               inconclusive=tail_live,
                               notes="CDF difference still materially nonzero at the "
                                     "truncation bound" if tail_live else "")
    rep = verdict(cum, 1) or verdict(-cum, -1)
    if rep is not None:
        return rep
    return DominanceReport(order=None, direction=0, domain_lower=lo,
                           evidence={"z": zs, "cdf_diff": diff, "cum_integral": cum},
                           truncation=(lo, hi), inconclusive=tail_live,
                           notes="running integral changes sign: no second-order verdict")


# ---------------------------------------------------------------------------
# sufficient conditions for second-order dominance of composite maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SufficientConditionsResult:
    z: np.ndarray
    cond_i: np.ndarray
    cond_ii: np.ndarray
    cond_iii: np.ndarray
    indeterminate: np.ndarray
    sufficient: bool

    def any_condition(self) -> np.ndarray:
        return self.cond_i | self.cond_ii | self.cond_iii


def _dz_quantile_of_cdf(cmap: tr.CompositeMap, t: float, z: np.ndarray,
                        dist: tr.DistributionSpec) -> tuple[np.ndarray, np.ndarray]:
    """d/dz of Q_dist(t, F_quantile(z)) by the chain rule, plus F_quantile(z)."""
    u = np.asarray(cmap.quantile.cdf(t, z), dtype=float)
    fz = np.asarray(cmap.quantile.pdf(t, z), dtype=float)
    y = np.asarray(dist.quantile(t, np.clip(u, 1e-300, 1 - 1e-16)), dtype=float)
    fd = np.asarray(dist.pdf(t, y), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        deriv = fz / fd
    return deriv, u


def sosd_sufficient_conditions(map1: tr.CompositeMap, map2: tr.CompositeMap, t: float,
                               z_grid: Sequence[float],
                               base1=None, base2=None,
                               tol: float = TOL) -> SufficientConditionsResult:
    """Evaluate the derivative/ratio conditions that force second-order dominance.

    At each z the three alternatives are, writing D_i(z) for the derivative
    d/dz Q_i(t, F_{zeta_i}(z)) of the i-th inverse composite:

      (i)   D_2(z) <= 1 <= D_1(z);
      (ii)  both derivatives >= 1 and F_2(z)/F_1(z) <= (D_1 - 1)/(D_2 - 1);
      (iii) both derivatives <= 1 and F_2(z)/F_1(z) >= (1 - D_1)/(1 - D_2).

    The F_i are the processes' marginal CDFs when base drivers are supplied
    (general form), else the stationary family CDFs F_{zeta_i} (the
    equal-in-law variant).  Points where a needed density vanishes are
    flagged indeterminate rather than fatal.  These conditions are sufficient,
    not necessary: their failure does not refute dominance.
    """
    from . import measures

    z = np.asarray(z_grid, dtype=float)
    dist1 = map1.dist_for(base1) if base1 is not None else map1.dist
    dist2 = map2.dist_for(base2) if base2 is not None else map2.dist
    if dist1 is None or dist2 is None:
        raise ParameterError("both maps need a distribution spec (or pass base drivers)")
    d1, u1 = _dz_quantile_of_cdf(map1, t, z, dist1)
    d2, u2 = _dz_quantile_of_cdf(map2, t, z, dist2)
    if base1 is not None and base2 is not None:
        F1 = measures.distorted_cdf(measures.DistortedLaw(map1, base1), t, z)
        F2 = measures.distorted_cdf(measures.DistortedLaw(map2, base2), t, z)
    else:
        F1, F2 = u1, u2

    indeterminate = ~np.isfinite(d1) | ~np.isfinite(d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(F1 > 0, F2 / np.where(F1 > 0, F1, 1.0), np.inf)
        cond_i = (d2 <= 1.0 + tol) & (d1 >= 1.0 - tol)
        rhs_ii = (d1 - 1.0) / np.where(np.abs(d2 - 1.0) > tol, d2 - 1.0, np.nan)
        cond_ii = (d1 >= 1.0 - tol) & (d2 >= 1.0 - tol) & (ratio <= rhs_ii + tol)
        rhs_iii = (1.0 - d1) / np.where(np.abs(1.0 - d2) > tol, 1.0 - d2, np.nan)
        cond_iii = (d1 <= 1.0 + tol) & (d2 <= 1.0 + tol) & (ratio >= rhs_iii - tol)
    cond_i = np.where(indeterminate, False, cond_i)
    cond_ii = np.where(indeterminate, False, np.nan_to_num(cond_ii))
    cond_iii = np.where(indeterminate, False, np.nan_to_num(cond_iii))
    usable = ~indeterminate
    some = cond_i | cond_ii | cond_iii
    sufficient = bool(np.all(some[usable])) and bool(np.any(usable))
    return SufficientConditionsResult(z=z, cond_i=cond_i.astype(bool),
                                      cond_ii=cond_ii.astype(bool),
                                      cond_iii=cond_iii.astype(bool),
                                      indeterminate=indeterminate,
                                      sufficient=sufficient)


# ---------------------------------------------------------------------------
# state-dependent-skew example machinery
# ---------------------------------------------------------------------------

def state_dependent_tukey_g_cdf(g_below: float, g_above: float) -> Callable:
    """CDF of a canonical Tukey-g process whose skew switches sign regimes at 0.

    Uses g_below on z <= 0 and g_above on z > 0; the two pieces agree at the
    median so the CDF is continuous.
    """
    for name, g in (("g_below", g_below), ("g_above", g_above)):
        if not g > 0:
            raise ParameterError(f"{name} must be positive")

    def cdf(z):
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        neg = z <= 0.0
        ga = np.where(neg, g_below, g_above)
        arg = ga * z + 1.0
        ok = arg > 0
        out[~ok] = 0.0
        out[ok] = special.ndtr(np.log(arg[ok]) / ga[ok])
        return out

    return cdf


def split_g_sosd_integrals(g1_below: float, g1_above: float, g2: float,
                           integrand_floor: float = 1e-12) -> tuple[float, float]:
    """The two error-function integrals comparing a state-dependent-skew
    process with a constant-skew one.

    The left integral runs over (-1/g2, 0], the right over (0, infinity)
    truncated where the integrand falls below ``integrand_floor``.  Second-
    order dominance of the state-dependent process holds iff left >= right.

    Convention: where the state-dependent process has no support (below
    -1/g1_below) its distribution function is zero and the integrand falls
    back to the plain distribution-function difference; on the common support
    the difference of error functions (twice the CDF difference) is used.
    """
    for name, g in (("g1_below", g1_below), ("g1_above", g1_above), ("g2", g2)):
        if not g > 0:
            raise ParameterError(f"{name} must be positive")

    sqrt2 = math.sqrt(2.0)

    def erf_term(x: float, g: float) -> float:
        return special.erf(math.log(g * x + 1.0) / (g * sqrt2))

    edge = -1.0 / g1_below
    lo = -1.0 / g2

    def left_integrand(x: float) -> float:
        e2 = erf_term(x, g2)
        if g1_below * x + 1.0 > 0.0:
            return e2 - erf_term(x, g1_below)
        return 0.5 * (1.0 + e2)  # F2 - F1 with F1 = 0 below the support edge

    def right_integrand(x: float) -> float:
        return erf_term(x, g1_above) - erf_term(x, g2)

    # truncate the upper integral where both error functions are within the
    # floor of 1
    hi = 1.0
    while 1.0 - erf_term(hi, max(g1_above, g2)) > integrand_floor and hi < 1e9:
        hi *= 2.0

    points = [edge] if lo < edge < 0.0 else None
    with np.errstate(all="ignore"):
        left, le = integrate.quad(left_integrand, lo, 0.0, limit=400, points=points)
        right, re_ = integrate.quad(right_integrand, 0.0, hi, limit=400)
    for err, what in ((le, "left"), (re_, "right")):
        if err > 1e-6:
            raise NumericError(f"{what} integral did not reach tolerance", achieved=err)
    return float(left), float(right)


# ---------------------------------------------------------------------------
# Kendall ordering
# ---------------------------------------------------------------------------

def kendall_order_check(K1, K2, grid_size: int = 512, tol: float = TOL) -> DominanceReport:
    """Kendall stochastic order: the first copula dominates iff K1 <= K2 on (0, 1).

    Strict inequality at one grid point is required, mirroring the
    first-order check but on Kendall distribution functions.
    """
    vs = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    k1 = np.asarray([float(K1(v)) for v in vs])
    k2 = np.asarray([float(K2(v)) for v in vs])
    diff = k2 - k1

    def verdict(d: np.ndarray, direction: int) -> Optional[DominanceReport]:
        if np.min(d) < -tol or np.max(d) <= tol:
            return None
        witness = vs[int(np.argmax(d))]
        return DominanceReport(order="Kendall", direction=direction, domain_lower=0.0,
                               strictness_witness=float(witness),
                               evidence={"v": vs, "kendall_diff": diff})
    rep = verdict(diff, 1) or verdict(-diff, -1)
    if rep is not None:
        return rep
    return DominanceReport(order=None, direction=0, domain_lower=0.0,
                           evidence={"v": vs, "kendall_diff": diff},
                           notes="Kendall functions cross or coincide")
