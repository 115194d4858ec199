"""First- and second-order stochastic dominance between quantile processes.

Dominance is decided on evaluable distribution functions: pointwise CDF
ordering for first order, ordering of the cumulative CDF-difference integral
for second order, each with a strict witness (Shaked & Shanthikumar,
*Stochastic Orders*, 2007, 1.A and 4.A).  An infinite domain is first cut to
where both CDFs leave {0, 1}; the grid on it is uniform in asinh(z), so a
domain widened to millions by a heavy tail keeps its points dense where the
CDFs cross.  Quantile crossing levels u* delimit the dominance domain for
composite-map pairs sharing a driver law; the crossing scan reads both laws'
quantiles at normal scores x through ``Law.from_score`` and forms only the
level u* = ndtr(x*) it reports.  The sufficient conditions read
their derivatives and CDFs off ``transforms.preimage``, the inverse composite
w = Q_dist(t, F_quantile(t, z)); this module does not import ``measures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from . import transforms as tr
from ._util import _GL_R, _GL_W, _SQRT2PI
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

#: the tolerance of every check: "strict at one point" means exceeding this
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

#: the crossing scan's reach in x: u* = ndtr(x*) must stay a level resolvable from {0, 1}
_X_RESOLVABLE = 8.2
#: points of the crossing scan, uniform in x on [-_X_RESOLVABLE, _X_RESOLVABLE]
_N_SCAN = 4096


def _crossing_roots(q1: tr.Law, q2: tr.Law, t: float) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Scores x where Q1 - Q2 changes sign, the scan's levels ndtr(x) and Q1 - Q2 on them."""
    from scipy import optimize
    xs = np.linspace(-_X_RESOLVABLE, _X_RESOLVABLE, _N_SCAN)

    def diff(x):
        return q1.from_score(t, x) - q2.from_score(t, x)

    with np.errstate(invalid="ignore", over="ignore"):
        d = diff(xs)
    d = np.where(np.isfinite(d), d, 0.0)
    s = np.sign(d)
    roots: list[float] = []
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    for i in flips:
        try:
            r = optimize.brentq(diff, xs[i], xs[i + 1], xtol=1e-13, maxiter=200)
        except (ValueError, RuntimeError) as exc:
            raise NumericError(f"crossing root-finding failed near x={xs[i]:.3f}: {exc}")
        roots.append(float(r))
    # exact zeros on the scan grid count as touch points
    for i in np.nonzero(s == 0)[0]:
        if 0 < i < _N_SCAN - 1 and s[i - 1] * s[i + 1] < 0:
            roots.append(float(xs[i]))
    roots.sort()
    return roots, special.ndtr(xs), d


def crossing_u_star(q1: tr.Law, q2: tr.Law, t: float = 1.0) -> Optional[float]:
    """Largest quantile level where the two quantile curves cross.

    Returns the largest u* in [0, 1) with Q1(u*) = Q2(u*) such that one curve
    stays above the other on (u*, 1).  Returns 0.0 when Q1 >= Q2 throughout
    (equality at most in the limit u -> 0), and None when Q2 >= Q1 throughout
    with no interior crossing.

    The scan runs on a grid uniform in x = ndtri(u) so crossings pushed far
    into either tail (u within 1e-9 of 0 or 1) are still resolved.
    """
    return crossing_report(q1, q2, t).u_star


def crossing_report(q1: tr.Law, q2: tr.Law, t: float = 1.0) -> DominanceReport:
    """Crossing level plus dominance direction and domain bound for the pair.

    The reported domain lower bound is z0 = Q1(u*) = Q2(u*); the dominating
    side on (u*, 1) is read off the sign of Q1 - Q2 beyond the crossing.
    """
    q1.validate(t)
    q2.validate(t)
    roots, us, d = _crossing_roots(q1, q2, t)
    evidence = {"u_grid": us, "quantile_diff": d}
    if roots:
        x_star = roots[-1]
        u_star = float(special.ndtr(x_star))
        z0 = float(q1.from_score(t, x_star))
        above = x_star + max(1e-6, 1e-6 * abs(x_star))
        sign_after = float(q1.from_score(t, above) - q2.from_score(t, above))
        boundary = ""
        if u_star > 1.0 - 1e-6:
            boundary = ("crossing sits at the u -> 1 boundary: the first curve dominates "
                        "everywhere below it, so the verdict reads as full-domain dominance")
        return DominanceReport(order="FOSD", direction=1 if sign_after > 0 else -1,
                               domain_lower=z0, u_star=u_star, evidence=evidence,
                               notes=boundary)
    if np.min(d) >= -TOL and np.max(d) > TOL:
        # first curve above throughout: the crossing sits at u -> 0
        return DominanceReport(order="FOSD", direction=1, u_star=0.0, evidence=evidence,
                               domain_lower=float(min(q1.support(t)[0], q2.support(t)[0])))
    # second curve above throughout, or identical curves: no crossing either way
    direction = -1 if np.max(d) <= TOL and np.min(d) < -TOL else 0
    return DominanceReport(order="FOSD" if direction else None, direction=direction,
                           domain_lower=float(q2.support(t)[0]), evidence=evidence,
                           notes="no interior crossing; second curve dominates"
                           if direction else "curves indistinguishable at tolerance")


# ---------------------------------------------------------------------------
# CDF-based checks
# ---------------------------------------------------------------------------

def _verdict(order: str, d: np.ndarray, at: np.ndarray, none_note: str,
             notes: str = "", **fields) -> DominanceReport:
    """The strict-witness rule shared by every check.

    Direction +1 when d >= -TOL everywhere and d > TOL somewhere, -1 for the
    mirror case, otherwise a report with no verdict.  The witness is the point
    of ``at`` where the dominating side leads most.
    """
    for direction in (1, -1):
        signed = direction * d
        if np.min(signed) >= -TOL and np.max(signed) > TOL:
            return DominanceReport(order=order, direction=direction, notes=notes,
                                   strictness_witness=float(at[int(np.argmax(signed))]),
                                   **fields)
    return DominanceReport(order=None, direction=0, notes=none_note, **fields)


#: the edges an infinite domain bound may be cut at: +-1, 4, 16, ..., 4**20 (about 1.1e12)
_EDGES = 4.0 ** np.arange(21)


def _truncate_domain(F1, F2, domain: tuple[float, float]) -> tuple[float, float]:
    """Cut each infinite domain bound at the first edge where both CDFs are
    within 1e-10 of 0 (lower bound) or 1 (upper bound), else at the last."""
    lo, hi = float(domain[0]), float(domain[1])

    def first(ok: np.ndarray) -> float:
        ok[-1] = True
        return float(_EDGES[int(np.argmax(ok))])

    if not math.isfinite(lo):
        lo = -first(np.maximum(F1(-_EDGES), F2(-_EDGES)) < 1e-10)
    if not math.isfinite(hi):
        hi = first(np.minimum(F1(_EDGES), F2(_EDGES)) > 1.0 - 1e-10)
    return lo, hi


def _cdf_grid(F1, F2, domain: tuple[float, float],
              grid_size: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Truncated domain, its asinh-spaced grid and F2 - F1 on the grid.

    asinh spacing is linear near 0 and logarithmic in |z|, so a domain
    widened to cover heavy tails still resolves crossings at moderate z.
    """
    if grid_size < 64:
        raise ParameterError("grid_size must be at least 64")
    lo, hi = _truncate_domain(F1, F2, domain)
    zs = np.sinh(np.linspace(np.arcsinh(lo), np.arcsinh(hi), grid_size))
    f1 = np.asarray(F1(zs), dtype=float)
    f2 = np.asarray(F2(zs), dtype=float)
    return lo, hi, zs, f2 - f1


def fosd_check(F1, F2, domain: tuple[float, float], grid_size: int = 512) -> DominanceReport:
    """First-order check: does one CDF sit below the other on the domain?

    F2 - F1 >= -TOL everywhere with one point above TOL means the first
    process dominates; the swapped inequality means the second does.  The
    reported domain_lower is the lower edge of the (truncated) domain.
    """
    lo, hi, zs, diff = _cdf_grid(F1, F2, domain, grid_size)
    return _verdict("FOSD", diff, zs, "CDFs cross or coincide: no first-order verdict",
                    domain_lower=lo, evidence={"z": zs, "cdf_diff": diff},
                    truncation=(lo, hi))


def sosd_check(F1, F2, domain: tuple[float, float], grid_size: int = 1024) -> DominanceReport:
    """Second-order check via the running integral of the CDF difference.

    The integral of (F2 - F1) from the domain's lower edge must stay above
    -TOL with a strict positive witness (first process dominates), or the
    sign-swapped statement for the second.  When the difference has not
    decayed at the truncation edge the verdict is flagged inconclusive.
    """
    lo, hi, zs, diff = _cdf_grid(F1, F2, domain, grid_size)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(zs) * (diff[1:] + diff[:-1]) / 2.0)])
    tail_live = bool(abs(diff[-1]) > 1e-6)
    return _verdict("SOSD", cum, zs, "running integral changes sign: no second-order verdict",
                    notes="CDF difference still materially nonzero at the truncation bound"
                    if tail_live else "",
                    domain_lower=lo, evidence={"z": zs, "cdf_diff": diff, "cum_integral": cum},
                    truncation=(lo, hi), inconclusive=tail_live)


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


def sosd_sufficient_conditions(map1: tr.CompositeMap, map2: tr.CompositeMap, t: float,
                               z_grid: Sequence[float],
                               base1=None, base2=None) -> SufficientConditionsResult:
    """Evaluate the derivative/ratio conditions that force second-order dominance.

    At each z the three alternatives are, writing D_i(z) for the derivative
    d/dz Q_i(t, F_{zeta_i}(z)) of the i-th inverse composite:

      (i)   D_2(z) <= 1 <= D_1(z);
      (ii)  both derivatives >= 1 and F_2(z)/F_1(z) <= (D_1 - 1)/(D_2 - 1);
      (iii) both derivatives <= 1 and F_2(z)/F_1(z) >= (1 - D_1)/(1 - D_2).

    At the preimage w_i of z, D_i = f_zeta_i(z) / f_dist_i(w_i) and the F_i are
    the marginal CDFs F_Y_i(t, w_i) when base drivers are supplied (general
    form), else the stationary family CDFs F_{zeta_i} (equal-in-law variant).
    Points off either family's range, or where a density vanishes, are flagged
    indeterminate rather than fatal.  These conditions are sufficient, not
    necessary: their failure does not refute dominance.
    """
    z = np.asarray(z_grid, dtype=float)
    general = base1 is not None and base2 is not None
    D, F = [], []
    for cmap, base in ((map1, base1), (map2, base2)):
        dist = cmap.dist_for(base) if base is not None else cmap.dist
        if dist is None:
            raise ParameterError("both maps need a distribution spec (or pass base drivers)")
        x, w, fz, fd, ok = tr.preimage(cmap.quantile, dist, t, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            D.append(np.where(ok, fz / fd, np.nan))
        F.append(np.where(ok, base.cdf(t, w), 0.0) if general else special.ndtr(x))
    (d1, d2), (F1, F2) = D, F

    usable = np.isfinite(d1) & np.isfinite(d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(F1 > 0, F2 / np.where(F1 > 0, F1, 1.0), np.inf)
        rhs_ii = (d1 - 1.0) / np.where(np.abs(d2 - 1.0) > TOL, d2 - 1.0, np.nan)
        rhs_iii = (1.0 - d1) / np.where(np.abs(1.0 - d2) > TOL, 1.0 - d2, np.nan)
    cond_i = usable & (d2 <= 1.0 + TOL) & (d1 >= 1.0 - TOL)
    cond_ii = usable & (d1 >= 1.0 - TOL) & (d2 >= 1.0 - TOL) & (ratio <= rhs_ii + TOL)
    cond_iii = usable & (d1 <= 1.0 + TOL) & (d2 <= 1.0 + TOL) & (ratio >= rhs_iii - TOL)
    some = cond_i | cond_ii | cond_iii
    return SufficientConditionsResult(z=z, cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii,
                                      indeterminate=~usable,
                                      sufficient=bool(np.all(some[usable]) and np.any(usable)))


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


def _tukey_g_cdf_integral(g: float, x: float) -> float:
    """A_g(x), the integral of the Tukey-g CDF Phi(log(1 + g s) / g) over s in (-1/g, x]:
    x Phi(w) + [Phi(w) - Phi(w - g)] / g - expm1(g^2/2) / g Phi(w - g) with
    w = log(1 + g x) / g, and 0 below the support.  The bracket is the mean of phi over
    [w - g, w]; where g (1 + |w|) < 1 the difference would cancel, and the Gauss-Legendre
    rule takes it instead.  Past g = 37, where e^{g^2/2} nears overflow, the last term is
    summed in logs; there expm1(g^2/2) equals e^{g^2/2} to double precision."""
    if not g * x + 1.0 > 0.0:
        return 0.0
    w = math.log1p(g * x) / g
    if g * (1.0 + abs(w)) < 1.0:
        bracket = float(np.exp(-0.5 * (w - g + g * _GL_R) ** 2) @ _GL_W) / _SQRT2PI
    else:
        bracket = (special.ndtr(w) - special.ndtr(w - g)) / g
    tail = (math.expm1(0.5 * g * g) * special.ndtr(w - g) if g < 37.0
            else math.exp(0.5 * g * g + special.log_ndtr(w - g)))
    return float(x * special.ndtr(w) + bracket - tail / g)


def split_g_sosd_integrals(g1_below: float, g1_above: float, g2: float) -> tuple[float, float]:
    """The two error-function integrals comparing a state-dependent-skew
    process with a constant-skew one, in closed form.

    The left integral runs over (-1/g2, 0], the right over (0, infinity).
    Second-order dominance of the state-dependent process holds iff left >= right.

    Convention: where the state-dependent process has no support (below
    -1/g1_below) its distribution function is zero and the integrand falls
    back to the plain distribution-function difference; on the common support
    the difference of error functions (twice the CDF difference) is used.
    With A_g from ``_tukey_g_cdf_integral`` and c = max(-1/g1_below, -1/g2),
    left = A_g2(c) + 2 [A_g2(0) - A_g2(c) - A_g1b(0) + A_g1b(c)] and
    right = 2 [T(g2) - T(g1_above)], where T(g) = expm1(g^2/2) / g + A_g(0), the
    Tukey-g mean plus A_g(0), is the integral of 1 - F_g over (0, infinity).
    """
    for name, g in (("g1_below", g1_below), ("g1_above", g1_above), ("g2", g2)):
        if not g > 0:
            raise ParameterError(f"{name} must be positive")
    c, a = max(-1.0 / g1_below, -1.0 / g2), _tukey_g_cdf_integral
    left = a(g2, c) + 2.0 * (a(g2, 0.0) - a(g2, c) - a(g1_below, 0.0) + a(g1_below, c))
    with np.errstate(over="ignore", invalid="ignore"):
        t2, t1 = (np.expm1(0.5 * g * g) / g + _tukey_g_cdf_integral(g, 0.0) for g in (g2, g1_above))
        right = float(2.0 * (t2 - t1))
    if not math.isfinite(right):
        raise NumericError("right integral: a Tukey-g mean exceeds the floating-point range",
                           achieved=math.inf)
    return left, right


# ---------------------------------------------------------------------------
# Kendall ordering
# ---------------------------------------------------------------------------

def kendall_order_check(K1, K2) -> DominanceReport:
    """Kendall stochastic order: the first copula dominates iff K1 <= K2 on (0, 1).

    Strict inequality at one of 512 grid points is required, mirroring the
    first-order check but on Kendall distribution functions.  K1 and K2 take
    the array of grid points, as ``copulas.kendall_function`` does.
    """
    vs = np.linspace(0.0, 1.0, 514)[1:-1]
    diff = np.asarray(K2(vs), dtype=float) - np.asarray(K1(vs), dtype=float)
    return _verdict("Kendall", diff, vs, "Kendall functions cross or coincide",
                    domain_lower=0.0, evidence={"v": vs, "kendall_diff": diff})
