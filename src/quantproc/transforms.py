"""Laws on the real line, and the composite map.

The composite map sends a driver value y to Q(F(t, y)): a distribution
function F (the driver's true law, a deliberately different law, or a law on
a standardized pivot) followed by the quantile function Q of the law an agent
perceives.  Both halves are one type, a ``Law`` (defined in ``_util`` and
re-exported here), read in opposite directions; a driver is itself the law of
its marginal, so its true law is the driver.
Applied path-wise the map turns a driver ensemble into a quantile-process
ensemble.  Both directions run in the normal score x = ndtri(u): ``compose``
maps F's ``score`` through Q's ``from_score``, and ``preimage`` maps Q's score
back through F's ``from_score``.  A normal law gives its (m, sd) once, by
``normal_at``, and all its maps follow, affine in x, so no probability is
formed or clamped.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from . import drivers as drv
from ._util import (Law, TimeFn, TimeParam, _norm_score, _poisson_cdf, _poisson_pmf, _poisson_ppf,
                    _solve_increasing, as_time_fn)
from .errors import CapabilityError, NumericError, ParameterError

__all__ = [
    "Law",
    "TukeyG",
    "TukeyGH",
    "PoissonQuantile",
    "TableQuantile",
    "GaussianLaw",
    "ShiftedDriverLaw",
    "PivotLaw",
    "EmpiricalLaw",
    "MapMode",
    "CompositeMap",
    "true_law_map",
    "canonical_map",
    "quantile_eval",
    "quantile_cdf",
    "preimage",
    "apply_composite",
    "pivot_gaussian_tukey_g_params",
    "TukeyGMoments",
    "tukey_g_gaussian_moments",
]

# Newton start table of TukeyGH.x_from_z: |ndtri(u)| < 39 for representable u in (0, 1)
_GH_NODES = np.linspace(-39.0, 39.0, 1025)
# below this the skew branch is numerically identical to its g -> 0 limit and
# subnormal g would underflow inside exp/expm1
_G_TINY = 1e-150


# ---------------------------------------------------------------------------
# laws read as quantile families
# ---------------------------------------------------------------------------

def _gh_core(x: np.ndarray, g: float, h: float) -> np.ndarray:
    """(exp(gx)-1)/g * exp(h x^2 / 2), with the exact g -> 0 limit x*exp(hx^2/2)."""
    x = np.asarray(x, dtype=float)
    if abs(g) < _G_TINY:
        base = x
    else:
        base = np.expm1(g * x) / g
    if h == 0.0:
        return base
    return base * np.exp(0.5 * h * x * x)


def _gh_core_slope(x: np.ndarray, g: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(_gh_core, its d/dx) from one exp(h x^2 / 2) and one expm1(g x); slope > 0 for h >= 0."""
    x = np.asarray(x, dtype=float)
    if abs(g) < _G_TINY:
        if h == 0.0:
            return x, np.ones_like(x)
        e = np.exp(0.5 * h * x * x)
        return x * e, (1.0 + h * x * x) * e
    m = np.expm1(g * x)
    egx = np.exp(g * x)
    if h == 0.0:
        return m / g, egx
    e = np.exp(0.5 * h * x * x)
    return m / g * e, e * (egx + h * x * m / g)


def _gh_overflow_x(x: float, g: float, h: float) -> float:
    """The first of x, 2x, 4x, ... at which core overflows, for h > 0; past 2^511, where
    x^2 nears overflow, h is too small to matter and the doubling stops."""
    with np.errstate(over="ignore"):
        while abs(x) < 2.0 ** 511 and np.isfinite(_gh_core(x, g, h)):
            x *= 2.0
    return x


@dataclass(frozen=True)
class TukeyGH(Law):
    """Tukey g-and-h quantile family A + (B/g)(e^{gX}-1) e^{hX^2/2}, X = ndtri(u).

    g controls skewness, h tail weight; h >= 0 keeps the map monotone and
    g = 0 is handled by its analytic limit B X e^{hX^2/2}.  Parameters may be
    constants or deterministic functions of time.
    """

    a: TimeParam = 0.0
    b: TimeParam = 1.0
    g: TimeParam = 0.0
    h: TimeParam = 0.0

    family = "TukeyGH"

    def params_at(self, t: float) -> tuple[float, float, float, float]:
        return (as_time_fn(self.a)(t), as_time_fn(self.b)(t),
                as_time_fn(self.g)(t), as_time_fn(self.h)(t))

    def validate(self, t: float = 1.0) -> None:
        _, b, _, h = self.params_at(t)
        if not b > 0:
            raise ParameterError(f"TukeyGH requires B > 0, got {b}")
        if h < 0:
            raise ParameterError(f"TukeyGH requires h >= 0, got {h}")

    def from_score(self, t, x):
        """A + B core(x); past the float range, e.g. exp(h x^2 / 2) at large |x|, +-inf."""
        a, b, g, h = self.params_at(t)
        with np.errstate(over="ignore", invalid="ignore"):
            return a + b * _gh_core(x, g, h)

    def support(self, t):
        a, b, g, h = self.params_at(t)
        if h > 0 or abs(g) < _G_TINY:
            return -np.inf, np.inf
        if g > 0:
            return a - b / g, np.inf
        return -np.inf, a - b / g

    def x_from_z(self, t: float, z) -> np.ndarray:
        """Invert the core map z = A + B*core(X) for X; +-inf outside the range."""
        a, b, g, h = self.params_at(t)
        zc = (np.asarray(z, dtype=float) - a) / b
        if h == 0.0:
            if abs(g) < _G_TINY:
                return zc
            arg = g * zc
            out = np.where(np.isnan(zc), np.nan, -np.inf if g > 0 else np.inf)
            ok = arg > -1.0
            out[ok] = np.log1p(arg[ok]) / g  # log1p stays exact as g -> 0
            return out
        # h > 0: strictly increasing onto all of R.  Newton runs on
        # s(x) = asinh(core(x)), which grows only quadratically in x, from the
        # linear interpolant of s on a node table (the bracket midpoint where a
        # node's core overflows).  The table's ends reach out to where core
        # overflows.  A NaN or infinite z is solved as z = A and comes back as itself.
        shape, zc = zc.shape, zc.ravel()
        off = ~np.isfinite(zc)
        target_s = np.arcsinh(np.where(off, 0.0, zc))
        nodes = np.concatenate([[_gh_overflow_x(_GH_NODES[0], g, h)], _GH_NODES,
                                [_gh_overflow_x(_GH_NODES[-1], g, h)]])
        with np.errstate(over="ignore", invalid="ignore"):
            node_s = np.arcsinh(_gh_core(nodes, g, h))
            k = np.clip(np.searchsorted(node_s, target_s), 1, nodes.size - 1)
            lo, hi, s0, s1 = nodes[k - 1], nodes[k], node_s[k - 1], node_s[k]
            w = (target_s - s0) / (s1 - s0)
            inside = (w >= 0.0) & (w <= 1.0) & np.isfinite(s1 - s0)
            x = np.where(inside, lo + w * (hi - lo), 0.5 * (lo + hi))
        del k, s0, s1, w, inside  # freed before the sweeps' own temporaries, so peak memory holds

        def resid_slope(x, idx):
            core, dcore = _gh_core_slope(x, g, h)
            dcore /= np.hypot(1.0, core)
            return np.subtract(np.arcsinh(core, out=core), target_s[idx], out=core), dcore

        x = _solve_increasing(resid_slope, lo, hi, x, 1.0, "g-and-h inversion")
        x[off] = zc[off]
        return x.reshape(shape)

    def score(self, t, z):
        return self.x_from_z(t, z)

    def pdf(self, t, z):
        return self.score_pdf(t, z)[1]

    def score_pdf(self, t, z):
        """x and phi(x) / (B core'(x)) from one solve x = x_from_z(t, z)."""
        _, b, g, h = self.params_at(t)
        x = self.x_from_z(t, z)
        dens = np.where(np.isnan(x), np.nan, 0.0)
        ok = np.isfinite(x)
        phi = np.exp(-0.5 * x[ok] ** 2) / math.sqrt(2.0 * math.pi)
        with np.errstate(over="ignore"):  # the slope overflows in the far tails, where phi is 0
            dens[ok] = phi / (b * _gh_core_slope(x[ok], g, h)[1])
        return x, dens


@dataclass(frozen=True)
class TukeyG(TukeyGH):
    """Pure Tukey-g family (h = 0); requires g != 0."""

    family = "TukeyG"

    def __init__(self, a: TimeParam = 0.0, b: TimeParam = 1.0, g: TimeParam = 0.5):
        TukeyGH.__init__(self, a=a, b=b, g=g, h=0.0)

    def validate(self, t: float = 1.0) -> None:
        TukeyGH.validate(self, t)
        g = as_time_fn(self.g)(t)
        if g == 0.0:
            raise ParameterError("TukeyG requires g != 0 (use TukeyGH for the g = 0 limit)")


@dataclass(frozen=True)
class PoissonQuantile(Law):
    """Quantile function of a Poisson count with mean rate * t.

    The discrete hook of the composite map: step outputs on the integers.
    Only the Poisson-pivot composite uses it; continuous families stay the
    default everywhere else.
    """

    rate: float = 1.0

    family = "PoissonQuantile"
    is_discrete = True
    level_native = True

    def validate(self, t: float = 1.0) -> None:
        if not self.rate > 0:
            raise ParameterError("Poisson quantile rate must be positive")

    def quantile(self, t, u):
        return _poisson_ppf(u, self.rate * t)

    def cdf(self, t, z):
        return _poisson_cdf(z, self.rate * t)

    def pmf(self, t, k):
        return _poisson_pmf(k, self.rate * t)

    def pdf(self, t, z):
        raise CapabilityError("the Poisson quantile family is discrete; use pmf")

    def support(self, t):
        return 0.0, np.inf


@dataclass(frozen=True)
class TableQuantile(Law):
    """Monotone piecewise-linear quantile map from a (u, z) table.

    Endpoints clamp: no tail behaviour is invented beyond the table.
    """

    u_knots: np.ndarray
    z_knots: np.ndarray

    family = "TableDriven"
    level_native = True

    def __post_init__(self):
        u = np.asarray(self.u_knots, dtype=float)
        z = np.asarray(self.z_knots, dtype=float)
        if u.shape != z.shape or u.ndim != 1 or u.size < 2:
            raise ParameterError("table must give two equal-length columns with >= 2 rows")
        if not (np.all(np.diff(u) > 0) and np.all(np.diff(z) > 0)):
            raise ParameterError("table must be strictly increasing in both coordinates")
        if u[0] < 0 or u[-1] > 1:
            raise ParameterError("table u-column must lie inside [0, 1]")
        object.__setattr__(self, "u_knots", u)
        object.__setattr__(self, "z_knots", z)

    def quantile(self, t, u):
        return np.interp(np.asarray(u, dtype=float), self.u_knots, self.z_knots)

    def cdf(self, t, z):
        return np.interp(np.asarray(z, dtype=float), self.z_knots, self.u_knots)

    def pdf(self, t, z):
        slopes = np.diff(self.z_knots) / np.diff(self.u_knots)
        return _segment_slope(z, self.z_knots, 1.0 / slopes)

    def support(self, t):
        return float(self.z_knots[0]), float(self.z_knots[-1])

    @classmethod
    def from_csv(cls, path: str) -> "TableQuantile":
        data = np.loadtxt(path, delimiter=",", skiprows=0, ndmin=2)
        return cls(u_knots=data[:, 0], z_knots=data[:, 1])


def _segment_slope(x, knots, slopes) -> np.ndarray:
    """slopes[i] on the segment [knots[i], knots[i+1]] holding x; 0 off the knots, NaN at NaN."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(knots, x) - 1, 0, slopes.size - 1)
    inside = (x >= knots[0]) & (x <= knots[-1])
    return np.where(inside, slopes[idx], np.where(np.isnan(x), np.nan, 0.0))


def quantile_eval(spec: Law, t: float, u):
    """Evaluate Q(t, u); u in [0, 1], endpoints map to the family's tails."""
    uv = np.asarray(u, dtype=float)
    if np.any((uv < 0) | (uv > 1)):
        raise ParameterError("quantile level must lie in [0, 1]")
    return spec.quantile(t, u)


def quantile_cdf(spec: Law, t: float, z):
    """Generalized inverse of the quantile family: returns u with Q(t, u) = z.

    Values outside the family's range clamp to 0 or 1.
    """
    return spec.cdf(t, z)


# ---------------------------------------------------------------------------
# laws read as distribution functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianLaw(Law):
    """Normal law with mean m(t) and variance v(t); as a quantile family,
    m(t) + sqrt(v(t)) * ndtri(u).

    ``GaussianLaw(m=0, v=lambda t: t)`` has the marginal law of standard
    Brownian motion; the canonical construction reads ``drivers.Brownian()`` itself.
    """

    m: TimeParam = 0.0
    v: TimeParam = 1.0

    family = "Gaussian"

    def params_at(self, t: float) -> tuple[float, float]:
        return as_time_fn(self.m)(t), as_time_fn(self.v)(t)

    def normal_at(self, t):
        m, v = self.params_at(t)
        if not 0.0 < v < math.inf:
            raise ParameterError(f"Gaussian law requires 0 < v < inf, got v = {v} at t = {t}")
        return m, math.sqrt(v)


# names that perfbench reads, kept as aliases of the one law type and of the driver
QuantileSpec = DistributionSpec = Law
GaussianQuantile = GaussianLaw


def DriverLaw(driver: drv.Driver) -> drv.Driver:
    """The true marginal law of a driver: the driver itself."""
    return driver


@dataclass(frozen=True)
class ShiftedDriverLaw(Law):
    """A driver's law evaluated on shifted arguments, F(t, y) = F_Y(t, y - shift).

    With shift in [0, 1] this realizes a relativized distortion: larger shifts
    move probability mass upward and lower the composed quantile level of any
    given driver value.
    """

    driver: drv.Driver
    shift: float = 0.0

    family = "ShiftedDriverLaw"

    def validate(self, t: float = 1.0) -> None:
        if not 0.0 <= self.shift <= 1.0:
            raise ParameterError(f"shift must lie in [0, 1], got {self.shift}")

    def normal_at(self, t):
        normal = self.driver.normal_at(t)
        return None if normal is None else (normal[0] + self.shift, normal[1])

    def score(self, t, y):
        if self.driver.is_gaussian:
            return super().score(t, y)
        return self.driver.score(t, np.asarray(y, dtype=float) - self.shift)

    def cdf(self, t, y):
        return self.driver.cdf(t, np.asarray(y, dtype=float) - self.shift)

    def pdf(self, t, y):
        return self.driver.pdf(t, np.asarray(y, dtype=float) - self.shift)

    def quantile(self, t, u):
        return self.driver.quantile(t, u) + self.shift

    def is_true_law_of(self, driver):
        return self.shift == 0.0 and self.driver == driver


@dataclass(frozen=True)
class PivotLaw(Law):
    """A law on the standardized pivot of a Gaussian-marginal driver.

    F(t, y) = reference.cdf(t, (y - m_t)/sd_t) with (m_t, sd_t) the driver's
    marginal mean and standard deviation; the default N(0, 1) reference makes
    this the driver's own marginal law.
    """

    driver: drv.Driver
    reference: Law = GaussianLaw(0.0, 1.0)

    family = "Pivot"

    def __post_init__(self):
        if not self.driver.is_gaussian:
            raise CapabilityError(f"pivot standardization is implemented for Gaussian-marginal "
                                  f"drivers, not {self.driver.kind}")

    def validate(self, t: float = 1.0) -> None:
        self.reference.validate(t)

    def cdf(self, t, y):
        return self.reference.cdf(t, _norm_score(y, *self.driver.normal_at(t)))

    def score(self, t, y):
        return self.reference.score(t, _norm_score(y, *self.driver.normal_at(t)))

    def pdf(self, t, y):
        m, sd = self.driver.normal_at(t)
        return self.reference.pdf(t, _norm_score(y, m, sd)) / sd

    def quantile(self, t, u):
        m, sd = self.driver.normal_at(t)
        return m + sd * self.reference.quantile(t, u)

    def from_score(self, t, x):
        m, sd = self.driver.normal_at(t)
        return m + sd * self.reference.from_score(t, x)


@dataclass(frozen=True)
class EmpiricalLaw(Law):
    """Continuous (piecewise-linear) CDF interpolating a sample."""

    samples: np.ndarray

    family = "Empirical"
    level_native = True

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        if s.size < 2:
            raise ParameterError("empirical law needs at least two samples")
        object.__setattr__(self, "samples", s)

    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.samples.size
        probs = (np.arange(n) + 0.5) / n
        return self.samples, probs

    def cdf(self, t, y):
        xs, ps = self._knots()
        return np.interp(np.asarray(y, dtype=float), xs, ps)

    def quantile(self, t, u):
        xs, ps = self._knots()
        return np.interp(np.asarray(u, dtype=float), ps, xs)

    def from_score(self, t, x):
        """quantile(ndtr(x)) inside the CDF's range [ps[0], ps[-1]]; -inf below it and
        +inf from its top on, so Q(F(Y)) keeps its atoms at both ends."""
        xs, ps = self._knots()
        u = special.ndtr(x)
        return np.where(u < ps[0], -np.inf, np.where(u >= ps[-1], np.inf, np.interp(u, ps, xs)))

    def pdf(self, t, y):
        xs, ps = self._knots()
        return _segment_slope(y, xs, np.diff(ps) / np.diff(xs))


# ---------------------------------------------------------------------------
# composite map
# ---------------------------------------------------------------------------

class MapMode(enum.Enum):
    FALSE_LAW = "FalseLaw"
    TRUE_LAW = "TrueLaw"
    PIVOT = "Pivot"


@dataclass(frozen=True)
class CompositeMap:
    """The full distortion recipe: a distribution map composed with a quantile map.

    Modes:
      TRUE_LAW  - dist must be the driver's own marginal law (checked when the
                  map is applied); the composed level U_t is then uniform.
      FALSE_LAW - dist is deliberately different, encoding model risk.
      PIVOT     - dist (default N(0, 1)) is a law on the standardized pivot
                  (Y - m_t)/sd_t of a Gaussian-marginal driver; see PivotLaw.
    """

    dist: Optional[Law]
    quantile: Law
    mode: MapMode = MapMode.FALSE_LAW

    def validate(self, t: float = 1.0) -> None:
        self.quantile.validate(t)
        if self.dist is not None:
            self.dist.validate(t)
        # true-law mode fills the driver's own law in when applied; pivot mode
        # defaults to the N(0, 1) reference
        if self.mode is MapMode.FALSE_LAW and self.dist is None:
            raise ParameterError("a false-law composite map needs a distribution spec")

    def dist_for(self, driver: drv.Driver) -> Law:
        if self.mode is MapMode.PIVOT:
            return PivotLaw(driver, self.dist) if self.dist is not None else PivotLaw(driver)
        if self.mode is MapMode.TRUE_LAW:
            if self.dist is None:
                return driver
            if not self.dist.is_true_law_of(driver):
                raise ParameterError(
                    "TrueLaw mode requires the distribution spec to equal the driver's "
                    "marginal law")
        return self.dist


def true_law_map(driver: drv.Driver, quantile: Law) -> CompositeMap:
    """Composite map using the driver's own marginal law."""
    return CompositeMap(dist=driver, quantile=quantile, mode=MapMode.TRUE_LAW)


def canonical_map(quantile: Law) -> CompositeMap:
    """Canonical construction on standard Brownian motion: F = N(0, t)."""
    return CompositeMap(dist=drv.Brownian(), quantile=quantile, mode=MapMode.TRUE_LAW)


def preimage(quantile: Law, dist: Law, t: float, z):
    """(x, w, fz, fd, ok) for the inverse composite w = Q_dist(t, F_quantile(t, z)).

    x and fz are the family's normal score and density at z, as 1-d or wider
    arrays, from one ``quantile.score_pdf`` call (one TukeyGH inversion).  On
    ok = (x, w finite) & (fz > 0), w = dist.from_score(t, x) and fd =
    dist.pdf(t, w), so dw/dz = fz / fd; off ``ok`` both are 0.  A normal law
    forms no level and keeps the upper tail; a law read through ndtr(x) may
    send x past 8.3 to its support's end, which is not ``ok``.  NaN z gives NaN x.
    """
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    x, fz = (np.asarray(a, dtype=float) for a in quantile.score_pdf(t, zv))
    ok = np.isfinite(x) & (fz > 0.0)
    w, fd = np.zeros_like(x), np.zeros_like(x)
    if np.any(ok):
        w[ok] = dist.from_score(t, x[ok])
        ok &= np.isfinite(w)
        w[~ok] = 0.0
        fd[ok] = dist.pdf(t, w[ok])
    return x, w, fz, fd, ok


def apply_composite(cmap: CompositeMap, ensemble: drv.PathEnsemble) -> drv.PathEnsemble:
    """Transform every path value: out[n, k] = Q(t_k, F(t_k, in[n, k])).

    Each grid time is one ``quantile.compose`` call.  Grid, path count and
    seed metadata carry over unchanged; a non-finite output at a finite path
    value raises NumericError.
    """
    cmap.validate(float(ensemble.grid.times[0]))
    ensemble.grid.require_positive()
    dist = cmap.dist_for(ensemble.driver)

    out = np.empty_like(ensemble.paths)
    for k, t in enumerate(ensemble.grid.times):
        y = ensemble.paths[:, k]
        try:
            out[:, k] = cmap.quantile.compose(t, dist, y)
        except (ValueError, FloatingPointError, NumericError) as exc:
            raise NumericError(f"composite map failed at grid index {k} (t={t}): {exc}")
        finite = np.isfinite(out[:, k]) | ~np.isfinite(y)
        if not np.all(finite):
            n = int(np.argmin(finite))
            raise NumericError(
                f"composite map produced a non-finite value at path {n}, "
                f"grid index {k} (t={t})")
    return drv.PathEnsemble(grid=ensemble.grid, paths=out,
                            seed=ensemble.seed, driver=ensemble.driver)


# ---------------------------------------------------------------------------
# Gaussian pivot with the Tukey-g transform
# ---------------------------------------------------------------------------

def pivot_gaussian_tukey_g_params(
    a: TimeParam, b: TimeParam, g: TimeParam,
    m: TimeParam, v: TimeParam,
    mu_y: TimeParam, sigma_y: TimeParam,
) -> tuple[TimeFn, TimeFn, TimeFn]:
    """Reparameterize the Gaussian-pivot Tukey-g process onto the raw driver.

    Given Z = A + (B/g)(exp(g (Ytilde - m)/sqrt(v)) - 1) with the standardized
    pivot Ytilde = (Y - mu_Y)/sigma_Y, returns time functions (A*, B*, g*) such
    that Z = A* + (B*/g*)(exp(g* Y) - 1) path-wise.
    """
    fa, fb, fg = as_time_fn(a), as_time_fn(b), as_time_fn(g)
    fm, fv = as_time_fn(m), as_time_fn(v)
    fmu, fsig = as_time_fn(mu_y), as_time_fn(sigma_y)

    def check(t: float) -> tuple[float, float, float, float, float, float, float]:
        at, bt, gt = fa(t), fb(t), fg(t)
        mt, vt, mut, sigt = fm(t), fv(t), fmu(t), fsig(t)
        if gt == 0.0:
            raise ParameterError("the Tukey-g family requires g != 0")
        if not (sigt > 0 and vt > 0):
            raise ParameterError("pivot reparameterization needs sigma_Y > 0 and v > 0")
        return at, bt, gt, mt, vt, mut, sigt

    def a_star(t: float) -> float:
        at, bt, gt, mt, vt, mut, sigt = check(t)
        shift = gt * (mut + sigt * mt) / (sigt * math.sqrt(vt))
        return at + bt / gt * math.expm1(-shift)

    def b_star(t: float) -> float:
        at, bt, gt, mt, vt, mut, sigt = check(t)
        shift = gt * (mut + sigt * mt) / (sigt * math.sqrt(vt))
        return bt / (sigt * math.sqrt(vt)) * math.exp(-shift)

    def g_star(t: float) -> float:
        _, _, gt, _, vt, _, sigt = check(t)
        return gt / (sigt * math.sqrt(vt))

    return a_star, b_star, g_star


@dataclass(frozen=True)
class TukeyGMoments:
    """First four standardized moments of the Gaussian-pivot Tukey-g output.

    ``skewness`` and ``kurtosis_excess`` are the standardized shape factors;
    the raw central moments follow as skewness * sigma^3 and
    (kurtosis_excess + 3) * sigma^4.
    """

    mean: float
    variance: float
    skewness: float
    kurtosis_excess: float


def tukey_g_gaussian_moments(a: float, b: float, g: float, m: float, v: float) -> TukeyGMoments:
    """Closed-form moments of Z = A + (B/g)(exp(g (X - m)/sqrt(v)) - 1), X ~ N(0, 1).

    Z is an affine image of a lognormal variable with log-variance g^2/v, so
    the shape factors are the lognormal skewness and excess kurtosis (signed
    by g for the skewness).
    """
    if g == 0.0:
        raise ParameterError("the Tukey-g family requires g != 0")
    if not v > 0:
        raise ParameterError("v must be positive")
    w = g * g / v
    mean = a + b / g * math.expm1(-m * g / math.sqrt(v) + 0.5 * w)
    variance = (b / g) ** 2 * math.expm1(w) * math.exp(-2.0 * g * m / math.sqrt(v) + w)
    skew = math.copysign(1.0, g) * (math.exp(w) + 2.0) * math.sqrt(math.expm1(w))
    kurt_excess = math.exp(4 * w) + 2 * math.exp(3 * w) + 3 * math.exp(2 * w) - 6.0
    return TukeyGMoments(mean=mean, variance=variance, skewness=skew,
                         kurtosis_excess=kurt_excess)
