"""Quantile families, distribution families, and the composite map.

The composite map sends a driver value y to Q(F(t, y)): a distribution
function F (the driver's true law, a deliberately different law, or a law on
a standardized pivot) followed by a quantile function Q.  Applied path-wise
it turns a driver ensemble into a quantile-process ensemble.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from . import drivers as drv
from ._util import TimeFn, TimeParam, _norm_cdf, _norm_pdf, _norm_ppf, as_time_fn, clip_unit
from .errors import CapabilityError, NumericError, ParameterError

__all__ = [
    "QuantileSpec",
    "TukeyG",
    "TukeyGH",
    "GaussianQuantile",
    "PoissonQuantile",
    "TableQuantile",
    "DistributionSpec",
    "GaussianLaw",
    "canonical_brownian_law",
    "DriverLaw",
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

_X_MAX = 39.0  # |ndtri(u)| stays below this for representable u in (0, 1)
# below this the skew branch is numerically identical to its g -> 0 limit and
# subnormal g would underflow inside exp/expm1
_G_TINY = 1e-150


# ---------------------------------------------------------------------------
# quantile families
# ---------------------------------------------------------------------------

class QuantileSpec:
    """A quantile family Q(t, u), strictly increasing in u at every time."""

    family: str = "abstract"
    is_discrete: bool = False

    def validate(self, t: float = 1.0) -> None:
        """Raise ParameterError on inadmissible parameters."""

    def eval(self, t: float, u) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, t: float, z) -> np.ndarray:
        """Generalized inverse of ``eval`` in its second argument."""
        raise NotImplementedError

    def pdf(self, t: float, z) -> np.ndarray:
        raise NotImplementedError

    def support(self, t: float) -> tuple[float, float]:
        return -np.inf, np.inf


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


def _gh_core_deriv(x: np.ndarray, g: float, h: float) -> np.ndarray:
    """d/dx of _gh_core; positive for h >= 0."""
    x = np.asarray(x, dtype=float)
    if abs(g) < _G_TINY:
        inner = 1.0 + h * x * x
        return inner * np.exp(0.5 * h * x * x) if h != 0.0 else np.ones_like(x)
    egx = np.exp(g * x)
    if h == 0.0:
        return egx
    return np.exp(0.5 * h * x * x) * (egx + h * x * np.expm1(g * x) / g)


@dataclass(frozen=True)
class TukeyGH(QuantileSpec):
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

    def eval(self, t, u):
        a, b, g, h = self.params_at(t)
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            x = special.ndtri(clip_unit(u))
        out = a + b * _gh_core(x, g, h)
        # endpoints follow the family's tails
        lo, hi = self.support(t)
        out = np.where(u <= 0.0, lo, out)
        out = np.where(u >= 1.0, hi, out)
        return out

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
            out = np.full_like(zc, -np.inf if g > 0 else np.inf)
            ok = arg > -1.0
            out[ok] = np.log1p(arg[ok]) / g  # log1p stays exact as g -> 0
            return out
        # h > 0: strictly increasing onto all of R.  Newton runs on
        # asinh(core(x)), which grows only quadratically in x, with bracket
        # safeguarding and a forced bisection every third sweep.
        x = np.zeros_like(zc)
        lo = np.full_like(zc, -_X_MAX)
        hi = np.full_like(zc, _X_MAX)
        target_s = np.arcsinh(zc)
        for it in range(160):
            with np.errstate(over="ignore", invalid="ignore"):
                core = _gh_core(x, g, h)
                f = np.arcsinh(core) - target_s
                lo = np.where(f < 0, np.maximum(lo, x), lo)
                hi = np.where(f > 0, np.minimum(hi, x), hi)
                slope = _gh_core_deriv(x, g, h) / np.hypot(1.0, core)
                x_new = x - f / slope
            # a zero step has converged, even onto a bracket edge, unless the slope overflowed
            stuck = (x_new == x) & np.isfinite(slope)
            bad = ((x_new <= lo) | (x_new >= hi) | ~np.isfinite(x_new)) & ~stuck
            if it % 3 == 2:
                bad = bad | (np.abs(f) > 1.0)
            x_new = np.where(bad, 0.5 * (lo + hi), x_new)
            done = np.abs(x_new - x) <= 1e-14 * (1.0 + np.abs(x_new))
            x = x_new
            if np.all(done):
                break
        else:
            with np.errstate(over="ignore"):
                resid = np.max(np.abs(np.arcsinh(_gh_core(x, g, h)) - target_s))
            if resid > 1e-9:
                raise NumericError("g-and-h inversion did not converge", achieved=float(resid))
        return x

    def cdf(self, t, z):
        x = self.x_from_z(t, z)
        return special.ndtr(x)

    def pdf(self, t, z):
        _, b, g, h = self.params_at(t)
        x = self.x_from_z(t, z)
        dens = np.zeros_like(x)
        ok = np.isfinite(x)
        phi = np.exp(-0.5 * x[ok] ** 2) / math.sqrt(2.0 * math.pi)
        dens[ok] = phi / (b * _gh_core_deriv(x[ok], g, h))
        return dens


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
class GaussianQuantile(QuantileSpec):
    """Normal quantile family m(t) + sqrt(v(t)) * ndtri(u)."""

    m: TimeParam = 0.0
    v: TimeParam = 1.0

    family = "Gaussian"

    def params_at(self, t: float) -> tuple[float, float]:
        return as_time_fn(self.m)(t), as_time_fn(self.v)(t)

    def validate(self, t: float = 1.0) -> None:
        _, v = self.params_at(t)
        if not v > 0:
            raise ParameterError(f"Gaussian quantile requires v > 0, got {v}")

    def eval(self, t, u):
        m, v = self.params_at(t)
        u = np.asarray(u, dtype=float)
        out = _norm_ppf(clip_unit(u), m, math.sqrt(v))
        out = np.where(u <= 0.0, -np.inf, out)
        out = np.where(u >= 1.0, np.inf, out)
        return out

    def cdf(self, t, z):
        # ndtr, not the erf form of _norm_cdf: 1 + erf rounds to 0 for standardized
        # values below -8.37, so at -8.5 the erf form gives 0 where ndtr gives 9.5e-18
        m, v = self.params_at(t)
        return special.ndtr((np.asarray(z, dtype=float) - m) / math.sqrt(v))

    def pdf(self, t, z):
        m, v = self.params_at(t)
        return _norm_pdf(z, m, math.sqrt(v))


@dataclass(frozen=True)
class PoissonQuantile(QuantileSpec):
    """Quantile function of a Poisson count with mean rate * t.

    The discrete hook of the composite map: step outputs on the integers.
    Only the Poisson-pivot composite uses it; continuous families stay the
    default everywhere else.
    """

    rate: float = 1.0

    family = "PoissonQuantile"
    is_discrete = True

    def validate(self, t: float = 1.0) -> None:
        if not self.rate > 0:
            raise ParameterError("Poisson quantile rate must be positive")

    def eval(self, t, u):
        from scipy import stats
        u = np.asarray(u, dtype=float)
        return stats.poisson.ppf(u, self.rate * t)

    def cdf(self, t, z):
        from scipy import stats
        return stats.poisson.cdf(np.floor(np.asarray(z, dtype=float)), self.rate * t)

    def pmf(self, t, k):
        from scipy import stats
        return stats.poisson.pmf(np.asarray(k), self.rate * t)

    def pdf(self, t, z):
        raise CapabilityError("the Poisson quantile family is discrete; use pmf")

    def support(self, t):
        return 0.0, np.inf


@dataclass(frozen=True)
class TableQuantile(QuantileSpec):
    """Monotone piecewise-linear quantile map from a (u, z) table.

    Endpoints clamp: no tail behaviour is invented beyond the table.
    """

    u_knots: np.ndarray
    z_knots: np.ndarray

    family = "TableDriven"

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

    def eval(self, t, u):
        return np.interp(np.asarray(u, dtype=float), self.u_knots, self.z_knots)

    def cdf(self, t, z):
        return np.interp(np.asarray(z, dtype=float), self.z_knots, self.u_knots)

    def pdf(self, t, z):
        z = np.asarray(z, dtype=float)
        slopes = np.diff(self.z_knots) / np.diff(self.u_knots)
        idx = np.clip(np.searchsorted(self.z_knots, z) - 1, 0, slopes.size - 1)
        inside = (z >= self.z_knots[0]) & (z <= self.z_knots[-1])
        return np.where(inside, 1.0 / slopes[idx], 0.0)

    def support(self, t):
        return float(self.z_knots[0]), float(self.z_knots[-1])

    @classmethod
    def from_csv(cls, path: str) -> "TableQuantile":
        data = np.loadtxt(path, delimiter=",", skiprows=0, ndmin=2)
        return cls(u_knots=data[:, 0], z_knots=data[:, 1])


def quantile_eval(spec: QuantileSpec, t: float, u):
    """Evaluate Q(t, u); u in [0, 1], endpoints map to the family's tails."""
    uv = np.asarray(u, dtype=float)
    if np.any((uv < 0) | (uv > 1)):
        raise ParameterError("quantile level must lie in [0, 1]")
    return spec.eval(t, u)


def quantile_cdf(spec: QuantileSpec, t: float, z):
    """Generalized inverse of the quantile family: returns u with Q(t, u) = z.

    Values outside the family's range clamp to 0 or 1.
    """
    return spec.cdf(t, z)


# ---------------------------------------------------------------------------
# distribution families
# ---------------------------------------------------------------------------

class DistributionSpec:
    """A (possibly time-dependent) marginal law used inside composite maps."""

    family: str = "abstract"

    def validate(self, t: float = 1.0) -> None:
        pass

    def cdf(self, t: float, y) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, t: float, y) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, t: float, u) -> np.ndarray:
        raise NotImplementedError

    def is_true_law_of(self, driver: drv.Driver) -> bool:
        return False


@dataclass(frozen=True)
class GaussianLaw(DistributionSpec):
    """Normal law with mean m(t) and variance v(t).

    ``GaussianLaw(m=0, v=lambda t: t)`` is the law of standard Brownian
    motion, the base of the canonical construction.
    """

    m: TimeParam = 0.0
    v: TimeParam = 1.0

    family = "Gaussian"

    def params_at(self, t: float) -> tuple[float, float]:
        return as_time_fn(self.m)(t), as_time_fn(self.v)(t)

    def validate(self, t: float = 1.0) -> None:
        _, v = self.params_at(t)
        if not v > 0:
            raise ParameterError(f"Gaussian law requires v > 0, got {v}")

    def cdf(self, t, y):
        m, v = self.params_at(t)
        return _norm_cdf(y, m, math.sqrt(v))

    def pdf(self, t, y):
        m, v = self.params_at(t)
        return _norm_pdf(y, m, math.sqrt(v))

    def quantile(self, t, u):
        m, v = self.params_at(t)
        return _norm_ppf(u, m, math.sqrt(v))

    def is_true_law_of(self, driver):
        if isinstance(driver, drv.Brownian):
            m, v = self.params_at(1.0)
            m2, v2 = self.params_at(2.0)
            return m == driver.origin == m2 and v == 1.0 and v2 == 2.0
        return False


def canonical_brownian_law() -> GaussianLaw:
    """The marginal law of standard Brownian motion, N(0, t)."""
    return GaussianLaw(m=0.0, v=lambda t: t)


@dataclass(frozen=True)
class DriverLaw(DistributionSpec):
    """The true marginal law of a driver, F_Y(t, y)."""

    driver: drv.Driver

    family = "DriverLaw"

    def cdf(self, t, y):
        return self.driver.marginal_cdf(t, y)

    def pdf(self, t, y):
        return self.driver.marginal_pdf(t, y)

    def quantile(self, t, u):
        return self.driver.marginal_quantile(t, u)

    def is_true_law_of(self, driver):
        return self.driver == driver


@dataclass(frozen=True)
class ShiftedDriverLaw(DistributionSpec):
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

    def cdf(self, t, y):
        return self.driver.marginal_cdf(t, np.asarray(y, dtype=float) - self.shift)

    def pdf(self, t, y):
        return self.driver.marginal_pdf(t, np.asarray(y, dtype=float) - self.shift)

    def quantile(self, t, u):
        return self.driver.marginal_quantile(t, u) + self.shift

    def is_true_law_of(self, driver):
        return self.shift == 0.0 and self.driver == driver


@dataclass(frozen=True)
class PivotLaw(DistributionSpec):
    """A law on the standardized pivot of a Gaussian-marginal driver.

    F(t, y) = reference.cdf(t, (y - m_t)/sd_t) with (m_t, sd_t) the driver's
    marginal mean and standard deviation; the default N(0, 1) reference makes
    this the driver's own marginal law.
    """

    driver: drv.Driver
    reference: DistributionSpec = GaussianLaw(0.0, 1.0)

    family = "Pivot"

    def validate(self, t: float = 1.0) -> None:
        self.reference.validate(t)

    def cdf(self, t, y):
        m, sd = self.driver.marginal_mean_std(t)
        return self.reference.cdf(t, (np.asarray(y, dtype=float) - m) / sd)

    def pdf(self, t, y):
        m, sd = self.driver.marginal_mean_std(t)
        return self.reference.pdf(t, (np.asarray(y, dtype=float) - m) / sd) / sd

    def quantile(self, t, u):
        m, sd = self.driver.marginal_mean_std(t)
        return m + sd * self.reference.quantile(t, u)


@dataclass(frozen=True)
class EmpiricalLaw(DistributionSpec):
    """Continuous (piecewise-linear) CDF interpolating a sample."""

    samples: np.ndarray

    family = "Empirical"

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
        return np.clip(np.interp(np.asarray(y, dtype=float), xs, ps), 0.0, 1.0)

    def quantile(self, t, u):
        xs, ps = self._knots()
        return np.interp(np.asarray(u, dtype=float), ps, xs)

    def pdf(self, t, y):
        xs, ps = self._knots()
        y = np.asarray(y, dtype=float)
        slopes = np.diff(ps) / np.diff(xs)
        idx = np.clip(np.searchsorted(xs, y) - 1, 0, slopes.size - 1)
        inside = (y >= xs[0]) & (y <= xs[-1])
        return np.where(inside, slopes[idx], 0.0)


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

    dist: Optional[DistributionSpec]
    quantile: QuantileSpec
    mode: MapMode = MapMode.FALSE_LAW

    def validate(self, t: float = 1.0) -> None:
        self.quantile.validate(t)
        if self.dist is not None:
            self.dist.validate(t)
        # true-law mode fills the driver's own law in when applied; pivot mode
        # defaults to the N(0, 1) reference
        if self.mode is MapMode.FALSE_LAW and self.dist is None:
            raise ParameterError("a false-law composite map needs a distribution spec")

    def dist_for(self, driver: drv.Driver) -> DistributionSpec:
        if self.mode is MapMode.PIVOT:
            if not driver.is_gaussian:
                raise CapabilityError(
                    f"pivot standardization is implemented for Gaussian-marginal drivers, "
                    f"not {driver.kind}")
            return PivotLaw(driver, self.dist) if self.dist is not None else PivotLaw(driver)
        if self.mode is MapMode.TRUE_LAW:
            if self.dist is None:
                return DriverLaw(driver)
            if not self.dist.is_true_law_of(driver):
                raise ParameterError(
                    "TrueLaw mode requires the distribution spec to equal the driver's "
                    "marginal law")
        return self.dist


def true_law_map(driver: drv.Driver, quantile: QuantileSpec) -> CompositeMap:
    """Composite map using the driver's own marginal law."""
    return CompositeMap(dist=DriverLaw(driver), quantile=quantile, mode=MapMode.TRUE_LAW)


def canonical_map(quantile: QuantileSpec) -> CompositeMap:
    """Canonical construction on standard Brownian motion: F = N(0, t)."""
    return CompositeMap(dist=canonical_brownian_law(), quantile=quantile, mode=MapMode.TRUE_LAW)


def preimage(quantile: QuantileSpec, dist: DistributionSpec, t: float, z):
    """(u, w, fz, fd, ok) for the inverse composite w = Q_dist(t, F_quantile(t, z)).

    u and fz are the family's CDF and density at z, as 1-d or wider arrays.  On
    its range ok = (0 < u < 1) & (fz > 0), w = dist.quantile(t, u) and
    fd = dist.pdf(t, w), so dw/dz = fz / fd; off ``ok`` both are 0.
    """
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    u = np.asarray(quantile.cdf(t, zv), dtype=float)
    fz = np.asarray(quantile.pdf(t, zv), dtype=float)
    ok = (u > 0.0) & (u < 1.0) & (fz > 0.0)
    w, fd = np.zeros_like(u), np.zeros_like(u)
    if np.any(ok):
        w[ok] = dist.quantile(t, u[ok])
        fd[ok] = dist.pdf(t, w[ok])
    return u, w, fz, fd, ok


def apply_composite(cmap: CompositeMap, ensemble: drv.PathEnsemble) -> drv.PathEnsemble:
    """Transform every path value: out[n, k] = Q(t_k, F(t_k, in[n, k])).

    Grid, path count and seed metadata carry over unchanged.
    """
    cmap.validate(float(ensemble.grid.times[0]))
    ensemble.grid.require_positive()
    dist = cmap.dist_for(ensemble.driver)

    out = np.empty_like(ensemble.paths)
    for k, t in enumerate(ensemble.grid.times):
        y = ensemble.paths[:, k]
        try:
            u = clip_unit(dist.cdf(t, y))
            out[:, k] = cmap.quantile.eval(t, u)
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

    @property
    def central_third(self) -> float:
        return self.skewness * self.variance ** 1.5

    @property
    def central_fourth(self) -> float:
        return (self.kurtosis_excess + 3.0) * self.variance ** 2


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
