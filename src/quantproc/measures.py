"""Distorted probability measures induced by quantile processes.

The pushforward law of Z_t = Q(F(t, Y_t)) has distribution function F_Y(t, w)
at the preimage w = Q_dist(t, F_quantile(t, z)) of ``transforms.preimage``,
reached from the quantile law's normal score x at z by the distribution law's
``from_score``, so a normal law never forms the level ndtr(x); its density is
f_Y(w) f_quantile(z) / f_dist(w), and its density ratio against the driver's
law divides that by f_Y(z).  Chaining conditional density ratios with money-market discounting
yields a pricing-kernel process whose discounted value is a martingale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import drivers as drv
from . import transforms as tr
from ._util import TimeParam, _blocked, adaptive_quad, as_time_fn
from .errors import CapabilityError, NumericError, ParameterError

__all__ = [
    "DistortedLaw",
    "distorted_cdf",
    "distorted_pdf",
    "rn_derivative",
    "conditional_rn",
    "PricingKernelPath",
    "pricing_kernel",
    "money_market",
]


@dataclass(frozen=True, eq=False)
class DistortedLaw:
    """The marginal law of the quantile process built from (map, base driver)."""

    map: tr.CompositeMap
    base: drv.Driver

    def dist(self) -> tr.Law:
        return self.map.dist_for(self.base)


def distorted_cdf(law: DistortedLaw, t: float, z):
    """F_Z(t, z): probability the quantile process sits at or below z.

    F_Y(t, w) at w = dist.from_score(t, x) for the family's score x at z.
    Events below the quantile family's range get probability 0, above it 1;
    a NaN z gives NaN.
    """
    if t <= 0:
        raise ParameterError("distorted laws are defined for t > 0")

    def cdf(zb):
        x = law.map.quantile.score(t, zb)
        out = np.where(np.isnan(x), np.nan, x > 0.0)
        mid = np.isfinite(x)
        if np.any(mid):
            out[mid] = law.base.cdf(t, law.dist().from_score(t, x[mid]))
        return out

    out = _blocked(cdf, np.atleast_1d(np.asarray(z, dtype=float)))
    return out if np.ndim(z) else float(out[0])


def distorted_pdf(law: DistortedLaw, t: float, z):
    """Density of the quantile process at z (zero off the family's range, NaN at NaN)."""
    if t <= 0:
        raise ParameterError("distorted laws are defined for t > 0")
    dist = law.dist()

    def pdf(zb):
        x, w, fz, fd, ok = tr.preimage(law.map.quantile, dist, t, zb)
        out = np.where(np.isnan(x), np.nan, 0.0)
        if np.any(ok):
            out[ok] = law.base.pdf(t, w[ok]) * fz[ok] / fd[ok]
        return out

    out = _blocked(pdf, np.atleast_1d(np.asarray(z, dtype=float)))
    return out if np.ndim(z) else float(out[0])


def _ratio(cmap: tr.CompositeMap, base: drv.Driver, t: float, y,
           density: Callable[..., np.ndarray], *states):
    """f(w) f_quantile(y) / (f_dist(w) f(y)) at the preimage w, with f(x) = density(x, *s)
    and s the per-point ``states``, broadcast to y's shape, at the same points as x."""
    dist = cmap.dist_for(base)

    def ratio(yb, *sb):
        x, w, fz, fd, ok = tr.preimage(cmap.quantile, dist, t, yb)
        out = np.where(np.isnan(x), np.nan, 0.0)
        if np.any(ok):
            s_ok = [s[ok] for s in sb]
            num = density(w[ok], *s_ok) * fz[ok]
            den = fd[ok] * density(yb[ok], *s_ok)
            if np.any(den <= 0):
                raise NumericError(f"density-ratio denominator underflow at y={yb[ok][den <= 0][:3]}")
            out[ok] = num / den
        return out

    yv = np.atleast_1d(np.asarray(y, dtype=float))
    out = _blocked(ratio, yv, *(np.broadcast_to(np.asarray(s, dtype=float), yv.shape) for s in states))
    return out if np.ndim(y) else float(out[0])


def rn_derivative(cmap: tr.CompositeMap, base: drv.Driver, t: float, y):
    """Density of the distorted measure against the driver's law at state y.

    Evaluates f_Y(t, w) f_quantile(y) / (f_dist(t, w) f_Y(t, y)) with
    w = Q_dist(t, F_quantile(y)); returns 0 where y lies outside the quantile
    family's range (the distorted measure puts no mass there) and NaN at NaN.
    """
    if t <= 0:
        raise ParameterError("the density ratio is defined for t > 0")
    if base.is_discrete:
        return _rn_derivative_discrete(cmap, base, t, y)
    return _ratio(cmap, base, t, y, lambda x: base.pdf(t, x))


def _rn_derivative_discrete(cmap: tr.CompositeMap, base: drv.Driver, t: float, y):
    """Mass-function ratio for the Poisson-pivot composite.

    With a counting driver N and a discrete quantile family, the distorted
    measure sits on the integers and the density ratio becomes
    p_Z(k) / p_N(k): the mass the composite output puts at k over the mass
    the driver puts there.  Z = j exactly when the composite level F(N) falls
    inside (F_quantile(j-1), F_quantile(j)].
    """
    if not isinstance(base, drv.InhomogeneousPoisson):
        raise CapabilityError("discrete density ratios are supported for Poisson drivers")
    if not cmap.quantile.is_discrete:
        raise CapabilityError(
            "discrete density ratios need a discrete quantile family (Poisson pivot)")
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    k = np.floor(yv).astype(int)
    ks = np.arange(0, 4 * int(base.cumulative_intensity(t)) + 200)
    cdfs = np.asarray(cmap.dist_for(base).cdf(t, ks.astype(float)), dtype=float)

    def cdf_z(j: np.ndarray) -> np.ndarray:
        # P(Z <= j) = P(F(N) <= F_quantile(j)) = P(N <= n) for the largest count n
        # whose dist CDF is at or below F_quantile(j) (none: probability 0)
        n = np.searchsorted(cdfs, np.asarray(cmap.quantile.cdf(t, j)) * (1 + 1e-12),
                            side="right") - 1
        return np.where(n >= 0, base.cdf(t, n.astype(float)), 0.0)

    mass_z = cdf_z(k.astype(float)) - cdf_z(k.astype(float) - 1.0)
    mass_y = base.pmf(t, k)
    out = np.where(mass_y > 0, mass_z / np.where(mass_y > 0, mass_y, 1.0), 0.0)
    return out if np.ndim(y) else float(out[0])


def conditional_rn(cmap: tr.CompositeMap, base: drv.Driver, s: float, t: float,
                   state, y):
    """Conditional density ratio given the driver's state at time s < t.

    Same four-density ratio as the unconditional case with the driver's
    marginal density replaced by its Markov transition density from
    (s, state); s <= 0 recovers the unconditional ratio.
    """
    if t <= s:
        raise ParameterError("conditional ratio needs s < t")
    if s <= 0:
        return rn_derivative(cmap, base, t, y)
    return _ratio(cmap, base, t, y, lambda x, prev: base.transition_pdf(s, t, prev, x), state)


# ---------------------------------------------------------------------------
# money market and pricing kernel
# ---------------------------------------------------------------------------

def money_market(rate: TimeParam, t: float) -> float:
    """Accumulation factor B_t = exp(integral of the short rate to t); a NumericError once
    the integral reaches 700 in magnitude, where B_t or 1 / B_t nears the end of the floats."""
    if t == 0.0:
        return 1.0
    log_b = float(rate) * t if not callable(rate) else adaptive_quad(
        rate, 0.0, t, tol=1e-12, what="short-rate integral")
    if not abs(log_b) < 700.0:
        raise NumericError(f"the short-rate integral to t = {t} is {log_b}, past the float range")
    return math.exp(log_b)


@dataclass(frozen=True)
class PricingKernelPath:
    """Per-path state-price deflator chained from conditional density ratios.

    phi starts at 1 on the first grid time; discounted phi * B is a
    martingale under the driver's law.
    """

    grid: drv.TimeGrid
    phi: np.ndarray
    money_market: np.ndarray

    def deflated(self) -> np.ndarray:
        """phi_t B_t, the martingale component, per path and grid time."""
        return self.phi * self.money_market


def pricing_kernel(cmap: tr.CompositeMap, base: drv.Driver,
                   ensemble: drv.PathEnsemble, rate: TimeParam = 0.0) -> PricingKernelPath:
    """Build the deflator phi along each path of the ensemble.

    phi at the first grid time is 1; between consecutive grid times it picks
    up the conditional density ratio and the inverse money-market growth.
    """
    times = ensemble.grid.times
    if times.size < 2:
        raise ParameterError("pricing kernel needs a grid with at least 2 points")
    r = as_time_fn(rate)
    for probe in np.linspace(times[0], times[-1], 7):
        if r(float(probe)) < 0:
            raise ParameterError("short rate must be non-negative")
    bank = np.array([money_market(rate, float(t)) for t in times])
    n, K = ensemble.paths.shape
    phi = np.empty((n, K))
    phi[:, 0] = 1.0
    for k in range(K - 1):
        s, t = float(times[k]), float(times[k + 1])
        rho = conditional_rn(cmap, base, s, t, ensemble.paths[:, k], ensemble.paths[:, k + 1])
        phi[:, k + 1] = rho * phi[:, k] * bank[k] / bank[k + 1]
    return PricingKernelPath(grid=ensemble.grid, phi=phi, money_market=bank)
