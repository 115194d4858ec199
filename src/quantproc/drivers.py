"""Driving risk processes: exact-transition simulation and marginal laws.

Implemented drivers: standard Brownian motion, time-inhomogeneous
Ornstein-Uhlenbeck, variance-gamma (as a difference of two gamma
subordinators), gamma process, and inhomogeneous Poisson counting process.
Every grid step draws from its exact transition law (no Euler bias); only
Poisson event times on a continuous horizon are drawn by thinning.

Every driver is a ``Law``, the law of its own marginal Y_t, with the
``cdf``/``pdf``/``quantile``/``score``/``from_score`` maps of every other law; a
Gaussian driver gives only ``normal_at`` and the rest follow.  The marginal laws
are exact too.  The variance-gamma law uses its Bessel-K density, which has a
cusp at y = 0 (infinite when t/nu <= 1/2); its CDF and quantile integrate that
density on a panel table built once per time.  Marginal laws are defined on
t >= MIN_TIME.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from ._util import (_GL_R, _GL_W, _SQRT2PI, Law, TimeParam, _gamma_cdf, _gamma_pdf, _gamma_ppf, _norm_pdf,
                    _poisson_cdf, _poisson_pmf, _poisson_ppf, _solve_increasing, adaptive_quad,
                    as_time_fn, clip_unit, substream)
from .errors import CapabilityError, MappingError, NumericError, ParameterError, SimulationError

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "Driver",
    "GaussianDriver",
    "Brownian",
    "InhomogeneousOU",
    "VarianceGamma",
    "GammaProcess",
    "InhomogeneousPoisson",
    "step_grid",
    "simulate",
    "simulate_conditional",
    "marginal_cdf",
    "marginal_pdf",
    "uniformize",
    "poisson_pivot",
    "MIN_TIME",
]

#: marginal laws F(t, .) live on t > 0; grids feeding them must start here or later
MIN_TIME = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation times plus the anchor value at time zero.

    ``origin_value`` is the (deterministic) state the driver holds at t = 0,
    from which the first grid point is reached by one exact transition.  When
    left as ``None`` the driver's own natural start is used (the OU initial
    state ``y0``, zero for the other drivers).
    """

    times: np.ndarray
    origin_value: Optional[float] = None

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        if t.ndim != 1 or t.size == 0:
            raise ParameterError("time grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(t)):
            raise ParameterError("time grid contains non-finite entries")
        if t[0] < 0:
            raise ParameterError("time grid must start at a non-negative time")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ParameterError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size

    def require_positive(self) -> None:
        if self.times[0] < MIN_TIME:
            raise ParameterError(
                f"marginal laws are defined on t > 0; grid must start at t >= {MIN_TIME}"
            )


@dataclass(frozen=True)
class PathEnsemble:
    """N sample paths on a fixed grid, together with the seed that made them."""

    grid: TimeGrid
    paths: np.ndarray
    seed: int
    driver: "Driver"

    def __post_init__(self):
        p = np.asarray(self.paths, dtype=float)
        if p.ndim != 2 or p.shape[1] != len(self.grid):
            raise ParameterError("paths must be an (n_paths, len(grid)) matrix")
        object.__setattr__(self, "paths", p)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


class Driver(Law):
    """Common interface of the driving processes.

    Every driver is Markov with an exactly samplable transition law, and is the
    ``Law`` of its own marginal Y_t on t >= MIN_TIME: its ``cdf``, ``pdf`` (where
    a density exists) and ``quantile``, and the scores that follow.
    """

    kind: str = "abstract"
    is_gaussian: bool = False

    def initial_value(self) -> float:
        return 0.0

    def sample_transition(self, rng: np.random.Generator, s: float, t: float,
                          states: np.ndarray) -> np.ndarray:
        """Draw Y_t given Y_s = states (exact transition law)."""
        raise NotImplementedError

    def score(self, t: float, y) -> np.ndarray:
        """ndtri of the level F(t, y) clamped into (0, 1); a Gaussian driver's is exact."""
        return special.ndtri(clip_unit(self.cdf(t, y)))

    # the older names of the marginal law's maps, which perfbench still reads
    def marginal_cdf(self, t: float, y) -> np.ndarray:
        return self.cdf(t, y)

    def marginal_pdf(self, t: float, y) -> np.ndarray:
        return self.pdf(t, y)

    def marginal_quantile(self, t: float, u) -> np.ndarray:
        return self.quantile(t, u)

    def transition_pdf(self, s: float, t: float, state, y) -> np.ndarray:
        raise NotImplementedError

    def transition_from_score(self, s: float, t: float, states: np.ndarray,
                              x: np.ndarray) -> np.ndarray:
        """Exact transition of ``states`` from s to t, one standard normal innovation x each."""
        raise CapabilityError(
            f"{self.kind} transitions need more than one innovation per step and cannot "
            f"be coupled through a Gaussian innovation copula")


class GaussianDriver(Driver):
    """A driver whose marginal and transition laws are normal.

    Subclasses give the means and standard deviations, ``marginal_mean_std(t)``
    and ``_transition_mean_std(s, t, states)``; every law and sampler follows.
    """

    is_gaussian = True
    score = Law.score  # exact and affine in y: no level is formed

    def normal_at(self, t):
        _check_time(t)
        m, sd = self.marginal_mean_std(t)
        if not 0.0 < sd < math.inf:
            raise ParameterError(f"{self.kind} marginal law at t = {t} needs 0 < sd < inf, got {sd}")
        return m, sd

    def _transition_mean_std(self, s: float, t: float, states) -> tuple:
        raise NotImplementedError

    def sample_transition(self, rng, s, t, states):
        return self.transition_from_score(s, t, states, rng.standard_normal(np.shape(states)))

    def transition_from_score(self, s, t, states, x):
        mean, sd = self._transition_mean_std(s, t, states)
        return mean + sd * x

    def transition_pdf(self, s, t, state, y):
        _check_step(s, t)
        return _norm_pdf(y, *self._transition_mean_std(s, t, np.asarray(state, dtype=float)))


def _check_time(t: float) -> None:
    if not MIN_TIME <= t < math.inf:
        raise ParameterError(f"marginal laws are defined on finite t >= {MIN_TIME}, got t = {t}")


def _check_step(s: float, t: float) -> None:
    if not 0.0 <= s < t < math.inf:
        raise ParameterError(f"transition laws need finite 0 <= s < t, got s = {s}, t = {t}")


def _check_positive(name: str, value: float) -> None:
    if not (value > 0) or not math.isfinite(value):
        raise ParameterError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Brownian(GaussianDriver):
    """Standard Brownian motion started at ``origin`` (zero by default)."""

    origin: float = 0.0

    kind = "Brownian"

    def initial_value(self) -> float:
        return self.origin

    def marginal_mean_std(self, t):
        return self.origin, math.sqrt(t)

    def _transition_mean_std(self, s, t, states):
        return states, math.sqrt(t - s)


@dataclass(frozen=True, eq=False)
class InhomogeneousOU(GaussianDriver):
    """Ornstein-Uhlenbeck driver dY = theta(t) (mu(t) - Y) dt + sigma(t) dW.

    Parameters may be constants or deterministic functions of time.  The
    three time integrals entering the Gaussian marginal law are evaluated by
    adaptive quadrature (absolute tolerance 1e-10) and cached per time.
    """

    theta: TimeParam = 1.0
    mu: TimeParam = 0.0
    sigma: TimeParam = 1.0
    y0: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    kind = "InhomogeneousOU"

    def validate(self, t: float = 1.0) -> None:
        sig = as_time_fn(self.sigma)
        for s in (MIN_TIME, 0.5, 1.0):
            if not sig(s) > 0:
                raise ParameterError("OU sigma(t) must be positive")

    def initial_value(self) -> float:
        return self.y0

    # cumulative integrals of the marginal law ------------------------------
    def _theta_int(self, t: float) -> float:
        key = ("th", t)
        if key not in self._cache:
            th = as_time_fn(self.theta)
            self._cache[key] = adaptive_quad(th, 0.0, t, what="OU mean-reversion integral")
        return self._cache[key]

    def _drift_int(self, t: float) -> float:
        key = ("dr", t)
        if key not in self._cache:
            th, mu = as_time_fn(self.theta), as_time_fn(self.mu)
            f = lambda s: math.exp(self._theta_int(s)) * th(s) * mu(s)
            self._cache[key] = adaptive_quad(f, 0.0, t, what="OU drift integral")
        return self._cache[key]

    def _var_int(self, t: float) -> float:
        key = ("va", t)
        if key not in self._cache:
            sg = as_time_fn(self.sigma)
            f = lambda s: math.exp(2.0 * self._theta_int(s)) * sg(s) ** 2
            self._cache[key] = adaptive_quad(f, 0.0, t, what="OU variance integral")
        return self._cache[key]

    def marginal_mean_std(self, t):
        decay = math.exp(-self._theta_int(t))
        mean = decay * (self.y0 + self._drift_int(t))
        std = decay * math.sqrt(self._var_int(t))
        return mean, std

    def _transition_mean_std(self, s: float, t: float, states):
        if s <= 0.0:
            m, sd = self.marginal_mean_std(t)
            return np.full_like(np.asarray(states, dtype=float), m), sd
        decay_st = math.exp(-(self._theta_int(t) - self._theta_int(s)))
        decay_t = math.exp(-self._theta_int(t))
        mean = decay_st * np.asarray(states, dtype=float) + decay_t * (
            self._drift_int(t) - self._drift_int(s))
        var = decay_t ** 2 * (self._var_int(t) - self._var_int(s))
        return mean, math.sqrt(max(var, 0.0))


#: nodes of the Gauss-Jacobi rule of a singular VG cusp, as many as the Gauss-Legendre rule
#: ``_GL_R`` that integrates each other table panel and each point of the VG CDF
_VG_NODES = _GL_R.size
#: the VG table's panels shrink by sqrt(2) this many times from the law's scale toward the
#: cusp, so that 8 nodes resolve the cusp's singularity on each; it reaches this many
#: scales past the mean
_VG_LEVELS, _VG_REACH = 100, 40.0
#: floor of the VG Bessel argument kappa |y|: nearer the cusp (but not at it) the density,
#: or when it is singular there its smooth factor f / |y|^(2t/nu - 1), is held at its value
#: here, which moves the CDF by less than 1e-280
_VG_X_FLOOR = 1e-290


def _log_kve(v: float, x: np.ndarray) -> np.ndarray:
    """log(e^x K_v(x)) for an order v >= 0 and arguments x > 0.

    Where ``kve`` overflows (large orders at small x) the value is carried up
    from the order v mod 1 by K_{m+1} = K_{m-1} + (2m/x) K_m, in ratios; the
    recurrence is stable upward.
    """
    out = np.log(special.kve(v, x))
    over = np.isinf(out)
    if over.any():
        xo, m = x[over], v % 1.0
        k_m = special.kve(m, xo)
        log_k = np.log(k_m)
        ratio = special.kve(1.0 - m, xo) / k_m  # K_{m-1} / K_m, since K_{-v} = K_v
        while m < v - 0.5:
            up = ratio + 2.0 * m / xo  # K_{m+1} / K_m
            log_k += np.log(up)
            ratio, m = 1.0 / up, m + 1.0
        out[over] = log_k
    return out


class _VGLaw:
    """The variance-gamma marginal law at one time t (see ``VarianceGamma``).

    ``log_pdf`` is the exact density.  The CDF and quantile read a table of the
    mass left and right of each panel edge, built on first use; a point then
    costs its edge mass plus one 8-node integral from the panel edge.  Panels shrink
    toward the cusp y = 0 and are uniform beyond the law's scale, the larger of
    its standard deviation and the slower tail's jump scale
    1 / (kappa - |mu| / sigma^2).  When t/nu <= 1/2 the density is singular like
    |y|^(2t/nu - 1) at the cusp; the two panels touching it then use the
    Gauss-Jacobi rule of that weight.
    """

    def __init__(self, mu: float, sigma: float, nu: float, t: float):
        a, s2 = t / nu, sigma * sigma
        root = math.sqrt(2.0 * s2 / nu + mu * mu)  # sqrt(c), c = 2 sigma^2 / nu + mu^2
        self.t, self.a, self.mu, self.kappa = t, a, mu, root / s2
        # decay rates of f on the side of y where mu y > 0 and on the other side:
        # kappa -+ |mu| / sigma^2, the first written free of cancellation
        self.rate_with, self.rate_against = 2.0 / (nu * (root + abs(mu))), (root + abs(mu)) / s2
        self.log_ks = math.log(root * root / s2)  # log(kappa sqrt(c))
        self.head = math.log(2.0) - a * math.log(nu) - math.log(_SQRT2PI * sigma) - special.gammaln(a)
        self.log_cusp = (self.head - math.log(2.0) + special.gammaln(a - 0.5)
                         + (a - 0.5) * math.log(2.0 * s2 / (root * root)) if a > 0.5 else math.inf)
        self.scale = max(math.sqrt((s2 + nu * mu * mu) * t), 1.0 / self.rate_with)
        self.mean = mu * t
        if a <= 0.5:
            # the weight's exponent 2a - 1 is rounded near -1, which moves the weights'
            # total by up to an ulp / 2a; their total, 2^(2a) / 2a, is pinned here
            x, weights = special.roots_jacobi(_VG_NODES, 0.0, 2.0 * a - 1.0)
            self.cusp_rule = ((x + 1.0) / 2.0, weights / (2.0 * a * weights.sum()))
            self.floor = _VG_X_FLOOR / self.kappa
        else:
            self.cusp_rule = None

    def log_pdf(self, y: np.ndarray) -> np.ndarray:
        """log f_t at finite y (any shape)."""
        ay = np.abs(y)
        x = self.kappa * ay
        held = np.maximum(x, _VG_X_FLOOR)
        log_held = np.log(held)
        rate = np.where(self.mu * y > 0, self.rate_with, self.rate_against)
        out = (self.head - rate * ay + (self.a - 0.5) * (log_held - self.log_ks)
               + _log_kve(abs(self.a - 0.5), held.ravel()).reshape(x.shape))
        if self.a < 0.5:  # below the floor, hold the smooth factor f / |y|^(2a - 1)
            with np.errstate(divide="ignore"):
                out += (2.0 * self.a - 1.0) * (np.log(x) - log_held)
        return np.where(y == 0.0, self.log_cusp, out)

    def pdf(self, y: np.ndarray) -> np.ndarray:
        out = np.where(np.isnan(y), np.nan, 0.0)
        finite = np.isfinite(y)
        with np.errstate(over="ignore"):  # +inf within a few ulps of a singular cusp
            out[finite] = np.exp(self.log_pdf(y[finite]))
        return out

    def _gl(self, lo: np.ndarray, d: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """Integral of f(sign y) over y in [lo, lo + d], one Gauss-Legendre rule per point."""
        return d * (np.exp(self.log_pdf(sign * (lo[:, None] + d[:, None] * _GL_R))) @ _GL_W)

    def _log_g(self, u: np.ndarray, side) -> np.ndarray:
        """log of the smooth factor f(side u) / u^(2a - 1) of a singular cusp, at u > 0."""
        return self.log_pdf(side * u) - (2.0 * self.a - 1.0) * np.log(u)

    def _cusp_factor(self, s: np.ndarray, side: np.ndarray) -> np.ndarray:
        """H(s) with mass s^(2a) H(s) between 0 and side * s, by Gauss-Jacobi."""
        r, weights = self.cusp_rule
        u = np.maximum(s[:, None] * r, self.floor)
        return np.exp(self._log_g(u, side[:, None])) @ weights

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(panel edges, mass left of each edge, mass right of each edge, index of the
        cusp edge y = 0); the panel masses are scaled by their total."""
        s, step = self.scale, 0.5 * self.scale
        halves = s * 0.5 ** (0.5 * np.arange(_VG_LEVELS, -1, -1.0))
        n_lo = math.ceil((max(-self.mean, 0.0) + _VG_REACH * s - s) / step)
        n_hi = math.ceil((max(self.mean, 0.0) + _VG_REACH * s - s) / step)
        edges = np.concatenate([-(s + step * np.arange(n_lo, 0, -1.0)), -halves[::-1], [0.0],
                                halves, s + step * np.arange(1.0, n_hi + 1)])
        cusp = n_lo + _VG_LEVELS + 1
        mass = self._gl(edges[:-1], np.diff(edges))
        if self.cusp_rule is not None:
            h, sides = np.full(2, halves[0]), np.array([-1.0, 1.0])
            mass[cusp - 1:cusp + 1] = h ** (2.0 * self.a) * self._cusp_factor(h, sides)
        total = mass.sum()
        if not abs(total - 1.0) <= 1e-10:
            raise NumericError(f"VG marginal law at t={self.t}: table mass {total!r} is not 1",
                               achieved=abs(total - 1.0))
        mass /= total
        return (edges, np.concatenate([[0.0], np.cumsum(mass)]),
                np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]]), cusp)

    def _in_cusp(self, k: np.ndarray, cusp: int) -> np.ndarray:
        return (k == cusp) | (k == cusp - 1) if self.cusp_rule is not None else np.zeros(k.shape, bool)

    def cdf(self, y: np.ndarray) -> np.ndarray:
        """F_t at 1-d y; round-off reversals between close points are removed by a
        running maximum along sorted y, so F is non-decreasing in floating point."""
        edges, cum, _, cusp = self.table
        order = np.argsort(y, kind="stable")
        ys = y[order]
        k = np.searchsorted(edges, ys, side="right") - 1
        out = np.where(k < 0, 0.0, cum[-1])
        inside = np.flatnonzero((k >= 0) & (k < edges.size - 1))
        at = self._in_cusp(k[inside], cusp)
        i, ki = inside[~at], k[inside[~at]]
        out[i] = cum[ki] + self._gl(edges[ki], ys[i] - edges[ki])
        if at.any():
            i = inside[at]
            side, s = np.where(k[i] == cusp, 1.0, -1.0), np.abs(ys[i])
            out[i] = cum[cusp] + side * s ** (2.0 * self.a) * self._cusp_factor(s, side)
        out = np.clip(np.maximum.accumulate(out), 0.0, 1.0)
        result = np.empty_like(out)
        result[order] = out
        return np.where(np.isnan(y), np.nan, result)

    def quantile(self, u: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """The quantile of sign * Y_t at 1-d levels in (0, 1): bracket by the table, then
        safeguarded Newton.  For sign = -1 the table is read reflected: edges -e[::-1],
        the masses right of each edge, and the density at -y."""
        edges, cum, right, cusp = self.table
        if sign < 0:
            edges, cum, cusp = -edges[::-1], right[::-1], edges.size - 1 - cusp
        k = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, edges.size - 2)
        at = self._in_cusp(k, cusp)
        y = np.empty_like(u)
        ki = k[~at]
        lo, width, base = edges[ki], edges[ki + 1] - edges[ki], cum[ki]
        target = u[~at] - base
        guess = width * np.clip(np.divide(target, cum[ki + 1] - base, out=np.full_like(target, 0.5),
                                          where=cum[ki + 1] > base), 0.0, 1.0)
        y[~at] = lo + _solve_increasing(
            lambda w, i: (self._gl(lo[i], w, sign) - target[i], np.exp(self.log_pdf(sign * (lo[i] + w)))),
            np.zeros_like(guess), width, guess, np.abs(lo), "VG quantile")
        if at.any():
            # in w = |y|^(2a) the mass from the cusp is w H(|y|), nearly linear
            side = np.where(k[at] == cusp, 1.0, -1.0)
            power = 2.0 * self.a
            top = edges[cusp + 1] ** power
            target = np.maximum(side * (u[at] - cum[cusp]), 0.0)
            mass = np.where(side > 0, cum[cusp + 1] - cum[cusp], cum[cusp] - cum[cusp - 1])
            guess = top * np.clip(target / mass, 0.0, 1.0)

            def resid_slope(w, i):
                s = w ** (1.0 / power)
                return (w * self._cusp_factor(s, sign * side[i]) - target[i],
                        np.exp(self._log_g(np.maximum(s, self.floor), sign * side[i])) / power)

            w = _solve_increasing(resid_slope, np.zeros_like(target), np.full_like(target, top), guess,
                                  0.0, "VG quantile")
            y[at] = side * w ** (1.0 / power)
        return y


@dataclass(frozen=True, eq=False)
class VarianceGamma(Driver):
    """Variance-gamma driver with drift ``mu_vg``, volatility ``sigma_vg``, variance rate ``nu``.

    Paths are generated as the difference of two independent gamma
    subordinators; the time-changed Brownian representation is kept as an
    alternative sampler for cross-validation.

    The marginal law is exact.  With a = t/nu and c = 2 sigma^2/nu + mu^2, the
    density is the Bessel-K closed form of Madan, Carr and Chang (1998),

        f_t(y) = 2 e^{mu y / sigma^2} (y^2 / c)^{a/2 - 1/4} K_{a - 1/2}(sqrt(c) |y| / sigma^2)
                 / (nu^a sqrt(2 pi) sigma Gamma(a)),

    evaluated in log space.  It has a cusp at y = 0: there it takes the finite
    limit Gamma(a - 1/2) (2 sigma^2 / c)^{a - 1/2} / (nu^a sqrt(2 pi) sigma Gamma(a))
    when a > 1/2, and +inf when a <= 1/2.  The CDF and quantile integrate the
    density on a panel table built once per time and cached.
    """

    mu_vg: float = 0.0
    sigma_vg: float = 1.0
    nu: float = 0.5
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    kind = "VarianceGamma"

    def validate(self, t: float = 1.0) -> None:
        if not math.isfinite(self.mu_vg):
            raise ParameterError(f"VG mu must be finite, got {self.mu_vg}")
        _check_positive("VG sigma", self.sigma_vg)
        _check_positive("VG nu", self.nu)

    def _gamma_rates(self) -> tuple[float, float]:
        root = 0.5 * math.sqrt(self.mu_vg ** 2 + 2.0 * self.sigma_vg ** 2 / self.nu)
        return root + 0.5 * self.mu_vg, root - 0.5 * self.mu_vg

    def sample_transition(self, rng, s, t, states):
        dt = t - s
        mu_p, mu_q = self._gamma_rates()
        shape = dt / self.nu
        up = rng.gamma(shape, self.nu * mu_p, size=np.shape(states))
        dn = rng.gamma(shape, self.nu * mu_q, size=np.shape(states))
        return states + up - dn

    def sample_transition_time_changed(self, rng, s, t, states):
        """Alternative exact sampler: Brownian motion run on a gamma clock."""
        dt = t - s
        dG = rng.gamma(dt / self.nu, self.nu, size=np.shape(states))
        return states + self.mu_vg * dG + self.sigma_vg * np.sqrt(dG) * rng.standard_normal(np.shape(states))

    def _law(self, t: float) -> _VGLaw:
        if t not in self._cache:
            _check_time(t)
            self.validate()
            self._cache[t] = _VGLaw(self.mu_vg, self.sigma_vg, self.nu, t)
        return self._cache[t]

    def cdf(self, t, y):
        yv = np.asarray(y, dtype=float)
        return self._law(t).cdf(yv.ravel()).reshape(yv.shape)[()]

    def pdf(self, t, y):
        yv = np.asarray(y, dtype=float)
        return self._law(t).pdf(yv.ravel()).reshape(yv.shape)[()]

    def quantile(self, t, u):
        """F_t^{-1}; a level u > 1/2 reads -Q(1 - u), the quantile of -Y_t, where 1 - u is
        exact and the table's right masses resolve it."""
        uv = clip_unit(np.asarray(u, dtype=float))
        flat = uv.ravel()
        y = np.full_like(flat, np.nan)
        for part, sign in ((flat <= 0.5, 1.0), (flat > 0.5, -1.0)):
            if part.any():
                y[part] = sign * self._law(t).quantile((flat if sign > 0 else 1.0 - flat)[part], sign)
        return y.reshape(uv.shape)[()]

    def transition_pdf(self, s, t, state, y):
        # VG has stationary independent increments
        return self.pdf(t - s, np.asarray(y, dtype=float) - np.asarray(state, dtype=float))


@dataclass(frozen=True)
class GammaProcess(Driver):
    """Gamma subordinator with mean rate ``mean_rate`` and variance rate ``variance_rate``."""

    mean_rate: float = 1.0
    variance_rate: float = 1.0

    kind = "GammaProcess"

    def validate(self, t: float = 1.0) -> None:
        _check_positive("gamma mean rate", self.mean_rate)
        _check_positive("gamma variance rate", self.variance_rate)

    def _shape_scale(self, dt: float) -> tuple[float, float]:
        return self.mean_rate ** 2 * dt / self.variance_rate, self.variance_rate / self.mean_rate

    def sample_transition(self, rng, s, t, states):
        shape, scale = self._shape_scale(t - s)
        return states + rng.gamma(shape, scale, size=np.shape(states))

    def transition_from_score(self, s, t, states, x):
        shape, scale = self._shape_scale(t - s)
        return states + scale * special.gammaincinv(shape, clip_unit(special.ndtr(x)))

    def cdf(self, t, y):
        _check_time(t)
        return _gamma_cdf(y, *self._shape_scale(t))

    def pdf(self, t, y):
        _check_time(t)
        return _gamma_pdf(y, *self._shape_scale(t))

    def quantile(self, t, u):
        _check_time(t)
        return _gamma_ppf(u, *self._shape_scale(t))

    def transition_pdf(self, s, t, state, y):
        _check_step(s, t)
        return _gamma_pdf(np.asarray(y, dtype=float) - np.asarray(state, dtype=float),
                          *self._shape_scale(t - s))


@dataclass(frozen=True, eq=False)
class InhomogeneousPoisson(Driver):
    """Counting process with deterministic intensity lambda(t) >= 0.

    A grid step from s to t adds an independent Poisson count whose mean is
    lambda integrated over (s, t].  ``sample_events`` draws event times by
    thinning: ``sup_intensity(a, b)`` may be supplied to bound the intensity
    on [a, b]; otherwise the bound is estimated by dense sampling (1000
    points, scanned once per horizon).
    """

    intensity: TimeParam = 1.0
    sup_intensity: Optional[Callable[[float, float], float]] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    kind = "InhomogeneousPoisson"
    is_discrete = True
    level_native = True

    def validate(self, t: float = 1.0) -> None:
        lam = as_time_fn(self.intensity)
        for s in (MIN_TIME, 0.5, 1.0):
            if lam(s) < 0:
                raise ParameterError("Poisson intensity must be non-negative")

    def _sup_on(self, a: float, b: float) -> float:
        key = ("sup", a, b)
        if key in self._cache:
            return self._cache[key]
        if self.sup_intensity is not None:
            bound = float(self.sup_intensity(a, b))
        else:
            lam = as_time_fn(self.intensity)
            ts = np.linspace(a, b, 1000)
            bound = float(np.max([lam(t) for t in ts]))
        if not math.isfinite(bound) or bound * max(b - a, 1.0) > 1e12:
            raise SimulationError(
                f"intensity supremum on [{a}, {b}] is not finite enough to thin against")
        self._cache[key] = bound
        return bound

    def cumulative_intensity(self, t: float) -> float:
        key = ("cum", t)
        if key not in self._cache:
            lam = as_time_fn(self.intensity)
            self._cache[key] = adaptive_quad(lam, 0.0, t, what="cumulative intensity")
        return self._cache[key]

    def sample_events(self, rng: np.random.Generator, t_max: float) -> np.ndarray:
        """Event times on (0, t_max] by thinning against the intensity supremum."""
        lam = as_time_fn(self.intensity)
        bound = self._sup_on(0.0, t_max)
        if bound == 0.0:
            return np.empty(0)
        n = rng.poisson(bound * t_max)
        cand = np.sort(rng.uniform(0.0, t_max, size=n))
        accept = rng.uniform(0.0, 1.0, size=n) * bound <= np.array([lam(c) for c in cand])
        return cand[accept]

    def sample_transition(self, rng, s, t, states):
        # integrate over (s, t] itself: a difference of cumulative intensities
        # can come out a round-off below zero where lambda vanishes on the step;
        # memoised, so a path count drawn in blocks integrates once
        key = ("step", s, t)
        try:
            if key not in self._cache:
                lam = as_time_fn(self.intensity)
                self._cache[key] = adaptive_quad(lam, s, t, what="intensity integral")
            return np.asarray(states, dtype=float) + rng.poisson(self._cache[key],
                                                                 size=np.shape(states))
        except (NumericError, ValueError) as exc:
            raise SimulationError(f"no Poisson increment on ({s}, {t}]: {exc}") from exc

    def cdf(self, t, y):
        _check_time(t)
        return _poisson_cdf(y, self.cumulative_intensity(t))

    def quantile(self, t, u):
        _check_time(t)
        return _poisson_ppf(u, self.cumulative_intensity(t))

    def pmf(self, t, k):
        _check_time(t)
        return _poisson_pmf(k, self.cumulative_intensity(t))

    def pdf(self, t, y):
        raise CapabilityError("the Poisson driver is discrete; use pmf")


def step_grid(times: np.ndarray, states: np.ndarray,
              step: Callable[[float, float, np.ndarray], np.ndarray]) -> np.ndarray:
    """Carry ``states`` along the grid from time zero, ``states = step(s, t, states)``.

    Returns the state at every grid time in a new last axis; a grid time of
    zero records the start state without a step.
    """
    paths = np.empty(np.shape(states) + (len(times),))
    prev = 0.0
    for k, t in enumerate(times):
        if t > prev:
            states = step(prev, t, states)
        paths[..., k] = states
        prev = t
    return paths


def simulate(driver: Driver, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Generate an ensemble of exact-transition sample paths.

    Reproducible: identical (driver, grid, n_paths, seed) give a bit-identical
    path matrix.
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be at least 1")
    driver.validate()
    anchor = driver.initial_value()
    if grid.origin_value is not None and grid.origin_value != anchor:
        raise ParameterError(
            f"grid origin_value {grid.origin_value} conflicts with the driver's "
            f"time-zero value {anchor}")
    rng = substream(seed)
    paths = step_grid(grid.times, np.full(n_paths, anchor, dtype=float),
                      partial(driver.sample_transition, rng))
    if not np.all(np.isfinite(paths)):
        raise SimulationError("simulation produced non-finite path values")
    return PathEnsemble(grid=grid, paths=paths, seed=int(seed), driver=driver)


def simulate_conditional(driver: Driver, s: float, t: float, states: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """One exact transition of every state from time s to time t > s."""
    if t <= s:
        raise ParameterError("conditional simulation needs t > s")
    return driver.sample_transition(rng, s, t, np.asarray(states, dtype=float))


def marginal_cdf(driver: Driver, t: float, y):
    """F_Y(t, y) for the driver's marginal law; defined on t > 0."""
    if t <= 0:
        raise ParameterError("marginal laws are defined for t > 0")
    return driver.cdf(t, y)


def marginal_pdf(driver: Driver, t: float, y):
    if t <= 0:
        raise ParameterError("marginal laws are defined for t > 0")
    return driver.pdf(t, y)


def uniformize(driver: Driver, ensemble: PathEnsemble) -> PathEnsemble:
    """Apply the probability integral transform U_t = F_Y(t, Y_t) column-wise.

    Each column of the result is marginally Uniform[0, 1] up to Monte Carlo
    error; values are clamped strictly inside (0, 1).
    """
    if driver.is_discrete:
        raise CapabilityError("uniformize needs a continuous marginal law")
    ensemble.grid.require_positive()
    out = np.empty_like(ensemble.paths)
    for k, t in enumerate(ensemble.grid.times):
        out[:, k] = driver.cdf(t, ensemble.paths[:, k])
    return PathEnsemble(grid=ensemble.grid, paths=clip_unit(out),
                        seed=ensemble.seed, driver=driver)


def poisson_pivot(lambda_fn: TimeParam, target_rate: float, events: Sequence[float]) -> np.ndarray:
    """Map inhomogeneous Poisson events to a homogeneous process of the target rate.

    An event at time x is sent to M(x) / target_rate where M is the cumulative
    intensity, so mapped inter-arrivals are Exp(target_rate).  Requires the
    cumulative intensity to be strictly increasing at every event.
    """
    _check_positive("target rate", target_rate)
    events = np.asarray(sorted(events), dtype=float)
    if events.size == 0:
        return events
    lam = as_time_fn(lambda_fn)
    for x in events:
        if lam(x) <= 0:
            raise MappingError(
                f"cumulative intensity is flat at event time {x}; mapping is not invertible")
    proc = InhomogeneousPoisson(intensity=lambda_fn)
    mapped = np.array([proc.cumulative_intensity(x) for x in events]) / float(target_rate)
    return mapped
