"""Driving risk processes: exact-transition simulation and marginal laws.

Implemented drivers: standard Brownian motion, time-inhomogeneous
Ornstein-Uhlenbeck, variance-gamma (as a difference of two gamma
subordinators), gamma process, and inhomogeneous Poisson counting process.
Every grid step draws from its exact transition law (no Euler bias); only
Poisson event times on a continuous horizon are drawn by thinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special, stats

from ._util import (TimeParam, _norm_cdf, _norm_pdf, _norm_ppf, adaptive_quad, as_time_fn,
                    clip_unit, substream)
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


class Driver:
    """Common interface of the driving processes.

    Every driver is Markov with an exactly samplable transition law, a
    marginal law on t > 0, and (where it exists) a marginal density.
    """

    kind: str = "abstract"
    is_gaussian: bool = False
    is_discrete: bool = False

    def validate(self) -> None:
        """Raise ParameterError if parameters violate their admissible range."""

    def initial_value(self) -> float:
        return 0.0

    def sample_transition(self, rng: np.random.Generator, s: float, t: float,
                          states: np.ndarray) -> np.ndarray:
        """Draw Y_t given Y_s = states (exact transition law)."""
        raise NotImplementedError

    def marginal_cdf(self, t: float, y) -> np.ndarray:
        raise NotImplementedError

    def marginal_pdf(self, t: float, y) -> np.ndarray:
        raise NotImplementedError

    def marginal_quantile(self, t: float, u) -> np.ndarray:
        raise NotImplementedError

    def transition_pdf(self, s: float, t: float, state, y) -> np.ndarray:
        raise NotImplementedError

    def transition_from_uniform(self, s: float, t: float, states: np.ndarray,
                                u: np.ndarray) -> np.ndarray:
        """Exact transition of ``states`` from s to t driven by one innovation uniform each."""
        raise CapabilityError(
            f"{self.kind} transitions need more than one innovation per step and cannot "
            f"be coupled through a Gaussian innovation copula")

    def marginal_mean_std(self, t: float) -> tuple[float, float]:
        raise CapabilityError(f"{self.kind} driver has no Gaussian mean/std decomposition")


class GaussianDriver(Driver):
    """A driver whose marginal and transition laws are normal.

    Subclasses give the means and standard deviations, ``marginal_mean_std(t)``
    and ``_transition_mean_std(s, t, states)``; every law and sampler follows.
    """

    is_gaussian = True

    def _transition_mean_std(self, s: float, t: float, states) -> tuple:
        raise NotImplementedError

    def sample_transition(self, rng, s, t, states):
        mean, sd = self._transition_mean_std(s, t, states)
        return mean + sd * rng.standard_normal(np.shape(states))

    def transition_from_uniform(self, s, t, states, u):
        return _norm_ppf(clip_unit(u), *self._transition_mean_std(s, t, states))

    def marginal_cdf(self, t, y):
        return _norm_cdf(y, *self.marginal_mean_std(t))

    def marginal_pdf(self, t, y):
        return _norm_pdf(y, *self.marginal_mean_std(t))

    def marginal_quantile(self, t, u):
        return _norm_ppf(u, *self.marginal_mean_std(t))

    def transition_pdf(self, s, t, state, y):
        return _norm_pdf(y, *self._transition_mean_std(s, t, np.asarray(state, dtype=float)))


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

    def validate(self) -> None:
        sig = as_time_fn(self.sigma)
        for t in (MIN_TIME, 0.5, 1.0):
            if not sig(t) > 0:
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


@dataclass(frozen=True, eq=False)
class VarianceGamma(Driver):
    """Variance-gamma driver with drift ``mu_vg``, volatility ``sigma_vg``, variance rate ``nu``.

    Paths are generated as the difference of two independent gamma
    subordinators; the time-changed Brownian representation is kept as an
    alternative sampler for cross-validation.
    """

    mu_vg: float = 0.0
    sigma_vg: float = 1.0
    nu: float = 0.5
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    kind = "VarianceGamma"

    def validate(self) -> None:
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

    # gamma-mixture quadrature nodes on a log grid, cached per time ---------
    def _mixture_nodes(self, t: float, n: int = 1601) -> tuple[np.ndarray, np.ndarray]:
        key = (t, n)
        if key not in self._cache:
            a = t / self.nu
            log_scale = math.log(self.nu)

            def logw(w):  # log of gamma density times e^w (log-substitution Jacobian)
                return a * w - np.exp(w) / self.nu - special.gammaln(a) - a * log_scale

            w_peak = math.log(a * self.nu)  # = log t, the subordinator mean scale
            peak = logw(w_peak)
            lo, hi = w_peak, w_peak
            while logw(lo) > peak - 40.0:
                lo -= 0.5
            while logw(hi) > peak - 40.0:
                hi += 0.5
            w = np.linspace(lo, hi, n)
            dens = np.exp(logw(w))
            step = w[1] - w[0]
            wts = np.full(n, step)
            wts[0] = wts[-1] = step / 2.0  # trapezoid; integrand vanishes at both ends
            self._cache[key] = (np.exp(w), dens * wts)
        return self._cache[key]

    def marginal_cdf(self, t, y):
        u, wts = self._mixture_nodes(t)
        yv = np.asarray(y, dtype=float)
        z = (yv[..., None] - self.mu_vg * u) / (self.sigma_vg * np.sqrt(u))
        out = special.ndtr(z) @ wts
        total = wts.sum()
        return np.clip(out / total, 0.0, 1.0)

    def marginal_pdf(self, t, y):
        u, wts = self._mixture_nodes(t)
        yv = np.asarray(y, dtype=float)
        z = (yv[..., None] - self.mu_vg * u) / (self.sigma_vg * np.sqrt(u))
        kern = np.exp(-0.5 * z * z) / (self.sigma_vg * np.sqrt(2.0 * math.pi * u))
        return (kern @ wts) / wts.sum()

    def marginal_quantile(self, t, u):
        from scipy.optimize import brentq

        uv = np.atleast_1d(np.asarray(u, dtype=float))
        sd = math.sqrt((self.sigma_vg ** 2 + self.nu * self.mu_vg ** 2) * t)
        lo, hi = self.mu_vg * t - 60 * sd, self.mu_vg * t + 60 * sd
        out = np.array([
            brentq(lambda y, q=q: float(self.marginal_cdf(t, y)) - q, lo, hi, xtol=1e-12)
            for q in clip_unit(uv)
        ])
        return out if np.ndim(u) else float(out[0])

    def transition_pdf(self, s, t, state, y):
        # VG has stationary independent increments
        return self.marginal_pdf(t - s, np.asarray(y, dtype=float) - np.asarray(state, dtype=float))


@dataclass(frozen=True)
class GammaProcess(Driver):
    """Gamma subordinator with mean rate ``mean_rate`` and variance rate ``variance_rate``."""

    mean_rate: float = 1.0
    variance_rate: float = 1.0

    kind = "GammaProcess"

    def validate(self) -> None:
        _check_positive("gamma mean rate", self.mean_rate)
        _check_positive("gamma variance rate", self.variance_rate)

    def _shape_scale(self, dt: float) -> tuple[float, float]:
        return self.mean_rate ** 2 * dt / self.variance_rate, self.variance_rate / self.mean_rate

    def sample_transition(self, rng, s, t, states):
        shape, scale = self._shape_scale(t - s)
        return states + rng.gamma(shape, scale, size=np.shape(states))

    def transition_from_uniform(self, s, t, states, u):
        shape, scale = self._shape_scale(t - s)
        return states + scale * special.gammaincinv(shape, clip_unit(u))

    def marginal_cdf(self, t, y):
        shape, scale = self._shape_scale(t)
        return stats.gamma.cdf(np.asarray(y, dtype=float), shape, scale=scale)

    def marginal_pdf(self, t, y):
        shape, scale = self._shape_scale(t)
        return stats.gamma.pdf(np.asarray(y, dtype=float), shape, scale=scale)

    def marginal_quantile(self, t, u):
        shape, scale = self._shape_scale(t)
        return stats.gamma.ppf(np.asarray(u, dtype=float), shape, scale=scale)

    def transition_pdf(self, s, t, state, y):
        shape, scale = self._shape_scale(t - s)
        return stats.gamma.pdf(np.asarray(y, dtype=float) - np.asarray(state, dtype=float),
                               shape, scale=scale)


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

    def validate(self) -> None:
        lam = as_time_fn(self.intensity)
        for t in (MIN_TIME, 0.5, 1.0):
            if lam(t) < 0:
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
        # can come out a round-off below zero where lambda vanishes on the step
        try:
            mean = adaptive_quad(as_time_fn(self.intensity), s, t, what="intensity integral")
            return np.asarray(states, dtype=float) + rng.poisson(mean, size=np.shape(states))
        except (NumericError, ValueError) as exc:
            raise SimulationError(f"no Poisson increment on ({s}, {t}]: {exc}") from exc

    def marginal_cdf(self, t, y):
        mean = self.cumulative_intensity(t)
        return stats.poisson.cdf(np.floor(np.asarray(y, dtype=float)), mean)

    def marginal_pmf(self, t, k):
        mean = self.cumulative_intensity(t)
        return stats.poisson.pmf(np.asarray(k), mean)

    def marginal_pdf(self, t, y):
        raise CapabilityError("the Poisson driver is discrete; use marginal_pmf")


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
    return driver.marginal_cdf(t, y)


def marginal_pdf(driver: Driver, t: float, y):
    if t <= 0:
        raise ParameterError("marginal laws are defined for t > 0")
    return driver.marginal_pdf(t, y)


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
        out[:, k] = driver.marginal_cdf(t, ensemble.paths[:, k])
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
