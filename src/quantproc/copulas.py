"""Multidimensional quantile processes through copulas.

An m-variate driver vector enters the composite map through a copula: the
output Z_t = Q(C(t, F_1(Y^1), ..., F_m(Y^m))) stays univariate.  Under the
true joint law the distorted CDF collapses to the Kendall distribution
function of the copula evaluated at the quantile family's CDF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import stats

from . import drivers as drv
from . import measures as me
from . import transforms as tr
from . import valuation as va
from ._util import TimeParam, as_time_fn, clip_unit, substream
from .errors import CapabilityError, ParameterError, RequestError

__all__ = [
    "CopulaSpec",
    "IndependenceCopula",
    "ComonotoneCopula",
    "GaussianCopula",
    "ClaytonCopula",
    "GumbelCopula",
    "copula_eval",
    "kendall_function",
    "kendall_table_csv",
    "MultiMode",
    "MultiCompositeMap",
    "simulate_joint",
    "simulate_joint_terminal",
    "apply_multi_composite",
    "multi_distorted_cdf",
    "multi_layer_premium",
    "multi_rn_derivative",
]


# ---------------------------------------------------------------------------
# copula families
# ---------------------------------------------------------------------------

class CopulaSpec:
    """An m-dimensional copula with evaluation, sampling, and Kendall function."""

    family: str = "abstract"
    dim: int = 2

    def validate(self, t: float = 1.0) -> None:
        # dim 1 is the degenerate edge C(u) = u, allowed only for the
        # parameter-free families so the multivariate machinery reduces to
        # the univariate composite
        min_dim = 1 if self.family in ("Independence", "Comonotone") else 2
        if self.dim < min_dim:
            raise ParameterError(f"copula dimension must be at least {min_dim}")

    def cdf(self, t: float, u: np.ndarray) -> np.ndarray:
        """C(t, u) for u of shape (..., dim)."""
        raise NotImplementedError

    def sample(self, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws of the copula's uniforms, shape (n, dim)."""
        raise NotImplementedError

    def kendall_closed_form(self, t: float):
        """K(t, v) as a vectorized callable, or None when no closed form applies."""
        return None

    def kendall_derivative(self, t: float):
        """dK/dv as a vectorized callable, or None."""
        return None


def _check_u(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != dim:
        raise ParameterError(f"copula argument must have {dim} components")
    if np.any((u < 0) | (u > 1)):
        raise ParameterError("copula arguments must lie in [0, 1]")
    return u


@dataclass(frozen=True)
class IndependenceCopula(CopulaSpec):
    dim: int = 2

    family = "Independence"

    def cdf(self, t, u):
        u = _check_u(u, self.dim)
        return np.prod(u, axis=-1)

    def sample(self, t, n, rng):
        return rng.uniform(size=(n, self.dim))

    def kendall_closed_form(self, t):
        m = self.dim

        def K(v):
            v = np.asarray(v, dtype=float)
            # law of a product of m independent uniforms
            out = np.zeros_like(v)
            pos = v > 0
            lv = -np.log(np.where(pos, v, 1.0))
            acc = np.zeros_like(v)
            term = np.ones_like(v)
            for k in range(m):
                if k > 0:
                    term = term * lv / k
                acc = acc + term
            out[pos] = (v * acc)[pos]
            return np.clip(out, 0.0, 1.0)

        return K

    def kendall_derivative(self, t):
        m = self.dim

        def dK(v):
            v = np.asarray(v, dtype=float)
            lv = -np.log(v)
            return lv ** (m - 1) / math.factorial(m - 1)

        return dK


@dataclass(frozen=True)
class ComonotoneCopula(CopulaSpec):
    dim: int = 2

    family = "Comonotone"

    def cdf(self, t, u):
        u = _check_u(u, self.dim)
        return np.min(u, axis=-1)

    def sample(self, t, n, rng):
        v = rng.uniform(size=n)
        return np.repeat(v[:, None], self.dim, axis=1)

    def kendall_closed_form(self, t):
        return lambda v: np.asarray(v, dtype=float)

    def kendall_derivative(self, t):
        return lambda v: np.ones_like(np.asarray(v, dtype=float))


@dataclass(frozen=True, eq=False)
class GaussianCopula(CopulaSpec):
    """Gaussian copula with a fixed correlation matrix (unit diagonal, PSD)."""

    corr: np.ndarray = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    family = "GaussianCopula"

    def __post_init__(self):
        c = np.asarray(self.corr, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ParameterError("correlation matrix must be square")
        object.__setattr__(self, "corr", c)
        object.__setattr__(self, "dim", c.shape[0])

    def validate(self, t: float = 1.0) -> None:
        super().validate(t)
        c = self.corr
        if not np.allclose(c, c.T, atol=1e-12):
            raise ParameterError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(c), 1.0, atol=1e-12):
            raise ParameterError("correlation matrix must have unit diagonal")
        eigmin = float(np.linalg.eigvalsh(c).min())
        if eigmin < -1e-10:
            raise ParameterError(f"correlation matrix is not PSD (min eigenvalue {eigmin:.2e})")

    def _chol(self) -> np.ndarray:
        if "chol" not in self._cache:
            self.validate()
            c = self.corr + 1e-12 * np.eye(self.dim)
            self._cache["chol"] = np.linalg.cholesky(c)
        return self._cache["chol"]

    def cdf(self, t, u):
        self.validate()
        u = _check_u(u, self.dim)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        z = stats.norm.ppf(clip_unit(pts))
        mvn = stats.multivariate_normal(mean=np.zeros(self.dim), cov=self.corr,
                                        allow_singular=True)
        # quasi-Monte-Carlo normal integration; accuracy ~1e-6 at default settings
        out = np.atleast_1d(np.asarray(mvn.cdf(z), dtype=float))
        out = np.where(np.any(pts <= 0.0, axis=1), 0.0, np.clip(out, 0.0, 1.0))
        return float(out[0]) if single else out

    def sample(self, t, n, rng):
        z = rng.standard_normal((n, self.dim)) @ self._chol().T
        return stats.norm.cdf(z)


class _Archimedean(CopulaSpec):
    """Common machinery for generator-based families (bivariate Kendall closed form)."""

    def generator(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def generator_ratio(self, t: float, v: np.ndarray) -> np.ndarray:
        """phi(v) / phi'(v), the Kendall correction term."""
        raise NotImplementedError

    def kendall_closed_form(self, t):
        if self.dim != 2:
            return None

        def K(v):
            v = np.asarray(v, dtype=float)
            out = np.where(v <= 0, 0.0, np.where(v >= 1, 1.0,
                           v - self.generator_ratio(t, np.clip(v, 1e-300, 1.0))))
            return np.clip(out, 0.0, 1.0)

        return K


@dataclass(frozen=True)
class ClaytonCopula(_Archimedean):
    """Clayton family, generator ((v^-theta) - 1)/theta, lower-tail dependent."""

    theta: TimeParam = 1.0
    dim: int = 2

    family = "Clayton"

    def _theta(self, t: float) -> float:
        th = as_time_fn(self.theta)(t)
        if not th > 0:
            raise ParameterError(f"Clayton theta must be positive, got {th}")
        return th

    def validate(self, t: float = 1.0) -> None:
        super().validate(t)
        self._theta(t)

    def cdf(self, t, u):
        th = self._theta(t)
        u = _check_u(u, self.dim)
        zero = np.any(u <= 0.0, axis=-1)
        s = np.sum(np.where(u > 0, u, 1.0) ** (-th), axis=-1) - (self.dim - 1)
        out = np.maximum(s, 0.0) ** (-1.0 / th)
        return np.where(zero, 0.0, out)

    def sample(self, t, n, rng):
        th = self._theta(t)
        mix = rng.gamma(1.0 / th, 1.0, size=n)
        e = rng.exponential(size=(n, self.dim))
        return (1.0 + e / mix[:, None]) ** (-1.0 / th)

    def generator_ratio(self, t, v):
        th = self._theta(t)
        return -v * (1.0 - v ** th) / th

    def kendall_derivative(self, t):
        if self.dim != 2:
            return None
        th = self._theta(t)

        def dK(v):
            v = np.asarray(v, dtype=float)
            return 1.0 + (1.0 - (th + 1.0) * v ** th) / th

        return dK


@dataclass(frozen=True)
class GumbelCopula(_Archimedean):
    """Gumbel family, generator (-log v)^theta, upper-tail dependent."""

    theta: TimeParam = 1.5
    dim: int = 2

    family = "Gumbel"

    def _theta(self, t: float) -> float:
        th = as_time_fn(self.theta)(t)
        if th < 1.0:
            raise ParameterError(f"Gumbel theta must be >= 1, got {th}")
        return th

    def validate(self, t: float = 1.0) -> None:
        super().validate(t)
        self._theta(t)

    def cdf(self, t, u):
        th = self._theta(t)
        u = _check_u(u, self.dim)
        zero = np.any(u <= 0.0, axis=-1)
        lu = -np.log(np.where(u > 0, u, 1.0))
        s = np.sum(lu ** th, axis=-1)
        out = np.exp(-s ** (1.0 / th))
        return np.where(zero, 0.0, out)

    def sample(self, t, n, rng):
        th = self._theta(t)
        if th == 1.0:
            return rng.uniform(size=(n, self.dim))
        # positive stable mixing variable, Chambers-Mallows-Stuck construction:
        # S has Laplace transform exp(-lambda^alpha)
        alpha = 1.0 / th
        theta0 = rng.uniform(0.0, math.pi, size=n)
        w = rng.exponential(size=n)
        num = np.sin(alpha * theta0)
        den = np.sin(theta0) ** (1.0 / alpha)
        tail = (np.sin((1.0 - alpha) * theta0) / w) ** ((1.0 - alpha) / alpha)
        s = num / den * tail
        e = rng.exponential(size=(n, self.dim))
        return np.exp(-((e / s[:, None]) ** alpha))

    def generator_ratio(self, t, v):
        th = self._theta(t)
        return v * np.log(v) / th

    def kendall_derivative(self, t):
        if self.dim != 2:
            return None
        th = self._theta(t)

        def dK(v):
            v = np.asarray(v, dtype=float)
            return 1.0 - (np.log(v) + 1.0) / th

        return dK


def copula_eval(spec: CopulaSpec, t: float, u) -> np.ndarray:
    """C(t, u) with the boundary conventions of a copula."""
    spec.validate(t)
    return spec.cdf(t, np.asarray(u, dtype=float))


def kendall_function(spec: CopulaSpec, t: float, v, n_samples: int = 100_000,
                     seed: int = 0):
    """K(t, v): the distribution function of the copula at its own uniforms.

    Families with a closed form (Archimedean in two dimensions, independence,
    comonotone) use it; anything else falls back to the empirical estimator
    from ``n_samples`` copula draws.  Fewer than 1e4 samples triggers a
    precision warning.
    """
    spec.validate(t)
    closed = spec.kendall_closed_form(t)
    vv = np.asarray(v, dtype=float)
    if closed is not None:
        return closed(vv)
    if n_samples < 10_000:
        warnings.warn("empirical Kendall estimate below 1e4 samples is imprecise",
                      stacklevel=2)
    rng = substream(seed, 71)
    draws = spec.sample(t, n_samples, rng)
    c = spec.cdf(t, draws)
    return np.searchsorted(np.sort(c), vv, side="right") / float(n_samples)


# ---------------------------------------------------------------------------
# joint driver simulation
# ---------------------------------------------------------------------------

class MultiMode:
    TRUE_JOINT_LAW = "TrueJointLaw"
    FALSE_LAW = "FalseLaw"


@dataclass(frozen=True)
class MultiCompositeMap:
    """m marginal distribution maps, a copula, and a quantile family."""

    margins: tuple
    copula: CopulaSpec
    quantile: tr.QuantileSpec
    mode: str = MultiMode.TRUE_JOINT_LAW

    def validate(self, t: float = 1.0) -> None:
        if len(self.margins) != self.copula.dim:
            raise ParameterError("number of margins must match the copula dimension")
        self.copula.validate(t)
        self.quantile.validate(t)
        for mg in self.margins:
            mg.validate(t)


def simulate_joint(drivers: Sequence[drv.Driver], copula: CopulaSpec, grid: drv.TimeGrid,
                   n_paths: int, seed: int) -> list[drv.PathEnsemble]:
    """Simulate m drivers with dependence induced on their per-step innovations.

    Comonotone feeds every component the same uniform stream; independence
    uses independent substreams; a Gaussian copula correlates the per-step
    innovation uniforms (supported for drivers whose exact transition needs a
    single innovation per step: Brownian, OU, gamma).
    """
    m = len(drivers)
    if m != copula.dim:
        raise ParameterError("need one driver per copula dimension")
    for dr in drivers:
        dr.validate()
    starts = np.array([np.full(n_paths, dr.initial_value(), dtype=float) for dr in drivers])
    if isinstance(copula, (IndependenceCopula, ComonotoneCopula)):
        paths = []
        for i, dr in enumerate(drivers):
            rng = substream(seed, 11, 0 if isinstance(copula, ComonotoneCopula) else i)
            paths.append(drv.step_grid(grid.times, starts[i], partial(dr.sample_transition, rng)))
    elif isinstance(copula, GaussianCopula):
        chol = copula._chol()
        rng = substream(seed, 11)

        def step(s, t, states):
            u_steps = stats.norm.cdf(rng.standard_normal((n_paths, m)) @ chol.T)
            return np.array([dr.transition_from_uniform(s, t, states[i], u_steps[:, i])
                             for i, dr in enumerate(drivers)])
        paths = drv.step_grid(grid.times, starts, step)
    else:
        raise CapabilityError(
            "joint simulation couples innovations through a Gaussian copula; "
            "use Independence or Comonotone for other dependence structures")
    return [drv.PathEnsemble(grid=grid, paths=paths[i], seed=seed, driver=dr)
            for i, dr in enumerate(drivers)]


def simulate_joint_terminal(drivers: Sequence[drv.Driver], copula: CopulaSpec,
                            u_time: float, n_paths: int, seed: int) -> list[drv.PathEnsemble]:
    """Exact joint draw of the m driver values at one terminal time.

    Samples the copula's uniforms and inverse-transforms each margin by its
    marginal quantile: the joint law has the requested copula and the exact
    marginal laws.  Supports every copula family with a sampler (including
    Clayton and Gumbel), unlike the per-step innovation coupling.
    """
    m = len(drivers)
    if m != copula.dim:
        raise ParameterError("need one driver per copula dimension")
    copula.validate(u_time)
    for dr in drivers:
        dr.validate()
    rng = substream(seed, 12)
    uniforms = clip_unit(copula.sample(u_time, n_paths, rng))
    grid = drv.TimeGrid(np.array([u_time]))
    out = []
    for i, dr in enumerate(drivers):
        y = np.asarray(dr.marginal_quantile(u_time, uniforms[:, i]), dtype=float)
        out.append(drv.PathEnsemble(grid=grid, paths=y[:, None], seed=seed, driver=dr))
    return out


def apply_multi_composite(mmap: MultiCompositeMap,
                          ensembles: Sequence[drv.PathEnsemble]) -> drv.PathEnsemble:
    """Z[n, k] = Q(t_k, C(t_k, F_1(t_k, Y^1), ..., F_m(t_k, Y^m))).

    All component ensembles must share grid and path count; the output is a
    univariate ensemble on the common grid.
    """
    mmap.validate(float(ensembles[0].grid.times[0]))
    if len(ensembles) != len(mmap.margins):
        raise RequestError("need one ensemble per margin")
    grid = ensembles[0].grid
    n = ensembles[0].n_paths
    for e in ensembles[1:]:
        if not np.array_equal(e.grid.times, grid.times) or e.n_paths != n:
            raise RequestError("component ensembles must share grid and path count")
    grid.require_positive()
    if mmap.mode == MultiMode.TRUE_JOINT_LAW:
        for mg, e in zip(mmap.margins, ensembles):
            if not mg.is_true_law_of(e.driver):
                raise ParameterError(
                    "TrueJointLaw mode requires each margin to be its driver's law")
    out = np.empty((n, len(grid)))
    for k, t in enumerate(grid.times):
        u = np.column_stack([
            np.asarray(mg.cdf(t, e.paths[:, k]), dtype=float)
            for mg, e in zip(mmap.margins, ensembles)
        ])
        c = mmap.copula.cdf(t, np.clip(u, 0.0, 1.0))
        out[:, k] = mmap.quantile.eval(t, clip_unit(c))
    return drv.PathEnsemble(grid=grid, paths=out, seed=ensembles[0].seed,
                            driver=ensembles[0].driver)


def multi_distorted_cdf(mmap: MultiCompositeMap, t: float, z, n_samples: int = 100_000,
                        seed: int = 0):
    """CDF of the multidimensional quantile process at z.

    True-joint-law maps use the closed form K_C(t, F_quantile(z)); false-law
    maps estimate by Monte Carlo frequency of copula draws.
    """
    mmap.validate(t)
    zv = np.asarray(z, dtype=float)
    u = np.asarray(mmap.quantile.cdf(t, zv), dtype=float)
    if mmap.mode == MultiMode.TRUE_JOINT_LAW:
        return kendall_function(mmap.copula, t, u, n_samples=n_samples, seed=seed)
    rng = substream(seed, 72)
    draws = mmap.copula.sample(t, n_samples, rng)
    c = mmap.copula.cdf(t, draws)
    return np.searchsorted(np.sort(c), u, side="right") / float(n_samples)


def multi_layer_premium(mmap: MultiCompositeMap, drivers: Sequence[drv.Driver],
                        risk_index: int, payoff: va.Payoff, t: float, u: float,
                        rate: TimeParam, mc: va.MCSettings,
                        driver_copula: Optional[CopulaSpec] = None) -> va.ValuationResult:
    """Premium of a layer-type payoff under the multidimensional distorted law.

    Computed as discount * E[V(Z_u)] with Z from the multi-composite of the
    jointly drawn drivers; the auxiliary margins (indices other than
    ``risk_index``) influence the premium only through the copula coupling.
    The drivers' own dependence is ``driver_copula`` (their implicit copula);
    it defaults to the map's copula, which true-joint-law mode requires.
    """
    if payoff.kind not in ("Layer", "StopLoss", "Linear"):
        raise RequestError("multidimensional premiums support Layer, StopLoss, Linear payoffs")
    payoff.validate()
    mc.validate()
    if not 0 <= risk_index < len(drivers):
        raise RequestError("risk_index out of range")
    if driver_copula is None:
        driver_copula = mmap.copula
    elif mmap.mode == MultiMode.TRUE_JOINT_LAW and driver_copula is not mmap.copula:
        raise RequestError("true-joint-law premiums require the drivers' implicit "
                           "copula to equal the map's copula")
    disc = me.money_market(rate, t) / me.money_market(rate, u)
    ensembles = simulate_joint_terminal(drivers, driver_copula, u, mc.n_paths, mc.seed)
    z = apply_multi_composite(mmap, ensembles).paths[:, 0]
    price, se = va._mean_se(payoff(z), disc)
    raw = disc * float(np.mean(ensembles[risk_index].paths[:, 0]))
    return va.ValuationResult(price=price, std_error=se, risk_loading=price - raw,
                              diagnostics={"n_effective": mc.n_paths, "seed": mc.seed,
                                           "risk_index": risk_index})


def kendall_table_csv(spec: CopulaSpec, path: str, t: float = 1.0,
                      grid: Optional[np.ndarray] = None, n_samples: int = 100_000,
                      seed: int = 0) -> None:
    """Write a (v, K(t, v)) table to CSV for plotting."""
    vs = np.linspace(0.0, 1.0, 101) if grid is None else np.asarray(grid, dtype=float)
    kv = np.asarray(kendall_function(spec, t, vs, n_samples=n_samples, seed=seed),
                    dtype=float)
    lines = ["v,kendall"] + [f"{v:.9g},{k:.9g}" for v, k in zip(vs, kv)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def multi_rn_derivative(mmap: MultiCompositeMap, t: float, y, base_law: tr.DistributionSpec,
                        n_samples: int = 200_000, seed: int = 0):
    """Density of the multidimensional distorted law against the insured margin.

    The pushforward density differentiates K_C(t, F_quantile(z)); Archimedean
    and product copulas use the analytic Kendall derivative, other families a
    kernel-free central difference of the empirical Kendall function.  Points
    at the quantile range's edges are flagged by returning zero mass.
    """
    mmap.validate(t)
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    q = mmap.quantile
    u = np.asarray(q.cdf(t, yv), dtype=float)
    fz = np.asarray(q.pdf(t, yv), dtype=float)
    dK = mmap.copula.kendall_derivative(t)
    ok = (u > 0.0) & (u < 1.0) & (fz > 0.0)
    out = np.zeros_like(yv)
    if dK is not None:
        kd = np.zeros_like(u)
        kd[ok] = dK(u[ok])
    else:
        h = 5e-4
        K = lambda v: kendall_function(mmap.copula, t, v, n_samples=n_samples, seed=seed)
        kd = np.zeros_like(u)
        kd[ok] = (K(np.minimum(u[ok] + h, 1.0)) - K(np.maximum(u[ok] - h, 0.0))) / (2 * h)
    base = np.asarray(base_law.pdf(t, yv), dtype=float)
    good = ok & (base > 0)
    out[good] = kd[good] * fz[good] / base[good]
    return out if np.ndim(y) else float(out[0])
