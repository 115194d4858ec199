"""Multidimensional quantile processes through copulas.

An m-variate driver vector enters the composite map through a copula: the
output Z_t = Q(C(t, F_1(Y^1), ..., F_m(Y^m))) stays univariate.  Its CDF is
the copula's Kendall function at the quantile family's CDF, K_C(t, F_Q(t, z)):
exact for independence, comonotone and bivariate Archimedean copulas, else
estimated from copula draws.  The density ratio needs K_C's exact derivative.
Copulas work in log levels: terminal draws and composites read each law at
the score ndtri_exp(log U), and no level is clamped.  Gaussian-copula joint paths
step each driver on the copula's normal scores; its bivariate CDF uses Owen's T.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Optional, Sequence

import numpy as np
from scipy import special

from . import drivers as drv
from . import transforms as tr
from . import valuation as va
from ._util import TimeParam, as_time_fn, substream
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
    """An m-dimensional copula: a family gives ``log_sample`` and ``log_cdf``, the rest follow."""

    family: str = "abstract"
    dim: int = 2

    def validate(self, t: float = 1.0) -> None:
        # dim 1 is the degenerate edge C(u) = u, allowed only for the
        # parameter-free families so the multivariate machinery reduces to
        # the univariate composite
        min_dim = 1 if self.family in ("Independence", "Comonotone") else 2
        if self.dim < min_dim:
            raise ParameterError(f"copula dimension must be at least {min_dim}")

    def log_cdf(self, t: float, log_u: np.ndarray) -> np.ndarray:
        """log C(t, u) at log u of shape (..., dim), unchecked."""
        raise NotImplementedError

    def log_sample(self, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """log U of n copula draws, shape (n, dim)."""
        raise NotImplementedError

    def cdf(self, t: float, u: np.ndarray) -> np.ndarray:
        """C(t, u) for u of shape (..., dim)."""
        u = _check_u(u, self.dim)
        with np.errstate(divide="ignore"):
            return np.exp(self.log_cdf(t, np.log(u)))

    def sample(self, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws of the copula's uniforms, shape (n, dim)."""
        return np.exp(self.log_sample(t, n, rng))

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
    if not np.all((u >= 0) & (u <= 1)):  # NaN fails both comparisons
        raise ParameterError("copula arguments must lie in [0, 1]")
    return u


def _fold(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc folded over the last axis of a, one component at a time: numpy's own
    reduction over a short last axis is about 20 times slower."""
    return reduce(ufunc, np.moveaxis(a, -1, 0))


@dataclass(frozen=True)
class IndependenceCopula(CopulaSpec):
    dim: int = 2

    family = "Independence"

    def log_cdf(self, t, log_u):
        return _fold(np.add, log_u)

    def log_sample(self, t, n, rng):
        return -rng.exponential(size=(n, self.dim))

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

    def log_cdf(self, t, log_u):
        return _fold(np.minimum, log_u)

    def log_sample(self, t, n, rng):
        return np.repeat(-rng.exponential(size=(n, 1)), self.dim, axis=1)

    def kendall_closed_form(self, t):
        return lambda v: np.asarray(v, dtype=float)

    def kendall_derivative(self, t):
        return lambda v: np.ones_like(np.asarray(v, dtype=float))


# Gauss-Laguerre rule for the far-tail form of _owen_upper
_LAGUERRE_X, _LAGUERRE_W = np.polynomial.laguerre.laggauss(24)
# beyond this normal score a standard normal law has no mass in double precision
_SCORE_CAP = 40.0


def _owen_upper(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """P(X > c, Y > (p / c) X) for independent standard normals, c > 0.

    This is Phi(-c)/2 - T(c, p/c) with T Owen's function.  Where q = c^2 + p^2 >= 9
    and p > 0 the terms of that difference exceed the result by up to exp(p^2/2),
    so there it is summed as the Laplace integral
    exp(-q/2) c / (2 sqrt(2 pi) q) * int_0^inf e^-s erfcx(p v / sqrt 2) / v ds with
    v = sqrt(1 + 2s/q), whose integrand is smooth out to s = -q/2.
    """
    out = 0.5 * special.ndtr(-c) - special.owens_t(c, p / c)
    q = c * c + p * p
    far = (p > 0.0) & (q >= 9.0)
    if np.any(far):
        cf, pf, qf = c[far], p[far], q[far]
        v = np.sqrt(1.0 + 2.0 * _LAGUERRE_X / qf[:, None])
        s = (_LAGUERRE_W * special.erfcx(pf[:, None] * v / math.sqrt(2.0)) / v).sum(axis=1)
        out[far] = np.exp(-0.5 * qf) * cf / (2.0 * math.sqrt(2.0 * math.pi) * qf) * s
    return out


def _lower_orthant(hp: np.ndarray, kp: np.ndarray, r: np.ndarray) -> np.ndarray:
    """P(X <= -hp, Y <= -kp) for standard normals with correlation |r| < 1, hp, kp >= 0.

    Owen (1956): the sum of the two nonnegative terms P(X > c, Y > aX), one per
    coordinate, so the orthant keeps its relative accuracy in the tail.  A zero
    coordinate contributes nothing, except at the origin, where Sheppard's
    1/4 + asin(r)/(2 pi) holds.
    """
    s = np.sqrt((1.0 - r) * (1.0 + r))
    out = np.where((hp == 0.0) & (kp == 0.0), 0.25 + np.arcsin(r) / (2.0 * math.pi), 0.0)
    for c, other in ((hp, kp), (kp, hp)):
        pos = c > 0.0
        out[pos] += _owen_upper(c[pos], (other[pos] - r[pos] * c[pos]) / s[pos])
    return out


def _bivariate_normal_cdf(h: np.ndarray, k: np.ndarray, rho: float) -> np.ndarray:
    """Phi_2(h, k; rho) for |rho| < 1, from the lower orthant of each point's quadrant.

    A positive coordinate is reflected: Phi_2 = Phi(h) - P(X <= h, Y > k) and
    P(X > h, Y > k) = P(-X < -h, -Y < -k), so each point is a Phi term plus or
    minus one ``_lower_orthant``.
    """
    hn, kn = h <= 0.0, k <= 0.0
    sign = np.where(hn == kn, 1.0, -1.0)
    base = np.where(hn, np.where(kn, 0.0, special.ndtr(h)),
                    np.where(kn, special.ndtr(k), special.ndtr(h) - special.ndtr(-k)))
    return base + sign * _lower_orthant(np.abs(h), np.abs(k), sign * rho)


@dataclass(frozen=True, eq=False)
class GaussianCopula(CopulaSpec):
    """Gaussian copula with a fixed correlation matrix (unit diagonal, PSD).

    In two dimensions ``cdf`` is closed-form: Owen's T (``special.owens_t``) on
    the normal scores, with each point reflected to the lower orthant of its
    quadrant and the far tail summed by a 24-node Gauss-Laguerre rule.  At the
    tested points it is within 2.3e-16 of a 40-digit value, and within 6e-14
    relative for rho in [0, 0.99] and scores >= -5; rho = +1 and -1 give
    min(u1, u2) and max(u1 + u2 - 1, 0) exactly.  With more than two dimensions
    ``cdf`` is scipy's quasi-Monte-Carlo ``multivariate_normal.cdf``, accurate to
    about 1e-6.
    """

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
        self._chol()  # validates once
        u = _check_u(u, self.dim)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        z = np.clip(special.ndtri(pts), -_SCORE_CAP, _SCORE_CAP)
        if self.dim == 2:
            rho = float(self.corr[0, 1])
            u1, u2 = pts[:, 0], pts[:, 1]
            if rho >= 1.0:
                out = np.minimum(u1, u2)
            elif rho <= -1.0:
                out = np.maximum(u1 + u2 - 1.0, 0.0)
            else:
                out = _bivariate_normal_cdf(z[:, 0], z[:, 1], rho)
        else:
            from scipy import stats
            mvn = stats.multivariate_normal(mean=np.zeros(self.dim), cov=self.corr,
                                            allow_singular=True)
            # quasi-Monte-Carlo normal integration; accuracy ~1e-6 at default settings
            out = np.atleast_1d(np.asarray(mvn.cdf(z), dtype=float))
        out = np.where(np.any(pts <= 0.0, axis=1), 0.0, np.clip(out, 0.0, 1.0))
        return float(out[0]) if single else out

    def log_cdf(self, t, log_u):
        with np.errstate(divide="ignore"):
            return np.log(self.cdf(t, np.exp(log_u)))

    def sample_scores(self, t, n, rng):
        """n draws of the correlated standard normals whose levels ``sample`` returns."""
        return rng.standard_normal((n, self.dim)) @ self._chol().T

    def log_sample(self, t, n, rng):
        return special.log_ndtr(self.sample_scores(t, n, rng))


class _Archimedean(CopulaSpec):
    """Common machinery for generator-based families (bivariate Kendall closed form)."""

    def validate(self, t: float = 1.0) -> None:
        super().validate(t)
        self._theta(t)

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

    def kendall_derivative(self, t):
        if self.dim != 2:
            return None
        th = self._theta(t)
        return lambda v: self._kendall_slope(np.asarray(v, dtype=float), th)


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

    def log_cdf(self, t, log_u):
        th = self._theta(t)
        w = -th * log_u
        with np.errstate(over="ignore"):
            out = np.asarray(np.log1p(_fold(np.add, np.expm1(w))))
        # where a u^-theta overflows, 1 + sum(u^-theta - 1) is sum(u^-theta) to the last bit
        far = np.isinf(out)
        if np.any(far):
            out[far] = special.logsumexp(w[far], axis=-1)
        return (out / -th)[()]

    def log_sample(self, t, n, rng):
        # Marshall-Olkin: U = psi(E / V) with psi(s) = (1 + s)^(-1/theta), V ~ Gamma(1/theta);
        # log V = log G - theta E' with G ~ Gamma(1 + 1/theta), so V cannot underflow
        th = self._theta(t)
        mix = rng.gamma(1.0 + 1.0 / th, 1.0, size=(n, 1))
        log_v = np.log(mix) - th * rng.exponential(size=(n, 1))
        e = rng.exponential(size=(n, self.dim))
        with np.errstate(over="ignore"):
            out = np.log1p(e * np.exp(-log_v))
        # past the float range E / V is above 1e308, where log1p(E / V) = log E - log V
        far = np.isinf(out)
        if np.any(far):
            out[far] = (np.log(e) - log_v)[far]
        return out / -th

    def generator_ratio(self, t, v):
        th = self._theta(t)
        return -v * (1.0 - v ** th) / th

    @staticmethod
    def _kendall_slope(v, th):
        return 1.0 + (1.0 - (th + 1.0) * v ** th) / th


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

    def log_cdf(self, t, log_u):
        th = self._theta(t)
        with np.errstate(over="ignore"):
            total = _fold(np.add, (-log_u) ** th)
        out = np.asarray(total ** (1.0 / th))
        # where the sum of (-log u)^theta leaves the normal floats, sum it in logs
        far = (total < np.finfo(float).tiny) | (total == np.inf)
        if np.any(far):
            with np.errstate(divide="ignore"):
                out[far] = np.exp(special.logsumexp(th * np.log(-log_u[far]), axis=-1) / th)
        return -out[()]

    def log_sample(self, t, n, rng):
        # Marshall-Olkin: U = psi(E / S) with psi(s) = exp(-s^(1/theta))
        th = self._theta(t)
        if th == 1.0:
            return -rng.exponential(size=(n, self.dim))
        # positive stable mixing variable, Chambers-Mallows-Stuck construction:
        # S has Laplace transform exp(-lambda^alpha)
        alpha = 1.0 / th
        theta0 = rng.uniform(0.0, math.pi, size=n)
        w = rng.exponential(size=n)
        # log S, so that S cannot under- or overflow at large theta
        log_s = (np.log(np.sin(alpha * theta0)) - th * np.log(np.sin(theta0))
                 + (th - 1.0) * np.log(np.sin((1.0 - alpha) * theta0) / w))
        return -np.exp(alpha * (np.log(rng.exponential(size=(n, self.dim))) - log_s[:, None]))

    def generator_ratio(self, t, v):
        th = self._theta(t)
        return v * np.log(v) / th

    @staticmethod
    def _kendall_slope(v, th):
        return 1.0 - (np.log(v) + 1.0) / th


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
    c = np.exp(spec.log_cdf(t, spec.log_sample(t, n_samples, substream(seed, 71))))
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
    quantile: tr.Law
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
    normal innovations each driver steps on (supported for drivers whose exact
    transition needs a single innovation per step: Brownian, OU, gamma).
    """
    _check_drivers(copula, drivers)
    starts = np.array([np.full(n_paths, dr.initial_value(), dtype=float) for dr in drivers])
    if isinstance(copula, (IndependenceCopula, ComonotoneCopula)):
        paths = []
        for i, dr in enumerate(drivers):
            rng = substream(seed, 11, 0 if isinstance(copula, ComonotoneCopula) else i)
            paths.append(drv.step_grid(grid.times, starts[i], partial(dr.sample_transition, rng)))
    elif isinstance(copula, GaussianCopula):
        rng = substream(seed, 11)

        def step(s, t, states):
            x = copula.sample_scores(t, n_paths, rng)
            return np.array([dr.transition_from_score(s, t, states[i], x[:, i])
                             for i, dr in enumerate(drivers)])
        paths = drv.step_grid(grid.times, starts, step)
    else:
        raise CapabilityError(
            "joint simulation couples innovations through a Gaussian copula; "
            "use Independence or Comonotone for other dependence structures")
    return [drv.PathEnsemble(grid=grid, paths=paths[i], seed=seed, driver=dr)
            for i, dr in enumerate(drivers)]


def _log_levels(copula: CopulaSpec, t: float, n_paths: int, seed: int):
    """log U of ``n_paths`` copula draws at t, in blocks of ``va._BLOCK`` from one substream."""
    rng = substream(seed, 12)
    for lo in range(0, n_paths, va._BLOCK):
        yield copula.log_sample(t, min(va._BLOCK, n_paths - lo), rng)


def _compose(mmap: MultiCompositeMap, t: float, ys) -> np.ndarray:
    """Q(t, C(t, F_1(t, y_1), ...)), each margin's log level log_ndtr of its score."""
    log_u = np.column_stack([special.log_ndtr(mg.score(t, y)) for mg, y in zip(mmap.margins, ys)])
    if np.isnan(log_u).any():
        raise ParameterError("copula arguments must lie in [0, 1]")
    return mmap.quantile.from_score(t, special.ndtri_exp(mmap.copula.log_cdf(t, log_u)))


def _check_drivers(copula: CopulaSpec, drivers: Sequence[drv.Driver]) -> None:
    if len(drivers) != copula.dim:
        raise ParameterError("need one driver per copula dimension")
    for dr in drivers:
        dr.validate()


def _check_true_laws(mmap: MultiCompositeMap, drivers) -> None:
    if mmap.mode == MultiMode.TRUE_JOINT_LAW and not all(
            mg.is_true_law_of(dr) for mg, dr in zip(mmap.margins, drivers)):
        raise ParameterError("TrueJointLaw mode requires each margin to be its driver's law")


def simulate_joint_terminal(drivers: Sequence[drv.Driver], copula: CopulaSpec,
                            u_time: float, n_paths: int, seed: int) -> list[drv.PathEnsemble]:
    """Exact joint draw of the m driver values at one terminal time.

    Draws the copula's log levels log U, in blocks of ``va._BLOCK`` paths as
    ``multi_layer_premium`` does, and reads each margin at its score
    ndtri_exp(log U_i): the joint law has the requested copula and the exact
    marginal laws.  Supports every copula family with a sampler (including
    Clayton and Gumbel), unlike the per-step innovation coupling.
    """
    copula.validate(u_time)
    _check_drivers(copula, drivers)
    log_u = np.concatenate(list(_log_levels(copula, u_time, n_paths, seed)))
    grid = drv.TimeGrid(np.array([u_time]))
    return [drv.PathEnsemble(grid=grid, paths=dr.from_score(u_time, x)[:, None], seed=seed,
                             driver=dr) for dr, x in zip(drivers, special.ndtri_exp(log_u).T)]


def apply_multi_composite(mmap: MultiCompositeMap,
                          ensembles: Sequence[drv.PathEnsemble]) -> drv.PathEnsemble:
    """Z[n, k] = Q(t_k, C(t_k, F_1(t_k, Y^1), ..., F_m(t_k, Y^m))).

    Each margin's level enters the copula as log_ndtr of its score, and Q reads
    the score of log C, so no level is formed or clamped.  All component
    ensembles must share grid and path count; the output is a univariate
    ensemble on the common grid.
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
    _check_true_laws(mmap, [e.driver for e in ensembles])
    out = np.empty((n, len(grid)))
    for k, t in enumerate(grid.times):
        out[:, k] = _compose(mmap, t, [e.paths[:, k] for e in ensembles])
    return drv.PathEnsemble(grid=grid, paths=out, seed=ensembles[0].seed,
                            driver=ensembles[0].driver)


def multi_distorted_cdf(mmap: MultiCompositeMap, t: float, z, n_samples: int = 100_000,
                        seed: int = 0):
    """CDF of the multidimensional quantile process at z: K_C(t, F_quantile(z)).

    Both modes take the level C(U_1, ..., U_m) of uniform U_i under the map's
    copula C, so both evaluate ``kendall_function``; only copulas without a
    closed form use ``n_samples`` and ``seed``.
    """
    mmap.validate(t)
    u = np.asarray(mmap.quantile.cdf(t, np.asarray(z, dtype=float)), dtype=float)
    return kendall_function(mmap.copula, t, u, n_samples=n_samples, seed=seed)


def multi_layer_premium(mmap: MultiCompositeMap, drivers: Sequence[drv.Driver],
                        risk_index: int, payoff: va.Payoff, t: float, u: float,
                        rate: TimeParam, mc: va.MCSettings) -> va.ValuationResult:
    """Premium of a layer-type payoff under the multidimensional distorted law.

    discount * E[V(Z_u)], with Z the multi-composite of the drivers drawn jointly
    at u as ``simulate_joint_terminal`` draws them, in flat-memory blocks of
    ``va._BLOCK`` paths that ``qpvp_price``'s reducer reduces.  The auxiliary
    margins act only through the copula.  Under ``TRUE_JOINT_LAW`` with
    continuous drivers each margin's CDF undoes its driver's quantile, so
    Z = Q(C(U)) is read off the draw's log C and only the risk driver is formed,
    for the raw mean.  A discrete driver's CDF at its drawn count is a step level
    above U, so then every driver is formed and composed, as in ``FALSE_LAW``.
    """
    if payoff.kind not in ("Layer", "StopLoss", "Linear"):
        raise RequestError("multidimensional premiums support Layer, StopLoss, Linear payoffs")
    payoff.validate()
    mc.validate()
    if not 0 <= risk_index < len(drivers):
        raise RequestError("risk_index out of range")
    mmap.validate(u)
    _check_drivers(mmap.copula, drivers)
    _check_true_laws(mmap, drivers)
    direct = mmap.mode == MultiMode.TRUE_JOINT_LAW and not any(dr.is_discrete for dr in drivers)

    def blocks():
        for log_u in _log_levels(mmap.copula, u, mc.n_paths, mc.seed):
            if direct:
                z = mmap.quantile.from_score(u, special.ndtri_exp(mmap.copula.log_cdf(u, log_u)))
                yield drivers[risk_index].from_score(u, special.ndtri_exp(log_u[:, risk_index])), z
            else:
                ys = [dr.from_score(u, x) for dr, x in zip(drivers, special.ndtri_exp(log_u).T)]
                yield ys[risk_index], _compose(mmap, u, ys)
    return va._premium(blocks(), payoff, va._discount(rate, t, u),
                       {"n_effective": mc.n_paths, "seed": mc.seed, "risk_index": risk_index})


def kendall_table_csv(spec: CopulaSpec, path: str, t: float = 1.0,
                      grid: Optional[np.ndarray] = None) -> None:
    """Write a (v, K(t, v)) table to CSV for plotting."""
    vs = np.linspace(0.0, 1.0, 101) if grid is None else np.asarray(grid, dtype=float)
    kv = np.asarray(kendall_function(spec, t, vs), dtype=float)
    lines = ["v,kendall"] + [f"{v:.9g},{k:.9g}" for v, k in zip(vs, kv)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def multi_rn_derivative(mmap: MultiCompositeMap, t: float, y, base_law: tr.Law):
    """Density of the multidimensional distorted law against the insured margin.

    The pushforward density differentiates K_C(t, F_quantile(z)) by the
    copula's analytic Kendall derivative (independence, comonotone and
    bivariate Archimedean copulas); any other copula raises
    ``CapabilityError``.  Points at the quantile range's edges are flagged by
    returning zero mass; NaN states give NaN.
    """
    mmap.validate(t)
    dK = mmap.copula.kendall_derivative(t)
    if dK is None:
        raise CapabilityError("the density ratio needs an exact Kendall derivative, which "
                              f"{mmap.copula.family} in {mmap.copula.dim} dimensions lacks")
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    x, fz = (np.asarray(a, dtype=float) for a in mmap.quantile.score_pdf(t, yv))
    u = special.ndtr(x)
    out = np.where(np.isnan(x), np.nan, 0.0)
    base = np.asarray(base_law.pdf(t, yv), dtype=float)
    good = (u > 0.0) & np.isfinite(x) & (fz > 0.0) & (base > 0)
    out[good] = dK(u[good]) * fz[good] / base[good]
    return out if np.ndim(y) else float(out[0])
