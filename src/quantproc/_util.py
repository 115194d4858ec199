"""Small shared helpers: time-dependent parameters, RNG substreams, quadrature,
and the normal law."""

from __future__ import annotations

import math
import warnings
from typing import Callable, Union

import numpy as np
from scipy import integrate, special

from .errors import NumericError

TimeFn = Callable[[float], float]
TimeParam = Union[float, int, TimeFn]

#: open-interval clamp used when a probability must stay strictly inside (0, 1)
U_EPS = 1e-15


def as_time_fn(p: TimeParam) -> TimeFn:
    """Wrap a constant as a function of time; pass callables through."""
    if callable(p):
        return p
    value = float(p)
    return lambda t: value


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Deterministic counter-based substream keyed by (seed, ids).

    Uses Philox under a spawn key so independent streams (per path block,
    per component, per inner simulation) never overlap.
    """
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(seq))


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10, what: str = "integral") -> float:
    """Adaptive Gauss-Kronrod quadrature raising NumericError on tolerance failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(f, a, b, epsabs=tol, epsrel=1e-11, limit=200)
    if not np.isfinite(value):
        raise NumericError(f"{what} on [{a}, {b}] is not finite")
    if abserr > max(1e3 * tol, 1e-8 * abs(value)):
        raise NumericError(f"{what} on [{a}, {b}] did not reach tolerance", achieved=abserr)
    return value


def clip_unit(u: np.ndarray) -> np.ndarray:
    """Clamp probabilities to the open interval (0, 1)."""
    return np.clip(u, U_EPS, 1.0 - U_EPS)


# the normal law N(m, sd^2); m may be an array of per-path means.  Underscored so
# that perfbench's tracer, which wraps public names, books their time to the calling law.
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _norm_score(y, m, sd):
    """Normal score (y - m) / sd."""
    return (np.asarray(y, dtype=float) - m) / sd


def _norm_cdf(y, m, sd):
    """Normal CDF ndtr((y - m) / sd), relatively accurate in the lower tail too."""
    return special.ndtr(_norm_score(y, m, sd))


def _norm_pdf(y, m, sd):
    """Normal density."""
    z = _norm_score(y, m, sd)
    return np.exp(-0.5 * z * z) / (sd * _SQRT2PI)


def _norm_ppf(u, m, sd):
    """Normal quantile m + sd * ndtri(u)."""
    return m + sd * special.ndtri(np.asarray(u, dtype=float))
