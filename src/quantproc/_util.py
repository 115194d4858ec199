"""Small shared helpers: time-dependent parameters, RNG substreams, quadrature,
the normal law, and the ``Law`` base that drivers, quantile families and
distribution laws share.  Module level imports only numpy and ``scipy.special``;
heavier submodules are imported inside their callers."""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional, Union

import numpy as np
from scipy import special

from .errors import NumericError

TimeFn = Callable[[float], float]
TimeParam = Union[float, int, TimeFn]

#: the smallest positive float, the tail level of a finite score where ndtr underflows
_SMALLEST = math.ulp(0.0)
#: the 8-node Gauss-Legendre rule on [0, 1]
_GL_R, _GL_W = special.roots_legendre(8)
_GL_R, _GL_W = (_GL_R + 1.0) / 2.0, _GL_W / 2.0


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
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(f, a, b, epsabs=tol, epsrel=1e-11, limit=200)
    if not np.isfinite(value):
        raise NumericError(f"{what} on [{a}, {b}] is not finite")
    if abserr > max(1e3 * tol, 1e-8 * abs(value)):
        raise NumericError(f"{what} on [{a}, {b}] did not reach tolerance", achieved=abserr)
    return value


def _solve_increasing(resid_slope, lo, hi, x, scale, what: str) -> np.ndarray:
    """Solve r(x) = 0 for an increasing r by safeguarded Newton in [lo, hi], point by point.

    ``resid_slope(x, idx)`` gives r and r' at the working points ``idx``.  A step that leaves
    the bracket, or has no finite slope, bisects it, as does every third sweep where |r| > 1.
    A point has converged once its step is within 1e-14 (scale + |x|), or its finite-slope
    step is zero; converged points leave the working set once they are half of it.  Points
    still moving after 160 sweeps raise NumericError.  Returns the roots; lo, hi, x are work
    arrays, and x and one more buffer of its size take turns as each sweep's iterate.
    """
    idx, xa, la, ha, sa = slice(None), x, lo, hi, scale
    nxt = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(160):
            r, slope = resid_slope(xa, idx)
            np.copyto(la, xa, where=r < 0)
            np.copyto(ha, xa, where=r > 0)
            np.subtract(xa, np.divide(r, slope, out=nxt), out=nxt)
            bad = ~((nxt > la) & (nxt < ha) | (nxt == xa) & np.isfinite(slope))
            if it % 3 == 2:
                bad |= np.abs(r) > 1.0
            if bad.any():
                np.multiply(np.add(la, ha, out=nxt, where=bad), 0.5, out=nxt, where=bad)
            moving = ~(np.abs(nxt - xa) <= 1e-14 * (sa + np.abs(nxt)))
            xa, nxt = nxt, xa
            n = np.count_nonzero(moving)
            if n == 0:
                break
            if 2 * n <= moving.size:
                x[idx] = xa
                keep = np.flatnonzero(moving)
                idx = keep if isinstance(idx, slice) else idx[keep]
                xa, la, ha = xa[keep], la[keep], ha[keep]
                nxt = np.empty_like(xa)
                sa = sa[keep] if np.ndim(sa) else sa
        else:
            raise NumericError(f"{what}: {n} points did not converge in 160 sweeps",
                               achieved=float(np.max(np.abs(r[moving]))))
    if isinstance(idx, slice):
        return xa
    x[idx] = xa
    return x


#: points per slice of ``_blocked``: a float temporary of one slice is 64 KB
_BLOCK = 1 << 13


def _blocked(fn, *arrays) -> np.ndarray:
    """fn(*slices) over consecutive slices of _BLOCK points of the same-shape ``arrays``,
    written into one float array of their shape.  A pointwise map then works in
    temporaries that stay in cache, and that the allocator keeps for the next slice
    where a whole-array temporary goes back to the system and is faulted in again."""
    shape = np.shape(arrays[0])
    flat = [np.reshape(a, -1) for a in arrays]
    n = flat[0].size
    if n <= _BLOCK:
        return np.reshape(fn(*flat), shape)
    out = np.empty(n)
    for i in range(0, n, _BLOCK):
        out[i:i + _BLOCK] = fn(*(a[i:i + _BLOCK] for a in flat))
    return out.reshape(shape)


# the normal law N(m, sd^2); m may be an array of per-path means.  Underscored so
# that perfbench's tracer, which wraps public names, books their time to the calling law.
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _norm_score(y, m, sd):
    """Normal score (y - m) / sd."""
    return (np.asarray(y, dtype=float) - m) / sd


def _norm_pdf(y, m, sd):
    """Normal density."""
    z = _norm_score(y, m, sd)
    return np.exp(-0.5 * z * z) / (sd * _SQRT2PI)


# ---------------------------------------------------------------------------
# the law type
# ---------------------------------------------------------------------------

class Law:
    """A law on the real line at each time t, read forward (``cdf``, ``score``) or
    backward as a quantile function (``quantile``, ``from_score``).

    A law gives one primitive and derives the rest: ``normal_at`` for a normal law;
    ``score`` and ``from_score`` for a score-native law, whose ``cdf`` is ndtr(score)
    and ``quantile`` is from_score(ndtri(u)); or ``cdf`` and ``quantile`` for a
    level-native law, whose scores pass through the level, split at the median: the
    CDF below it and the survival function ``sf`` above it, inverted by ``quantile``
    and ``isf``.  A law with a survival function of its own gives ``sf`` and ``isf``
    too.  Every law composes through its scores alone.  A driver is the law of its
    own marginal Y_t; quantile families and distribution laws live in ``transforms``.
    """

    family: str = "abstract"
    is_discrete: bool = False

    def validate(self, t: float = 1.0) -> None:
        """Raise ParameterError on inadmissible parameters at t."""
        self.normal_at(t)

    def normal_at(self, t: float) -> Optional[tuple[float, float]]:
        """(m, sd) when the law at t is N(m, sd^2), else None; all the maps below follow."""
        return None

    def score(self, t: float, z) -> np.ndarray:
        """Normal score of z, +-inf off the law's range: exact and affine for a normal
        law, else ndtri(cdf) below the median and -ndtri(sf) from it on, each point read
        in its own tail only."""
        normal = self.normal_at(t)
        if normal is not None:
            return _norm_score(z, *normal)
        z = np.asarray(z, dtype=float)
        out, upper = np.empty(z.shape), z >= self.quantile(t, 0.5)
        out[~upper] = special.ndtri(self.cdf(t, z[~upper]))
        out[upper] = -special.ndtri(self.sf(t, z[upper]))
        return out[()]

    def from_score(self, t: float, x) -> np.ndarray:
        """The inverse of ``score``: m + sd x for a normal law, else quantile(ndtr(x)) for
        x <= 0 and isf(ndtr(-x)) for x > 0, the one place a level is formed from a score.
        A finite x has a positive tail level: where ndtr(-|x|) underflows it is the
        smallest positive float, so only x = +-inf reads the support's ends."""
        normal = self.normal_at(t)
        if normal is not None:
            m, sd = normal
            return m + sd * np.asarray(x, dtype=float)
        x = np.asarray(x, dtype=float)
        tail = np.maximum(special.ndtr(-np.abs(x)), np.where(np.abs(x) < np.inf, _SMALLEST, 0.0))
        out, upper = np.empty(x.shape), x > 0.0
        out[~upper] = self.quantile(t, tail[~upper])
        out[upper] = self.isf(t, tail[upper])
        return out[()]

    def cdf(self, t: float, z) -> np.ndarray:
        return special.ndtr(self.score(t, z))

    def quantile(self, t: float, u) -> np.ndarray:
        """from_score(ndtri(u)) inside (0, 1), the support's ends at u = 0 and u = 1,
        and NaN off [0, 1] and at NaN."""
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.from_score(t, special.ndtri(u))
        lo, hi = self.support(t)
        return np.where(u == 0.0, lo, np.where(u == 1.0, hi, out))

    def sf(self, t: float, z) -> np.ndarray:
        """The survival function 1 - cdf."""
        return 1.0 - self.cdf(t, z)

    def isf(self, t: float, q) -> np.ndarray:
        """The inverse of ``sf``: quantile(1 - q)."""
        return self.quantile(t, 1.0 - np.asarray(q, dtype=float))

    def pdf(self, t: float, z) -> np.ndarray:
        return _norm_pdf(z, *self.normal_at(t))

    def score_pdf(self, t: float, z) -> tuple[np.ndarray, np.ndarray]:
        """(score, pdf) at z; TukeyGH reads both off one inversion."""
        return self.score(t, z), self.pdf(t, z)

    def support(self, t: float) -> tuple[float, float]:
        return -np.inf, np.inf

    def compose(self, t: float, dist: Law, y) -> np.ndarray:
        """Q(t, F(t, y)), with Q this law's quantile and F the law ``dist``: the
        composite map at one time, from_score(dist.score(y)), so no level is clamped."""
        return self.from_score(t, dist.score(t, y))

    def is_true_law_of(self, driver) -> bool:
        """Whether this law is the marginal law of ``driver``: the driver itself."""
        return self == driver
