"""Reference computations the benchmark checks quantproc's outputs against.

Written from the mathematics alone: this module never imports quantproc.
Every formula is checked by a second, independent route in ``self_test``,
and a run judges no output when that self-test fails.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

SQRT2PI = math.sqrt(2.0 * math.pi)
X_LIM = 40.0  # |x| bound of the bisection bracket in the standard-normal scale


def phi(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / SQRT2PI


def _quad(f, a, b, points=None, tol=1e-12):
    val, _ = integrate.quad(f, a, b, points=points, epsabs=tol, epsrel=1e-12, limit=500)
    return float(val)


# ---------------------------------------------------------------------------
# Tukey g-and-h: Q(x) = a + b (e^{gx} - 1)/g e^{h x^2 / 2}, x the normal score
# ---------------------------------------------------------------------------

def gh_core(x, g, h):
    x = np.asarray(x, dtype=float)
    base = x if g == 0.0 else np.expm1(g * x) / g
    return base * np.exp(0.5 * h * x * x)


def gh_core_deriv(x, g, h):
    x = np.asarray(x, dtype=float)
    base = x if g == 0.0 else np.expm1(g * x) / g
    dbase = np.ones_like(x) if g == 0.0 else np.exp(g * x)
    return np.exp(0.5 * h * x * x) * (dbase + h * x * base)


def gh_q(u, a, b, g, h):
    """Q(u) of the g-and-h family at probability levels u in (0, 1)."""
    return a + b * gh_core(special.ndtri(np.asarray(u, dtype=float)), g, h)


def gh_x(z, a, b, g, h, iters=200):
    """Q^{-1} in the normal-score scale by bisection; -inf/+inf off the range."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lo = np.full(z.shape, -X_LIM)
    hi = np.full(z.shape, X_LIM)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            up = a + b * gh_core(mid, g, h) < z
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        x = 0.5 * (lo + hi)
        x = np.where(z <= a + b * gh_core(-X_LIM, g, h), -np.inf, x)
        x = np.where(z >= a + b * gh_core(X_LIM, g, h), np.inf, x)
    return x


def gh_cdf(z, a, b, g, h):
    return special.ndtr(gh_x(z, a, b, g, h))


def gh_pdf(z, a, b, g, h):
    x = gh_x(z, a, b, g, h)
    out = np.zeros_like(x)
    ok = np.isfinite(x)
    out[ok] = phi(x[ok]) / (b * gh_core_deriv(x[ok], g, h))
    return out


# ---------------------------------------------------------------------------
# payoffs and premiums disc * E[V(Z)], Z = Q(alpha + beta X), X ~ N(0, 1)
# ---------------------------------------------------------------------------

def payoff_value(p: dict, z):
    z = np.asarray(z, dtype=float)
    kind = p["kind"]
    if kind == "Linear":
        return p["scale"] * z
    if kind == "Layer":
        return np.clip(z - p["a"], 0.0, p["b"] - p["a"])
    if kind == "StopLoss":
        return np.minimum(np.maximum(z - p["a"], 0.0), p["b"])
    if kind == "PowerUtility":
        return np.sign(z) * np.abs(z) ** p["gamma"]
    raise ValueError(kind)


def payoff_kinks(p: dict) -> list[float]:
    kind = p["kind"]
    if kind == "Layer":
        return [p["a"], p["b"]]
    if kind == "StopLoss":
        return [p["a"], p["a"] + p["b"]]
    if kind == "PowerUtility":
        return [0.0]
    return []


class GH:
    """A g-and-h (or Gaussian, g = h = 0) quantile map in the normal-score scale."""

    def __init__(self, a, b, g, h):
        self.a, self.b, self.g, self.h = float(a), float(b), float(g), float(h)

    def z(self, x):
        return self.a + self.b * gh_core(x, self.g, self.h)

    def x(self, z):
        return gh_x(z, self.a, self.b, self.g, self.h)


def premium(q: GH, alpha: float, beta: float, payoff: dict, disc: float = 1.0) -> float:
    """disc * integral of V(Q(alpha + beta x)) phi(x) dx, split at the payoff's kinks."""
    cuts = []
    for k in payoff_kinks(payoff):
        xk = float(q.x(k)[0])
        if math.isfinite(xk):
            cuts.append((xk - alpha) / beta)
    lo, hi = -12.0, 12.0
    edges = sorted({lo, hi, *[c for c in cuts if lo < c < hi]})

    def f(x):
        return float(payoff_value(payoff, q.z(alpha + beta * x))) * math.exp(-0.5 * x * x) / SQRT2PI

    return disc * sum(_quad(f, e0, e1) for e0, e1 in zip(edges[:-1], edges[1:]))


def layer_premium_by_tail(q: GH, alpha: float, beta: float, a: float, b: float) -> float:
    """Second route for a layer: E[V(Z)] = integral over (a, b) of P(Z > z) dz."""
    return _quad(lambda z: float(special.ndtr(-((q.x(z)[0] - alpha) / beta))), a, b)


def tukey_g_linear_mean(a, b, g, alpha, beta):
    """E[a + b (e^{g(alpha + beta X)} - 1)/g] in closed form (a lognormal mean)."""
    return a + b / g * math.expm1(g * alpha + 0.5 * (g * beta) ** 2)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck with constant theta, mu, sigma
# ---------------------------------------------------------------------------

def ou_mean_std(theta, mu, sigma, y0, t):
    mean = mu + (y0 - mu) * math.exp(-theta * t)
    var = sigma ** 2 * -math.expm1(-2.0 * theta * t) / (2.0 * theta)
    return mean, math.sqrt(var)


def ou_transition_mean_std(theta, mu, sigma, s, t, state):
    dt = t - s
    mean = mu + (np.asarray(state, dtype=float) - mu) * math.exp(-theta * dt)
    var = sigma ** 2 * -math.expm1(-2.0 * theta * dt) / (2.0 * theta)
    return mean, math.sqrt(var)


def normal_pdf(y, mean, sd):
    return phi((np.asarray(y, dtype=float) - mean) / sd) / sd


# ---------------------------------------------------------------------------
# variance gamma: Y = mu G + sigma sqrt(G) N, G ~ Gamma(t / nu, scale nu)
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _half_panels(levels: int = 64) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre nodes on dyadic panels of (0, 1/2], refined toward 0
    edges = np.concatenate([[0.0], 0.5 ** np.arange(levels, 0, -1)])
    lo, hi = edges[:-1], edges[1:]
    nodes = (0.5 * (hi - lo))[:, None] * _GL_X[None, :] + (0.5 * (hi + lo))[:, None]
    weights = (0.5 * (hi - lo))[:, None] * _GL_W[None, :]
    return nodes.ravel(), weights.ravel()


_HALF_P, _HALF_W = _half_panels()


def vg_cdf(y, t, mu, sigma, nu):
    """F(y) = E[Phi((y - mu G) / (sigma sqrt G))] over the gamma quantile G(p).

    Gauss-Legendre on dyadic panels of p refined toward both ends of (0, 1)
    (the upper half through the complementary quantile), so the mixture stays
    exact for small shapes t / nu, where G(p) spans many decades.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    shape = t / nu
    g = nu * np.concatenate([special.gammaincinv(shape, _HALF_P),
                             special.gammainccinv(shape, _HALF_P)])
    w = np.concatenate([_HALF_W, _HALF_W])
    out = np.empty_like(y)
    for i, yi in enumerate(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            arg = (yi - mu * g) / (sigma * np.sqrt(g))
        vals = special.ndtr(arg)
        # G = 0 (underflow): the normal part vanishes and Y sits at 0
        vals = np.where(g > 0, vals, 0.5 if yi == 0.0 else float(yi > 0))
        out[i] = float(vals @ w)
    return out


def vg_pdf(y, t, mu, sigma, nu):
    """Closed-form VG density (Madan, Carr and Chang 1998) through Bessel K."""
    y = np.asarray(y, dtype=float)
    y = np.where(y == 0.0, 1e-12, y)  # the finite limit at the cusp (shape > 1/2)
    shape = t / nu
    c = 2.0 * sigma ** 2 / nu + mu ** 2
    arg = np.sqrt(y * y * c) / sigma ** 2
    log_front = (math.log(2.0) - shape * math.log(nu) - math.log(SQRT2PI * sigma)
                 - special.gammaln(shape))
    with np.errstate(divide="ignore"):
        log_pow = (shape / 2.0 - 0.25) * np.log(y * y / c)
    logk = np.log(special.kve(shape - 0.5, arg)) - arg
    return np.exp(log_front + mu * y / sigma ** 2 + log_pow + logk)


def vg_cdf_by_density(y, t, mu, sigma, nu):
    """Second route: integrate the Bessel-K density, splitting at its cusp y = 0."""
    f = lambda x: float(vg_pdf(np.asarray(x), t, mu, sigma, nu))
    sd = math.sqrt((sigma ** 2 + nu * mu ** 2) * t)
    if y <= 0:
        return _quad(f, -60 * sd, y)
    return 1.0 - _quad(f, y, 60 * sd)


# ---------------------------------------------------------------------------
# gamma process and Poisson intensities
# ---------------------------------------------------------------------------

def gamma_shape_scale(mean_rate, variance_rate, t):
    return mean_rate ** 2 * t / variance_rate, variance_rate / mean_rate


def gamma_cdf(y, shape, scale):
    return special.gammainc(shape, np.maximum(np.asarray(y, dtype=float), 0.0) / scale)


def gamma_pdf(y, shape, scale):
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        logp = (shape - 1.0) * np.log(y / scale) - y / scale - special.gammaln(shape) - math.log(scale)
    return np.where(y > 0, np.exp(logp), 0.0)


def smooth_intensity(c0, c1):
    """lambda(t) = c0 + c1 sin^2(pi t) and its cumulative Lambda(t)."""
    lam = lambda t: c0 + c1 * math.sin(math.pi * t) ** 2
    cum = lambda t: c0 * t + c1 * (t / 2.0 - math.sin(2.0 * math.pi * t) / (4.0 * math.pi))
    return lam, cum


SPIKE_CENTER, SPIKE_WIDTH, SPIKE_HEIGHT = 0.5003, 1e-4, 500.0


def spike_intensity():
    """lambda(t) = 1 + 500 exp(-((t - 0.5003) / 1e-4)^2) and its cumulative Lambda(t)."""
    c, w, hgt = SPIKE_CENTER, SPIKE_WIDTH, SPIKE_HEIGHT
    lam = lambda t: 1.0 + hgt * math.exp(-((t - c) / w) ** 2)
    cum = lambda t: t + hgt * w * math.sqrt(math.pi) / 2.0 * (math.erf((t - c) / w) + math.erf(c / w))
    return lam, cum


def poisson_cdf(k, mean):
    k = np.floor(np.asarray(k, dtype=float))
    return np.where(k >= 0, special.pdtr(np.maximum(k, 0), mean), 0.0)


def poisson_pivot_masses(lam_cum: float, rate_mean: float, ks: np.ndarray) -> np.ndarray:
    """P(Z = k) for Z = PoissonQuantile(rate_mean)(F_N(N)), N ~ Poisson(lam_cum).

    Z <= j exactly when F_N(N) <= F_Z(j), i.e. N <= the largest count whose
    F_N stays at or below F_Z(j).
    """
    support = np.arange(0, 4 * int(lam_cum) + 200)
    cdf_n = poisson_cdf(support, lam_cum)

    def below(level):
        idx = np.searchsorted(cdf_n, level * (1 + 1e-12), side="right") - 1
        return np.where(idx >= 0, poisson_cdf(idx, lam_cum), 0.0)

    return below(poisson_cdf(ks, rate_mean)) - below(poisson_cdf(ks - 1, rate_mean))


# ---------------------------------------------------------------------------
# copulas: Kendall functions and Kendall-law expectations
# ---------------------------------------------------------------------------

def kendall_clayton(v, theta):
    v = np.asarray(v, dtype=float)
    return v + v * (1.0 - v ** theta) / theta


def kendall_clayton_density(v, theta):
    v = np.asarray(v, dtype=float)
    return 1.0 + (1.0 - (theta + 1.0) * v ** theta) / theta


def kendall_gumbel(v, theta):
    v = np.asarray(v, dtype=float)
    return v - v * np.log(v) / theta


def kendall_gumbel_density(v, theta):
    v = np.asarray(v, dtype=float)
    return 1.0 - (np.log(v) + 1.0) / theta


def archimedean_kendall_numeric(gen, v, h=1e-6):
    """Second route: K(v) = v - phi(v) / phi'(v) with phi' by central difference."""
    dphi = (gen(v + h) - gen(v - h)) / (2 * h)
    return v - gen(v) / dphi


def kendall_premium(q: GH, k_density, payoff: dict, disc: float = 1.0) -> float:
    """disc * E[V(Q(W))] with W on (0, 1) of density k, in the normal-score scale of W."""
    cuts = [float(q.x(k)[0]) for k in payoff_kinks(payoff)]
    edges = sorted({-9.0, 9.0, *[c for c in cuts if -9.0 < c < 9.0]})

    def f(x):
        w = float(special.ndtr(x))
        return float(payoff_value(payoff, q.z(x))) * float(k_density(w)) * math.exp(-0.5 * x * x) / SQRT2PI

    return disc * sum(_quad(f, e0, e1) for e0, e1 in zip(edges[:-1], edges[1:]))


def kendall_layer_by_tail(q: GH, kendall, a: float, b: float) -> float:
    """Second route for a layer: integral over (a, b) of 1 - K(F_Q(z)) dz."""
    return _quad(lambda z: 1.0 - float(kendall(float(special.ndtr(q.x(z)[0])))), a, b)


_BVN_X, _BVN_W = np.polynomial.legendre.leggauss(20)


def bvn_cdf(h, k, rho):
    """Phi_2(h, k; rho) = Phi(h) Phi(k) + (1/2pi) int_0^{asin rho} exp(...) dtheta."""
    h = np.asarray(h, dtype=float)[..., None]
    k = np.asarray(k, dtype=float)[..., None]
    top = math.asin(rho)
    th = 0.5 * top * (_BVN_X + 1.0)
    s, c2 = np.sin(th), np.cos(th) ** 2
    integrand = np.exp(-(h * h - 2.0 * h * k * s + k * k) / (2.0 * c2))
    return special.ndtr(h[..., 0]) * special.ndtr(k[..., 0]) + (integrand @ _BVN_W) * 0.5 * top / (2 * math.pi)


def bvn_cdf_by_quad(h, k, rho):
    """Second route: int_{-inf}^h phi(x) Phi((k - rho x)/sqrt(1 - rho^2)) dx."""
    r = math.sqrt(1.0 - rho * rho)
    return _quad(lambda x: math.exp(-0.5 * x * x) / SQRT2PI * float(special.ndtr((k - rho * x) / r)),
                 -40.0, h)


def gaussian_copula_premium_mc(q: GH, rho: float, payoff: dict, n: int, seed: int):
    """Reference Monte Carlo of E[V(Q(C(U1, U2)))] with U from the Gaussian copula.

    Own sampler and own bivariate normal CDF; returns (mean, standard error).
    Works through 20k-point chunks (bvn_cdf holds a chunk x 20 matrix), so that
    its memory stays well below that of the program's own Monte Carlo jobs.
    """
    rng = np.random.default_rng(seed)
    count, mean, m2 = 0, 0.0, 0.0  # running moments, merged chunk by chunk
    for s in range(0, n, 20_000):
        k = min(20_000, n - s)
        x1 = rng.standard_normal(k)
        x2 = rho * x1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(k)
        w = bvn_cdf(x1, x2, rho)
        v = payoff_value(payoff, q.z(special.ndtri(np.clip(w, 1e-300, 1.0 - 1e-16))))
        c_mean, c_m2 = float(v.mean()), float(((v - v.mean()) ** 2).sum())
        delta = c_mean - mean
        m2 += c_m2 + delta * delta * count * k / (count + k)
        mean += delta * k / (count + k)
        count += k
    return mean, math.sqrt(m2 / (n - 1) / n)


# ---------------------------------------------------------------------------
# quantile crossings
# ---------------------------------------------------------------------------

def crossing_x_star(p1: tuple, p2: tuple, x_max: float = 8.2, n_scan: int = 200_000):
    """Largest x with Q1(x) = Q2(x) on [-x_max, x_max] by scan + bisection.

    Returns (x*, kind) with kind "root"; or (None, "first-above") when
    Q1 >= Q2 throughout, (None, "second-above") when Q2 >= Q1 throughout.
    """
    xs = np.linspace(-x_max, x_max, n_scan)
    d = lambda x: gh_core(x, p1[2], p1[3]) * p1[1] + p1[0] - (gh_core(x, p2[2], p2[3]) * p2[1] + p2[0])
    # scanned in chunks that share their end points, largest x first, so that
    # the scan's temporaries stay small
    top = -np.inf
    for end in range(n_scan, 1, -20_000):
        seg = xs[max(end - 20_001, 0):end]
        with np.errstate(over="ignore", invalid="ignore"):
            dv = d(seg)
        top = np.max([top, np.max(dv)])
        s = np.sign(dv)
        flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
        if flips.size:
            lo, hi = seg[flips[-1]], seg[flips[-1] + 1]
            break
    else:
        return None, ("first-above" if top > 0 else "second-above")
    slo = np.sign(d(lo))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sign(d(mid)) == slo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), "root"


# ---------------------------------------------------------------------------
# split-skew integrals and lognormal pivot moments
# ---------------------------------------------------------------------------

def split_g_integrals(g1_below, g1_above, g2):
    """(left, right) of the split-skew second-order comparison, as CDF differences.

    left  = integral over (-1/g2, 0] of 2 (F2 - F1), with F2 alone below the
            state-dependent process's support edge -1/g1_below;
    right = integral over (0, inf) of 2 (F1 - F2);
    F_g(z) = Phi(log(1 + g z) / g).
    """
    F = lambda z, g: float(special.ndtr(math.log1p(g * z) / g))
    edge = -1.0 / g1_below

    def left_f(z):
        if z > edge:
            return 2.0 * (F(z, g2) - F(z, g1_below))
        return F(z, g2)

    lo = -1.0 / g2
    pts = [edge] if lo < edge < 0 else None
    left = _quad(left_f, lo, 0.0, points=pts, tol=1e-13)
    right = _quad(lambda z: 2.0 * (F(z, g1_above) - F(z, g2)), 0.0, np.inf, tol=1e-13)
    return left, right


def split_g_integrals_by_score(g1_below, g1_above, g2):
    """Second route: the same integrals in the normal-score scale of the second process."""
    z_of = lambda x, g: math.expm1(g * x) / g
    F1 = lambda z, g: float(special.ndtr(math.log1p(g * z) / g))

    def left_f(x):  # z = z_of(x, g2), dz = e^{g2 x} dx
        z = z_of(x, g2)
        d = 2.0 * (float(special.ndtr(x)) - F1(z, g1_below)) if z > -1.0 / g1_below else float(special.ndtr(x))
        return d * math.exp(g2 * x)

    def right_f(x):
        z = z_of(x, g2)
        return 2.0 * (F1(z, g1_above) - float(special.ndtr(x))) * math.exp(g2 * x)

    xe = math.log1p(-g2 / g1_below) / g2 if g2 < g1_below else None
    left = _quad(left_f, -40.0, 0.0, points=[xe] if xe is not None else None, tol=1e-13)
    right = _quad(right_f, 0.0, 40.0, tol=1e-13)
    return left, right


def lognormal_pivot_moments(a, b, g, m, v):
    """Mean, variance, skewness, excess kurtosis of a + b/g (e^{g (X - m)/sqrt v} - 1)."""
    s = g / math.sqrt(v)
    mu = -m * s
    w = s * s
    mean = a + b / g * (math.exp(mu + 0.5 * w) - 1.0)
    var = (b / g) ** 2 * math.exp(2 * mu + w) * math.expm1(w)
    skew = math.copysign(1.0, g) * (math.exp(w) + 2.0) * math.sqrt(math.expm1(w))
    kurt = math.exp(4 * w) + 2 * math.exp(3 * w) + 3 * math.exp(2 * w) - 6.0
    return mean, var, skew, kurt


def pivot_moments_by_quad(a, b, g, m, v):
    """Second route: raw moments by quadrature against the normal density."""
    z = lambda x: a + b / g * math.expm1(g * (x - m) / math.sqrt(v))
    raw = [_quad(lambda x, k=k: z(x) ** k * math.exp(-0.5 * x * x) / SQRT2PI, -30, 30) for k in (1, 2, 3, 4)]
    mean = raw[0]
    var = raw[1] - mean ** 2
    c3 = raw[2] - 3 * mean * raw[1] + 2 * mean ** 3
    c4 = raw[3] - 4 * mean * raw[2] + 6 * mean ** 2 * raw[1] - 3 * mean ** 4
    return mean, var, c3 / var ** 1.5, c4 / var ** 2 - 3.0


# ---------------------------------------------------------------------------
# self-test: every formula against its second route
# ---------------------------------------------------------------------------

def self_test() -> list[str]:
    """Return a description of every reference formula that fails its cross-check."""
    bad: list[str] = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    # g-and-h inverse, CDF and density
    for prm in ((0.0, 1.0, 0.5, 0.1), (0.2, 0.8, -0.3, 0.0), (0.0, 1.0, 2.0, 0.4)):
        xs = np.linspace(-6, 6, 41)
        z = gh_core(xs, prm[2], prm[3]) * prm[1] + prm[0]
        need(np.max(np.abs(gh_x(z, *prm) - xs)) < 1e-9, f"gh inverse {prm}")
        zz = np.linspace(np.min(z[5:-5]), np.max(z[5:-5]), 9)
        h = 1e-6 * (1 + np.abs(zz))
        num = (gh_cdf(zz + h, *prm) - gh_cdf(zz - h, *prm)) / (2 * h)
        need(np.max(np.abs(num - gh_pdf(zz, *prm))) < 1e-6, f"gh density {prm}")
    # premiums: lognormal closed form and the tail-integral route
    q = GH(0.0, 1.0, 0.5, 0.0)
    want = tukey_g_linear_mean(0.0, 1.0, 0.5, 0.3, 0.8)
    got = premium(q, 0.3, 0.8, {"kind": "Linear", "scale": 1.0})
    need(abs(got - want) < 1e-9, "linear premium vs lognormal mean")
    q = GH(0.1, 1.2, 0.4, 0.1)
    lay = {"kind": "Layer", "a": 0.7, "b": 2.1}
    need(abs(premium(q, -0.2, 1.1, lay) - layer_premium_by_tail(q, -0.2, 1.1, 0.7, 2.1)) < 1e-9,
         "layer premium vs tail integral")
    # OU moments against the integral forms
    th, mu, sg, y0, t = 1.3, 0.2, 0.7, -0.4, 0.9
    m, sd = ou_mean_std(th, mu, sg, y0, t)
    m2 = y0 * math.exp(-th * t) + _quad(lambda s: th * mu * math.exp(-th * (t - s)), 0, t)
    v2 = _quad(lambda s: sg ** 2 * math.exp(-2 * th * (t - s)), 0, t)
    need(abs(m - m2) < 1e-10 and abs(sd ** 2 - v2) < 1e-10, "OU marginal moments")
    tm, tsd = ou_transition_mean_std(th, mu, sg, 0.4, t, 0.5)
    v3 = _quad(lambda s: sg ** 2 * math.exp(-2 * th * (t - s)), 0.4, t)
    need(abs(tsd ** 2 - v3) < 1e-10 and abs(float(tm) - (mu + (0.5 - mu) * math.exp(-th * 0.5))) < 1e-12,
         "OU transition moments")
    # variance gamma: mixture CDF against the integrated Bessel-K density
    for (tt, vm, vs, vn) in ((0.25, 0.1, 0.3, 0.4), (1.0, -0.15, 0.35, 0.5), (2.0, 0.0, 0.25, 0.3)):
        sdv = math.sqrt((vs ** 2 + vn * vm ** 2) * tt)
        for yv in (-1.5 * sdv, -0.2 * sdv, 0.3 * sdv, 2.0 * sdv):
            need(abs(vg_cdf(yv, tt, vm, vs, vn)[0] - vg_cdf_by_density(yv, tt, vm, vs, vn)) < 1e-8,
                 f"VG cdf t={tt} y={yv:.3f}")
    need(abs(vg_cdf(0.0, 1e-3, 0.0, 0.3, 0.5)[0] - 0.5) < 1e-12, "VG symmetric cdf at 0")
    # Poisson cumulative intensities against quadrature
    lam, cum = smooth_intensity(1.5, 2.0)
    need(abs(cum(0.7) - _quad(lam, 0, 0.7)) < 1e-10, "smooth Lambda")
    lam, cum = spike_intensity()
    spike = [SPIKE_CENTER + k * SPIKE_WIDTH for k in (-6, 0, 6)]
    need(abs(cum(1.0) - _quad(lam, 0, 1.0, points=spike)) < 1e-9, "spike Lambda")
    # Kendall functions and Kendall-law expectations
    for th in (1.5, 3.0):
        vs_ = np.linspace(0.05, 0.95, 7)
        need(np.max(np.abs(kendall_clayton(vs_, th) - archimedean_kendall_numeric(
            lambda v: (v ** -th - 1) / th, vs_))) < 1e-6, f"Clayton K theta={th}")
        need(np.max(np.abs(kendall_gumbel(vs_, th) - archimedean_kendall_numeric(
            lambda v: (-np.log(v)) ** th, vs_))) < 1e-6, f"Gumbel K theta={th}")
        q = GH(0.0, 1.0, 0.5, 0.0)
        lay = {"kind": "Layer", "a": 0.2, "b": 1.5}
        need(abs(kendall_premium(q, lambda v: kendall_clayton_density(v, th), lay)
                 - kendall_layer_by_tail(q, lambda v: kendall_clayton(v, th), 0.2, 1.5)) < 1e-8,
             f"Clayton Kendall premium theta={th}")
        need(abs(kendall_premium(q, lambda v: kendall_gumbel_density(v, th), lay)
                 - kendall_layer_by_tail(q, lambda v: kendall_gumbel(v, th), 0.2, 1.5)) < 1e-8,
             f"Gumbel Kendall premium theta={th}")
    for hh, kk, rr in ((0.3, -0.5, 0.4), (1.2, 0.7, 0.7), (-1.0, 2.0, 0.2)):
        need(abs(float(bvn_cdf(hh, kk, rr)) - bvn_cdf_by_quad(hh, kk, rr)) < 1e-10, f"BVN {hh},{kk},{rr}")
    need(abs(float(bvn_cdf(0.0, 0.0, 0.5)) - (0.25 + math.asin(0.5) / (2 * math.pi))) < 1e-14, "BVN at 0")
    # crossings: (e^{gx} - 1)/g grows with g, so an equal-h pair never
    # crosses; an equal-g pair crosses exactly at the median
    x, kind = crossing_x_star((0, 1, 1.5, 0.2), (0, 1, 0.5, 0.2))
    need(kind == "first-above", "crossing equal h")
    x, kind = crossing_x_star((0, 1, 0.5, 0.3), (0, 1, 0.5, 0.1))
    # (the difference is cubic at the root, so bisection resolves it to ~1e-5)
    need(kind == "root" and abs(x) < 1e-5, "crossing equal g")
    # split-skew integrals by two scales, and the documented reference pair
    l1, r1 = split_g_integrals(0.8, 0.2, 0.3)
    l2, r2 = split_g_integrals_by_score(0.8, 0.2, 0.3)
    need(abs(l1 - l2) < 1e-9 and abs(r1 - r2) < 1e-9, "split-g two routes")
    need(abs(l1 - 0.1341347) < 1e-6 and abs(r1 - 0.0660684) < 1e-6, "split-g reference pair")
    # lognormal pivot moments against quadrature
    for prm in ((0.0, 1.0, 0.4, 0.1, 1.2), (0.3, 2.0, -0.6, -0.5, 0.8)):
        cf = lognormal_pivot_moments(*prm)
        nq = pivot_moments_by_quad(*prm)
        need(all(abs(c - n) < 1e-7 * max(1.0, abs(c)) for c, n in zip(cf, nq)), f"pivot moments {prm}")
    return bad
