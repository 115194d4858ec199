import math

import numpy as np
import pytest

from quantproc import valuation as va


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample Kolmogorov-Smirnov critical value (1.63/sqrt(n) at 1%)."""
    coeff = {0.01: 1.63, 0.05: 1.36}[alpha]
    return coeff / math.sqrt(n)


def ks_statistic_uniform(u: np.ndarray) -> float:
    """Sup-distance of a sample's empirical CDF from Uniform[0, 1].

    Kept independent of scipy so scipy.stats.kstest can serve as the
    cross-check implementation in tests.
    """
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - u), np.max(u - grid_lo)))


class InfLinear(va.Linear):
    """A Linear payoff that is +inf at the first path of every block it prices."""

    def __call__(self, y):
        v = super().__call__(y)
        v.flat[0] = np.inf
        return v


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
