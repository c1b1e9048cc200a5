"""The thresholds of numpy's binomial inversion walk, found backwards
through its rounded subtractions: a reference that gives the tests the
uniforms either side of each threshold, where the package's replay of the
walk (mvbernstein.stochastic._walk) must draw as numpy does."""

from __future__ import annotations

import math

from mvbernstein.stochastic import _walks_from_log1p


def _below(t: float, a: float) -> float:
    """The largest double r with fl(r - a) <= t, found from fl(t + a):
    fl(r - a) is monotone in r and moves by about an ulp of r a step."""
    r = t + a
    while r - a > t:
        r = math.nextafter(r, -math.inf)
    while math.nextafter(r, math.inf) - a <= t:
        r = math.nextafter(r, math.inf)
    return r


def _thresholds(n: int, p: float) -> list[float]:
    """numpy's inversion walk for Binomial(n, p), p <= 1/2, as thresholds
    b_0 <= ... <= b_bound on its uniform U: the walk returns the number
    of them that U exceeds, and past b_bound it restarts on a new uniform.

    The walk (random_binomial_inversion) starts at X = 0 with the mass
    px = (1 - p)^n, exp(n log1p(-p)) or exp(n log q) with q = 1 - p
    (_walks_from_log1p), and while U > px it steps X on, takes px from U
    and moves px to ((n - X + 1) p px) / (X q); X passing
    bound = min(n, np + 10 sqrt(np q + 1)) restarts it. Each step is
    monotone in U, and a residual above its mass is above 0, so the
    residual it was taken from was above its own mass: the walk passes
    step x exactly when its x-th residual exceeds px_x, that is when U
    exceeds b_x, found backwards through the subtractions by _below. The
    masses are numpy's expressions in its order, in Python floats.
    """
    q = 1.0 - p
    mass = [math.exp(n * (math.log1p(-p) if _walks_from_log1p() else math.log(q)))]
    np_ = n * p
    cap = np_ + 10.0 * math.sqrt(np_ * q + 1)
    for x in range(1, (n if n < cap else int(cap)) + 1):
        mass.append(((n - x + 1) * p * mass[-1]) / (x * q))
    out = []
    for x, t in enumerate(mass):
        for a in reversed(mass[:x]):
            t = _below(t, a)
        out.append(t)
    return out


def threshold_keys(n: int, p: float) -> list[int]:
    """One key K + 1 per threshold b of Binomial(n, p)'s walk, walked at
    1 - p for p > 1/2, with K = min(floor(b 2^53), 2^53): a uniform
    k 2^-53 exceeds b when k > K, so k = K and k = K + 1 lie either side."""
    b = _thresholds(n, 1.0 - p if p > 0.5 else p)
    return [min(math.floor(t * 2**53), 2**53) + 1 for t in b]
