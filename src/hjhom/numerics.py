"""Shared numerical utilities: dense extremum sampling, piecewise quadrature,
grid-based quasiconvexity tests and level-crossing searches."""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq, minimize_scalar

DENSE_SAMPLES = 2**14


def sample_min(fn, lo: float, hi: float, n: int = DENSE_SAMPLES, refine: bool = True):
    """Minimum of ``fn`` on [lo, hi] by dense sampling plus local refinement.

    Returns (argmin, min). ``fn`` must accept numpy arrays.
    """
    if hi <= lo:
        raise ValueError("empty interval")
    x = np.linspace(lo, hi, n)
    v = np.asarray(fn(x), dtype=float)
    i = int(np.argmin(v))
    if not refine:
        return float(x[i]), float(v[i])
    a = x[max(i - 1, 0)]
    b = x[min(i + 1, n - 1)]
    if a == b:
        return float(x[i]), float(v[i])
    res = minimize_scalar(lambda p: float(fn(p)), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12})
    if res.fun <= v[i]:
        return float(res.x), float(res.fun)
    return float(x[i]), float(v[i])


def sample_max(fn, lo: float, hi: float, n: int = DENSE_SAMPLES, refine: bool = True):
    xm, vm = sample_min(lambda p: -fn(p), lo, hi, n=n, refine=refine)
    return xm, -vm


def max_abs_on(fn, lo: float, hi: float, n: int = DENSE_SAMPLES) -> float:
    _, hi_v = sample_max(lambda p: np.abs(fn(p)), lo, hi, n=n)
    return hi_v


def is_quasiconvex_on_grid(values, tol: float = 0.0) -> bool:
    """True iff every sublevel set of the sampled values is one index interval.

    Equivalent to: non-increasing up to some argmin, non-decreasing after,
    up to ``tol`` slack for floating noise.
    """
    v = np.asarray(values, dtype=float)
    m = int(np.argmin(v))
    d = np.diff(v)
    return bool(np.all(d[:m] <= tol) and np.all(d[m:] >= -tol))


def leftmost_crossing(fn, level: float, lo: float, hi: float, n: int = DENSE_SAMPLES) -> float:
    """Leftmost p in [lo, hi] with fn(p) <= level; fn(lo) > level is required.

    Grid scan for the first sign change, then bisection on that bracket.
    """
    x = np.linspace(lo, hi, n)
    v = np.asarray(fn(x), dtype=float)
    below = v <= level
    if below[0]:
        return float(x[0])
    if not below.any():
        raise ValueError("no crossing on interval")
    j = int(np.argmax(below))
    return brentq(lambda p: float(fn(p)) - level, x[j - 1], x[j], xtol=1e-13)


def rightmost_crossing(fn, level: float, lo: float, hi: float, n: int = DENSE_SAMPLES) -> float:
    return -leftmost_crossing(lambda p: fn(-p), level, -hi, -lo, n=n)


def expand_until(fn, level: float, center: float, step0: float = 1.0, max_doublings: int = 60):
    """Grow [center-w, center+w] until fn > level at both ends (coercive fn)."""
    w = step0
    for _ in range(max_doublings):
        if fn(center - w) > level and fn(center + w) > level:
            return center - w, center + w
        w *= 2.0
    raise RuntimeError("coercivity bracket expansion failed")


def _stencil_weights(a, b):
    """Weights of the near, middle and far node of a three-point stencil for
    its outer interval of width a, the other interval having width b."""
    r = a / (a + b)
    q = r * (a / b)
    return a / 6.0 * (3.0 - r), a / 6.0 * (3.0 + q + r), -a / 6.0 * q


class PiecewiseSimpson:
    """Simpson quadrature on the nodes x that never fits a quadratic across a
    smooth-piece edge (``piece_idx``: node indices of the edges). Within a
    piece the intervals pair as in scipy's ``cumulative_simpson``: an interval
    at an even offset uses its two nodes and the next, an odd one the previous
    node and its two, the last interval the last three nodes, and a piece of
    one interval the trapezoid. The weights come from the step sizes alone, so
    they stay accurate where the spacing is far below |x|. Integrands may carry
    leading batch axes.

    With ``segments`` = K > 1 the intervals are cut into K runs of L = ceil(n/K)
    (the last one padded with zero-width intervals), each integrated from its
    own start: integrands then have shape (..., K, L + 1), one row of nodes per
    segment, and segment edges are piece edges.
    """

    def __init__(self, x, piece_idx=None, segments: int = 1):
        h = np.diff(np.asarray(x, dtype=float))
        n = len(h)
        L = -(-n // segments)
        edges = np.union1d([0, n] if piece_idx is None else piece_idx,
                           np.arange(0, segments * L + 1, L))
        # every padding interval is a piece of its own: trapezoid of width 0
        edges = np.union1d(edges, np.arange(n, segments * L + 1))
        h = np.concatenate([h, np.zeros(segments * L - n)])
        n = len(h)
        size = np.diff(edges)
        length = np.repeat(size, size)
        k = np.arange(n) - np.repeat(edges[:-1], size)
        # w[0..3]: weights of y[j-1], y[j], y[j+1], y[j+2] for interval j
        w = np.zeros((4, n))
        j = np.flatnonzero((k % 2 == 0) & (k < length - 1))
        w[1, j], w[2, j], w[3, j] = _stencil_weights(h[j], h[j + 1])
        j = np.flatnonzero(((k % 2 == 1) | (k == length - 1)) & (length > 1))
        w[2, j], w[1, j], w[0, j] = _stencil_weights(h[j], h[j - 1])
        j = np.flatnonzero(length == 1)
        w[1, j] = w[2, j] = 0.5 * h[j]
        self.w = w if segments == 1 else w.reshape(4, segments, L)

    def intervals(self, y):
        """Integral of y over each interval, shape (..., n - 1)."""
        w = self.w
        sub = w[1] * y[..., :-1] + w[2] * y[..., 1:]
        sub[..., 1:] += w[0][..., 1:] * y[..., :-2]
        sub[..., :-1] += w[3][..., :-1] * y[..., 2:]
        return sub

    def cumulative(self, y):
        """Integral of y from x[0] to every node; 0 at x[0]."""
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape)
        out[..., 0] = 0.0
        np.cumsum(self.intervals(y), axis=-1, out=out[..., 1:])
        return out

    def integral(self, y):
        """Integral of y over [x[0], x[-1]]."""
        return self.intervals(np.asarray(y, dtype=float)).sum(axis=-1)


def cumulative_simpson_pieces(y, x, piece_idx=None):
    """Cumulative :class:`PiecewiseSimpson` integral of y (..., n) on x."""
    return PiecewiseSimpson(x, piece_idx).cumulative(y)
