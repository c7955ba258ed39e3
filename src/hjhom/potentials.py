"""1-periodic Lipschitz potentials.

A potential carries enough metadata for the solvers to stay honest: a Lipschitz
constant, the sup norm, the exact mean, and (for piecewise-smooth potentials)
the interior breakpoints so integrators can align steps with the kinks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_uid = itertools.count()


@dataclass(frozen=True)
class PeriodicPotential:
    """1-periodic potential; ``eval`` receives x already reduced to [0, 1)."""

    label: str
    eval: Callable
    lipschitz_const: float
    sup_abs: float
    mean: float
    knots: tuple = ()          # interior breakpoints in (0, 1), sorted
    hard_pieces: tuple = ()    # (x0, x1, min_steps) for steeply varying pieces
    constant_value: Optional[float] = None
    fingerprint: str = ""

    def __post_init__(self):
        if not self.fingerprint:
            object.__setattr__(self, "fingerprint", f"{self.label}#{next(_uid)}")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return np.asarray(self.eval(x - np.floor(x)), dtype=float)

    def __call__(self, x):
        return self.values(x)

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None


def zero_potential() -> PeriodicPotential:
    return constant_potential(0.0, label="zero")


def constant_potential(v0: float, label: str = None) -> PeriodicPotential:
    v0 = float(v0)
    return PeriodicPotential(
        label or f"const({v0:g})",
        lambda x: np.full_like(np.asarray(x, dtype=float), v0),
        lipschitz_const=0.0,
        sup_abs=abs(v0),
        mean=v0,
        constant_value=v0,
        fingerprint=f"const:{v0!r}",
    )


def cosine_potential(amplitude: float = 1.0, harmonics: int = 1) -> PeriodicPotential:
    a = float(amplitude)
    k = int(harmonics)
    w = 2.0 * np.pi * k
    return PeriodicPotential(
        f"cosine(a={a:g},k={k})",
        lambda x: a * np.cos(w * np.asarray(x, dtype=float)),
        lipschitz_const=abs(a) * w,
        sup_abs=abs(a),
        mean=0.0,
        fingerprint=f"cos:{a!r}:{k}",
    )


def from_csv(path) -> PeriodicPotential:
    """Sampled potential from CSV columns x,V with x in [0, 1); linear
    interpolation with periodic wrap-around."""
    raw = np.genfromtxt(path, delimiter=",", names=True)
    for col in ("x", "V"):
        if col not in raw.dtype.names:
            raise ValueError(f"CSV is missing column {col!r}")
    xs = np.asarray(raw["x"], dtype=float)
    vs = np.asarray(raw["V"], dtype=float)
    if not np.all(np.diff(xs) > 0) or xs[0] < 0.0 or xs[-1] >= 1.0:
        raise ValueError("x must be strictly increasing inside [0, 1)")
    xs_ext = np.concatenate([xs, [xs[0] + 1.0]])
    vs_ext = np.concatenate([vs, [vs[0]]])

    def ev(x):
        return np.interp(np.asarray(x, dtype=float), xs_ext, vs_ext)

    import hashlib

    digest = hashlib.sha256(np.ascontiguousarray(raw).tobytes()).hexdigest()[:16]
    slopes = np.diff(vs_ext) / np.diff(xs_ext)
    return PeriodicPotential(
        f"csv:{path}", ev, lipschitz_const=float(np.max(np.abs(slopes))),
        sup_abs=float(np.max(np.abs(vs))),
        mean=float(np.trapezoid(vs_ext, xs_ext)),
        knots=tuple(xs[1:]), fingerprint=f"vcsv:{digest}")


def reflect_potential(V: PeriodicPotential) -> PeriodicPotential:
    """The spatially reflected potential x -> V(-x)."""
    if V.is_constant:
        return V

    def ev(x):
        y = (1.0 - np.asarray(x, dtype=float)) % 1.0
        return V.eval(y)

    knots = tuple(sorted((1.0 - k) % 1.0 for k in V.knots))
    hard = tuple(sorted((1.0 - b, 1.0 - a, n) for a, b, n in V.hard_pieces))
    return PeriodicPotential(
        f"reflect({V.label})", ev, V.lipschitz_const, V.sup_abs, V.mean,
        knots=knots, hard_pieces=hard, constant_value=V.constant_value,
        fingerprint=f"reflect({V.fingerprint})",
    )
