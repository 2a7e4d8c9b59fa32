"""Parameter spaces, quadrature discretization and weight functions.

A continuous parameter space (interval or circle) is replaced by an atomic
measure: quadrature nodes with strictly positive masses. Finite label spaces
are already atomic and are rejected by ``discretize``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import require_finite

RULES = ("midpoint", "trapezoid", "gauss_legendre")


@dataclass(frozen=True)
class ParameterSpace:
    """Index set of a family: finite labels, an interval or a circle."""

    kind: str
    labels: tuple = ()
    a: float = 0.0
    b: float = 0.0
    period: float = 0.0

    def __post_init__(self):
        if self.kind not in ("finite", "interval", "circle"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "interval" and not (self.b > self.a and math.isfinite(self.b - self.a)):
            raise ValueError(f"interval needs b > a and a finite length, got [{self.a}, {self.b}]")
        if self.kind == "circle" and not 0 < self.period < math.inf:
            raise ValueError(f"circle needs a positive finite period, got {self.period}")

    @classmethod
    def finite(cls, labels):
        return cls(kind="finite", labels=tuple(labels))

    @classmethod
    def interval(cls, a: float, b: float):
        return cls(kind="interval", a=float(a), b=float(b))

    @classmethod
    def circle(cls, period: float = 2.0 * math.pi):
        return cls(kind="circle", period=float(period))

    @property
    def length(self) -> float:
        if self.kind == "interval":
            return self.b - self.a
        if self.kind == "circle":
            return self.period
        raise ValueError("finite spaces carry no length")


@dataclass(frozen=True)
class AtomicMeasure:
    """Quadrature nodes with strictly positive masses."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        ms = np.asarray(self.masses, dtype=float)
        if pts.shape != ms.shape or pts.ndim != 1:
            raise ValueError(
                f"points {pts.shape} and masses {ms.shape} must be aligned 1-d arrays"
            )
        if pts.size == 0:
            raise ValueError("a measure needs at least one atom")
        if not np.all(ms > 0):
            raise ValueError("all masses must be strictly positive")
        if len(np.unique(pts)) != len(pts):
            raise ValueError("atoms must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)

    @property
    def natoms(self) -> int:
        return int(self.points.size)

    @property
    def total(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class DiscretizationScheme:
    rule: str
    n: int

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}, expected one of {RULES}")
        if self.n < 1:
            raise ValueError(f"need n >= 1 nodes, got {self.n}")
        if self.rule == "trapezoid" and self.n < 2:
            raise ValueError("trapezoid rule needs n >= 2")


def discretize(space: ParameterSpace, scheme: DiscretizationScheme) -> AtomicMeasure:
    """Atomic measure for a continuous parameter space under a quadrature rule.

    Interval spaces support midpoint, trapezoid and gauss_legendre; the
    circle supports the midpoint rule on a uniform grid, which is the
    spectrally accurate choice for periodic integrands.
    """
    n = scheme.n
    if space.kind == "finite":
        raise ValueError("finite spaces are already atomic; nothing to discretize")
    if space.kind == "circle":
        if scheme.rule != "midpoint":
            raise ValueError("circle spaces support only the midpoint rule")
        h = space.period / n
        pts = (np.arange(n) + 0.5) * h
        return AtomicMeasure(points=pts, masses=np.full(n, h))
    a, b = space.a, space.b
    if scheme.rule == "midpoint":
        h = (b - a) / n
        pts = a + (np.arange(n) + 0.5) * h
        return AtomicMeasure(points=pts, masses=np.full(n, h))
    if scheme.rule == "trapezoid":
        h = (b - a) / (n - 1)
        pts = a + np.arange(n) * h
        ms = np.full(n, h)
        ms[0] = ms[-1] = h / 2.0
        return AtomicMeasure(points=pts, masses=ms)
    # gauss_legendre
    nodes, wts = np.polynomial.legendre.leggauss(n)
    pts = (a + b) / 2.0 + (b - a) / 2.0 * nodes
    ms = (b - a) / 2.0 * wts
    return AtomicMeasure(points=pts, masses=ms)


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight, either a callable of the atom point or a table.

    Table weights are positional: value i belongs to atom i, so the table
    length must match the points it is sampled at.
    """

    evaluator: Callable[[float], float] | None = None
    table: tuple = ()

    def __call__(self, x: float) -> float:
        if self.evaluator is None:
            raise ValueError("table weights have no pointwise evaluator")
        return float(self.evaluator(x))

    def at(self, points) -> np.ndarray:
        """The weight at each point, positionally for a table."""
        if not self.table:
            return np.array([self(float(x)) for x in points], dtype=float)
        if len(self.table) != len(points):
            raise ValueError(f"table weight has {len(self.table)} entries for {len(points)} atoms")
        return np.array(self.table, dtype=float)


def weight_from_spec(spec: str) -> WeightFunction:
    """Parse a weight registry key.

    Known forms: ``const:c``, ``poly:c0,c1,...`` (coefficients by ascending
    power), ``sin``, and ``table:[v0,v1,...]``.
    """
    if not isinstance(spec, str):
        raise ValueError(f"weight spec must be a string, got {type(spec).__name__}")
    if spec == "sin":
        return WeightFunction(evaluator=math.sin)
    if spec.startswith("const:"):
        c = float(spec[len("const:"):])
        return WeightFunction(evaluator=lambda x, c=c: c)
    if spec.startswith("poly:"):
        try:
            coeffs = [float(t) for t in spec[len("poly:"):].split(",")]
        except ValueError as exc:
            raise ValueError(f"bad poly weight spec {spec!r}") from exc
        if not coeffs:
            raise ValueError("poly weight needs at least one coefficient")
        return WeightFunction(
            evaluator=lambda x, c=tuple(coeffs): float(sum(ck * x**k for k, ck in enumerate(c)))
        )
    if spec.startswith("table:"):
        from .serialize import _number

        try:
            vals = json.loads(spec[len("table:"):])
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad table weight spec {spec!r}") from exc
        if not isinstance(vals, list) or not vals:
            raise ValueError("table weight needs a nonempty JSON list")
        return WeightFunction(
            table=tuple(_number(v, f"table weight entry {i}") for i, v in enumerate(vals))
        )
    raise ValueError(f"unknown weight spec {spec!r}")


@dataclass(frozen=True)
class SampledWeights:
    """Weight values at the atoms; zero atoms are flagged, negatives rejected."""

    values: np.ndarray
    zero_atoms: tuple


def sample_weights(weight: WeightFunction, measure: AtomicMeasure) -> SampledWeights:
    """Evaluate a weight function on the atoms of a measure.

    Raises ValueError on any negative or non-finite value. Atoms with weight exactly zero
    are legal but flagged, since downstream families exclude them.
    """
    vals = require_finite(weight.at(measure.points), "weight")
    neg = np.nonzero(vals < 0)[0]
    if neg.size:
        raise ValueError(
            f"negative weight {vals[neg[0]]:.6e} at atom index {int(neg[0])}"
        )
    zero = tuple(int(i) for i in np.nonzero(vals == 0)[0])
    return SampledWeights(values=vals, zero_atoms=zero)


def quadrature(func: Callable[[float], float], measure: AtomicMeasure) -> float:
    """Plain quadrature sum of a scalar integrand against an atomic measure."""
    return float(
        sum(m * func(float(x)) for x, m in zip(measure.points, measure.masses))
    )
