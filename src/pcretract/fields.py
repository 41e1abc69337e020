"""Scalar fields on a retract and the composition extension operator.

Fields come from a fixed catalog (constants, coordinate projections,
single-coordinate polynomials, sines/cosines of coordinates, products of two
coordinates, finite linear combinations) with declared bounds and Lipschitz
constants relative to the radius of their domain.  Arbitrary scalar functions
are deliberately not representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import DEFAULT_TOLERANCE, DimensionMismatch, PieceFamily, Region, as_points, as_vector
from .constructions import PiecewiseMap


class FieldDomainError(ValueError):
    """Field and map domains do not fit together."""


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real-valued function on a described domain.

    ``bound`` is a declared bound on |f| (None = unbounded).  ``witness`` is
    populated only for fields produced by the extension operator; catalog
    fields are globally continuous and carry none.
    """

    label: str
    dim: int
    rule: Callable[[np.ndarray], np.ndarray]
    domain: Region
    bound: Optional[float] = None
    lipschitz: Optional[float] = None
    witness: Optional[PieceFamily] = None

    @property
    def bounded(self) -> bool:
        return self.bound is not None

    def apply(self, pts) -> np.ndarray:
        return self.rule(as_points(pts, self.dim))

    def __call__(self, x) -> float:
        return float(self.apply(as_vector(x)[None, :])[0])


def _catalog_field(label: str, coords: tuple, dim: int, domain, rule, bound, lipschitz) -> ScalarField:
    """A catalog field that reads the coordinates ``coords``; unbounded when
    ``bound`` is None."""
    for i in coords:
        if not (0 <= i < dim):
            raise FieldDomainError(f"coordinate {i} out of range for dimension {dim}")
    return ScalarField(
        label=label,
        dim=dim,
        rule=rule,
        domain=domain,
        bound=bound,
        lipschitz=lipschitz,
    )


def const_field(c: float, dim: int, domain) -> ScalarField:
    c = float(c)
    return _catalog_field(f"const:{c:g}", (), dim, domain, lambda pts: np.full(len(pts), c), abs(c), 0.0)


def coord_field(i: int, dim: int, domain, radius: float = 1.0) -> ScalarField:
    # |x_i| <= ||x||_p for every p >= 1, so `radius` bounds the field.
    bound = radius if math.isfinite(radius) else None
    return _catalog_field(f"coord:{i}", (i,), dim, domain, lambda pts: pts[:, i].copy(), bound, 1.0)


def sin_field(i: int, dim: int, domain, radius: float = 1.0) -> ScalarField:
    bound = min(1.0, radius) if math.isfinite(radius) else 1.0
    return _catalog_field(f"sin:{i}", (i,), dim, domain, lambda pts: np.sin(pts[:, i]), bound, 1.0)


def cos_field(i: int, dim: int, domain) -> ScalarField:
    return _catalog_field(f"cos:{i}", (i,), dim, domain, lambda pts: np.cos(pts[:, i]), 1.0, 1.0)


def prod_field(i: int, j: int, dim: int, domain, radius: float = 1.0) -> ScalarField:
    finite = math.isfinite(radius)
    return _catalog_field(
        f"prod:{i},{j}", (i, j), dim, domain, lambda pts: pts[:, i] * pts[:, j],
        radius * radius if finite else None, 2.0 * radius if finite else None,
    )


def poly_field(i: int, coeffs: Sequence[float], dim: int, domain, radius: float = 1.0) -> ScalarField:
    """c0 + c1*x_i + c2*x_i^2 + ... in the single coordinate x_i."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise FieldDomainError("polynomial needs at least one coefficient")

    def rule(pts):
        t = pts[:, i]
        out = np.zeros(len(pts))
        for c in reversed(coeffs):
            out = out * t + c
        return out

    finite = math.isfinite(radius)
    bound = sum(abs(c) * radius**k for k, c in enumerate(coeffs)) if finite else None
    lip = sum(k * abs(c) * radius ** (k - 1) for k, c in enumerate(coeffs) if k) if finite else None
    label = "poly:" + str(i) + ":" + ",".join(f"{c:g}" for c in coeffs)
    return _catalog_field(label, (i,), dim, domain, rule, bound, lip)


def linear_combination(terms: Sequence[tuple]) -> ScalarField:
    """sum of alpha * field over (alpha, field) pairs."""
    terms = [(float(a), f) for a, f in terms]
    if not terms:
        raise FieldDomainError("linear combination needs at least one term")
    dim = terms[0][1].dim
    domain = terms[0][1].domain
    if any(f.dim != dim for _, f in terms):
        raise FieldDomainError("linear combination terms disagree on dimension")

    def rule(pts):
        out = np.zeros(len(pts))
        for a, f in terms:
            out += a * f.rule(pts)
        return out

    bound = sum(abs(a) * f.bound for a, f in terms) if all(f.bounded for _, f in terms) else None
    lips = [f.lipschitz for _, f in terms]
    lip = sum(abs(a) * l for (a, _), l in zip(terms, lips)) if all(
        l is not None for l in lips
    ) else None
    return ScalarField(
        label="+".join(f"{a:g}*{f.label}" for a, f in terms),
        dim=dim, rule=rule, domain=domain, bound=bound, lipschitz=lip,
    )


# The heads parse_field reads: a CLI expression is <head>:<arguments>.
FIELD_HEADS = ("const", "coord", "sin", "cos", "prod", "poly")


def _finite(text: str) -> float:
    c = float(text)
    if not math.isfinite(c):
        raise ValueError(f"constant {c} is not finite")
    return c


def parse_field(expr: str, dim: int, domain, radius: float = 1.0) -> ScalarField:
    """Catalog field from a CLI expression: const:<c>, coord:<i>, sin:<i>,
    cos:<i>, prod:<i>,<j>, poly:<i>:<c0>,<c1>,...; every constant c must be
    finite."""
    expr = expr.strip()
    head, sep, rest = expr.partition(":")
    try:
        if head == "const" and sep:
            return const_field(_finite(rest), dim, domain)
        if head == "coord" and sep:
            return coord_field(int(rest), dim, domain, radius)
        if head == "sin" and sep:
            return sin_field(int(rest), dim, domain, radius)
        if head == "cos" and sep:
            return cos_field(int(rest), dim, domain)
        if head == "prod" and sep:
            i, j = rest.split(",")
            return prod_field(int(i), int(j), dim, domain, radius)
        if head == "poly" and sep:
            i, _, cs = rest.partition(":")
            return poly_field(int(i), [_finite(c) for c in cs.split(",")], dim, domain, radius)
    except (ValueError, TypeError) as exc:
        raise FieldDomainError(f"malformed field expression {expr!r}: {exc}") from exc
    raise FieldDomainError(f"unrecognized field expression {expr!r}")


def _covers(domain, retract) -> bool:
    """Whether ``domain`` holds a seeded draw of 128 points of the retract;
    only the draw's dimension is checked."""
    probe = retract.sample(np.random.default_rng(0), 128)
    if domain.dim != probe.shape[1]:
        raise DimensionMismatch(f"expected dimension {domain.dim}, got {probe.shape[1]}")
    return bool(np.all(domain._contains(probe, DEFAULT_TOLERANCE.membership_tol)))


def extension_operator(phi: PiecewiseMap, f: ScalarField) -> ScalarField:
    """Compose: x -> f(phi(x)), extending f from the retract to phi's domain.

    f must be continuous, as every catalog field and combination of them
    is; the composed field then carries phi's witness.  A field that carries
    a witness of its own (the output of this operator) raises
    FieldDomainError, and so does a field domain that misses a seeded draw
    of the retract.  A field whose domain is the retract itself, as for
    every field parse_field builds on a map's codomain, needs no such test;
    any other domain is tested on every call.
    """
    if f.witness is not None:
        raise FieldDomainError(f"field {f.label} carries its own witness; only continuous fields extend")
    if f.dim != phi.codomain.dim:
        raise FieldDomainError(
            f"field lives in dimension {f.dim}, map retract in {phi.codomain.dim}"
        )
    if f.domain is not phi.codomain and not _covers(f.domain, phi.codomain):
        raise FieldDomainError("field domain does not cover the map's retract (sampled)")

    def rule(pts):
        return f.rule(phi.rule(pts))

    return ScalarField(
        label=f"T[{phi.construction_id}]({f.label})",
        dim=phi.dim,
        rule=rule,
        domain=phi.domain,
        bound=f.bound,
        lipschitz=None,
        witness=phi.witness,
    )
