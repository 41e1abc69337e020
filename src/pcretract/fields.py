"""Scalar fields on a retract and the composition extension operator.

Fields come from a fixed catalog, read by ``parse_field``, and from finite
linear combinations of catalog fields, with declared bounds and Lipschitz
constants.  Arbitrary scalar functions are deliberately not representable.
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


def const_field(c: float, dim: int, domain) -> ScalarField:
    c = float(c)
    return ScalarField(f"const:{c:g}", dim, lambda pts: np.full(len(pts), c), domain, abs(c), 0.0)


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
    """Catalog field on ``domain`` from a CLI expression <head>:<arguments>.

    Coordinates i, j lie in 0..dim-1, constants c are finite, and R is
    ``radius``, which bounds |x_i| <= ||x||_p (p >= 1) on the domain:

    expression                  field           bound           Lipschitz
    ``const:<c>``               c               |c|             0
    ``coord:<i>``               x_i             R               1
    ``sin:<i>``                 sin x_i         min(1, R)       1
    ``cos:<i>``                 cos x_i         1               1
    ``prod:<i>,<j>``            x_i x_j         R^2             2R
    ``poly:<i>:<c0>,<c1>,...``  sum c_k x_i^k   sum |c_k| R^k   sum k |c_k| R^(k-1)

    At R = inf the entries with R in them are None, but sin's bound stays 1;
    a poly sum past the float range is inf.
    An unknown head or a malformed argument raises FieldDomainError.
    """
    expr = expr.strip()
    head, sep, rest = expr.partition(":")
    if not sep or head not in FIELD_HEADS:
        raise FieldDomainError(f"unrecognized field expression {expr!r}")
    try:
        if head == "const":
            return const_field(_finite(rest), dim, domain)
        finite = math.isfinite(radius)
        if head == "prod":
            i, j = rest.split(",")
            coords = (int(i), int(j))
        elif head == "poly":
            i, _, cs = rest.partition(":")
            coords = (int(i),)
            coeffs = tuple(_finite(c) for c in cs.split(","))

            def times_power(a, k):
                """a * radius**k for a >= 0, saturating to inf as a float product does."""
                try:
                    return a * radius**k
                except OverflowError:  # radius**k left the float range
                    return math.inf if a else 0.0

            bound = sum(times_power(abs(c), k) for k, c in enumerate(coeffs)) if finite else None
            lip = sum(times_power(k * abs(c), k - 1) for k, c in enumerate(coeffs) if k) if finite else None
        else:
            coords = (int(rest),)
        for k in coords:
            if not 0 <= k < dim:
                raise FieldDomainError(f"coordinate {k} out of range for dimension {dim}")
    except (ValueError, TypeError) as exc:
        raise FieldDomainError(f"malformed field expression {expr!r}: {exc}") from exc
    i, j = coords[0], coords[-1]
    label = f"{head}:" + ",".join(map(str, coords))
    if head == "coord":
        return ScalarField(label, dim, lambda pts: pts[:, i].copy(), domain, radius if finite else None, 1.0)
    if head == "sin":
        return ScalarField(label, dim, lambda pts: np.sin(pts[:, i]), domain,
                           min(1.0, radius) if finite else 1.0, 1.0)
    if head == "cos":
        return ScalarField(label, dim, lambda pts: np.cos(pts[:, i]), domain, 1.0, 1.0)
    if head == "prod":
        return ScalarField(label, dim, lambda pts: pts[:, i] * pts[:, j], domain,
                           radius * radius if finite else None, 2.0 * radius if finite else None)

    def rule(pts):
        t, out = pts[:, i], np.zeros(len(pts))
        for c in reversed(coeffs):  # Horner, from the last coefficient
            out = out * t + c
        return out

    return ScalarField(label + ":" + ",".join(f"{c:g}" for c in coeffs), dim, rule, domain, bound, lip)


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
