"""Rational maps between ambient spaces and the paired-scan harness.

A rational linear map carries rational subspaces to rational subspaces and
multiplies heights by at most a certified constant: the map's compound matrix
transports coordinate labels, so a denominator-cleared Frobenius bound on the
compound gives an exact rational distortion constant.

The embedding harness measures the same approximation exponent twice, once
inside a coordinate subspace and once in the surrounding space, and matches
the two record lists through the embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from . import exact
from .angles import PrecisionContext
from .enumeration import EnumSpec, exact_strategy
from .errors import (
    DimensionCollapseError,
    ParameterError,
    ShapeError,
)
from .estimation import (
    ApproximationRecord,
    ExponentEstimate,
    QuadraticLineTarget,
    RationalLineTarget,
    estimate_exponent,
    scan_embedded_line_records,
    scan_line_records,
    scan_records,
)


@dataclass(frozen=True)
class RationalMap:
    """A linear map with rational entries between coordinate spaces.

    matrix has one row per codomain coordinate; denominator_clearing is the
    smallest positive integer k with k * matrix integral.
    """

    matrix: exact.Matrix
    denominator_clearing: int

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[exact.Scalar]]) -> "RationalMap":
        m = exact.as_matrix(rows)
        k = math.lcm(*(Fraction(x).denominator for row in m for x in row))
        return cls(matrix=m, denominator_clearing=k)

    @property
    def codomain_dim(self) -> int:
        return len(self.matrix)

    @property
    def domain_dim(self) -> int:
        return len(self.matrix[0])

    def compound(self, e: int) -> exact.Matrix:
        """Minor matrix transporting e-dimensional coordinate labels."""
        return exact.compound_matrix(self.matrix, e)


def identity_map(n: int) -> RationalMap:
    return RationalMap.from_rows(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )


def coordinate_embedding(
    domain_dim: int, ambient_dim: int, axes: Sequence[int] | None = None
) -> RationalMap:
    """The map sending the i-th domain coordinate to the axes[i]-th one."""
    if axes is None:
        axes = tuple(range(domain_dim))
    axes = tuple(axes)
    if len(axes) != domain_dim or len(set(axes)) != domain_dim:
        raise ParameterError("need one distinct ambient axis per domain axis")
    if not all(0 <= a < ambient_dim for a in axes):
        raise ParameterError("ambient axis out of range")
    rows = [[0] * domain_dim for _ in range(ambient_dim)]
    for j, a in enumerate(axes):
        rows[a][j] = 1
    return RationalMap.from_rows(rows)


def apply_to_subspace(
    phi: RationalMap, sub: exact.RationalSubspace
) -> exact.RationalSubspace:
    """Image subspace with recomputed label and height.

    Requires the image to keep the full dimension; a rank drop raises
    DimensionCollapseError.
    """
    if phi.domain_dim != sub.n:
        raise ShapeError(
            f"map expects dimension {phi.domain_dim}, subspace lives in {sub.n}"
        )
    image = exact.mat_mul(phi.matrix, sub.basis)
    if exact.rank(image) < sub.e:
        raise DimensionCollapseError(
            f"image of a {sub.e}-dimensional subspace dropped rank"
        )
    return exact.RationalSubspace.from_basis(image)


def ceil_sqrt(x: Fraction | int) -> Fraction:
    """Smallest rational of the form m/q at or above sqrt(x), exact."""
    x = Fraction(x)
    if x < 0:
        raise ParameterError("square root of a negative value")
    p, q = x.numerator, x.denominator
    s = isqrt(p * q)
    if s * s < p * q:
        s += 1
    return Fraction(s, q)


def height_distortion_constant(phi: RationalMap, e: int) -> Fraction:
    """Certified rational c with H(image)^2 <= c^2 H(source)^2.

    The image label is proportional to the e-th compound of the map applied
    to the source label; clearing denominators keeps it integral and the
    Frobenius norm bounds the stretch, so
    c = (denominator clearing of the compound) * ceil_sqrt(sum of squares).
    Normalizing the image label only ever shrinks it, so the bound survives
    gcd reduction.  When e exceeds the codomain dimension every image
    collapses, and the constant degenerates to zero.
    """
    if not 1 <= e <= phi.domain_dim:
        raise ParameterError("compound order must be between 1 and the domain dim")
    if e > phi.codomain_dim:
        return Fraction(0)
    comp = phi.compound(e)
    k_e = math.lcm(*(Fraction(x).denominator for row in comp for x in row))
    frob2 = sum(Fraction(x) ** 2 for row in comp for x in row)
    return k_e * ceil_sqrt(frob2)


def section_of(phi: RationalMap, f_subspace: exact.RationalSubspace) -> RationalMap:
    """The right inverse of phi landing in a subspace it maps bijectively.

    Returns E with phi . E = identity and image(E) = the subspace; the
    restriction of phi must be invertible.
    """
    if phi.domain_dim != f_subspace.n:
        raise ShapeError("map domain must be the subspace's ambient space")
    if phi.codomain_dim != f_subspace.e:
        raise ParameterError(
            "the subspace dimension must match the map's codomain"
        )
    restricted = exact.mat_mul(phi.matrix, f_subspace.basis)
    if exact.rank(restricted) < f_subspace.e:
        raise DimensionCollapseError("map does not restrict invertibly")
    section = exact.mat_mul(f_subspace.basis, exact.inverse(restricted))
    return RationalMap.from_rows(section)


def _standard_axis_of(column: Sequence[exact.Scalar]) -> int | None:
    hits = [i for i, v in enumerate(column) if v != 0]
    if len(hits) == 1 and column[hits[0]] == 1:
        return hits[0]
    return None


def _coordinate_axes(section: RationalMap) -> tuple[int, int] | None:
    """Detect a plane embedding by two increasing standard axes, else None."""
    cols = exact.transpose(section.matrix)
    if len(cols) != 2:
        return None
    i0 = _standard_axis_of(cols[0])
    i1 = _standard_axis_of(cols[1])
    if i0 is None or i1 is None or not i0 < i1:
        return None
    return i0, i1


@dataclass(frozen=True)
class HarnessReport:
    """Paired exponent measurement across an embedding.

    record_pairs lists (intrinsic index, ambient index) for every intrinsic
    record whose image under the embedding section appears among the ambient
    records; delta is the absolute exponent gap.
    """

    embedding: RationalMap
    intrinsic: ExponentEstimate
    ambient: ExponentEstimate
    intrinsic_records: tuple[ApproximationRecord, ...]
    ambient_records: tuple[ApproximationRecord, ...]
    mu_intrinsic: float
    mu_ambient: float
    delta: float
    record_pairs: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {
            "muIntrinsic": self.mu_intrinsic,
            "muAmbient": self.mu_ambient,
            "delta": self.delta,
            "recordPairs": [list(pair) for pair in self.record_pairs],
        }


def _pair_records(
    section: RationalMap,
    intrinsic: Sequence[ApproximationRecord],
    ambient: Sequence[ApproximationRecord],
) -> tuple[tuple[int, int], ...]:
    ambient_by_coords = {
        rec.subspace.pluecker.coords: pos for pos, rec in enumerate(ambient)
    }
    pairs = []
    for pos, rec in enumerate(intrinsic):
        image = apply_to_subspace(section, rec.subspace)
        mate = ambient_by_coords.get(image.pluecker.coords)
        if mate is not None:
            pairs.append((pos, mate))
    return tuple(pairs)


def embedding_harness(
    tilde_target,
    f_subspace: exact.RationalSubspace,
    phi: RationalMap,
    height_squared_max: int,
    j_index: int = 1,
    e: int = 1,
    ctx: PrecisionContext | None = None,
    zone: int | None = None,
    ambient_zone: int | None = None,
) -> HarnessReport:
    """Measure one exponent in two ambients and match the record lists.

    tilde_target lives in the small space (the map's codomain); the harness
    pulls it back through the section of phi into the ambient space, scans
    records on both sides over every subspace of the stated shape, and pairs
    intrinsic records with their ambient images.  Line targets need the
    section to be a coordinate embedding of a plane (exact fast scans);
    matrix targets run the generic exact-strategy scans on both sides.

    For a line target the two record lists agree record by record: a line
    off the embedded plane has a sine at least that of its projection,
    whose primitive vector is strictly lower, so it sets no record, and the
    ambient records are the intrinsic ones embedded on the axes
    (scan_embedded_line_records).  zone and ambient_zone are ignored,
    removed once the benchmark stops passing them (ROADMAP item 8).
    """
    section = section_of(phi, f_subspace)
    k = phi.codomain_dim
    n = f_subspace.n

    if isinstance(tilde_target, (RationalLineTarget, QuadraticLineTarget)):
        if e != 1 or k != 2 or j_index != 1:
            raise ParameterError("line targets compare first-angle line records"
                                 " in the plane")
        axes = _coordinate_axes(section)
        if axes is None:
            raise ParameterError(
                "line targets need a coordinate plane embedding; a general"
                " section cannot be scanned exactly"
            )
        intrinsic_records = scan_line_records(tilde_target, height_squared_max)
        ambient_records = scan_embedded_line_records(
            tilde_target, n, height_squared_max, axes=axes
        )
    else:
        tilde_matrix = exact.as_matrix(tilde_target)
        d = exact.shape(tilde_matrix)[1]
        if d + e > k:
            raise ParameterError(
                "target dimension plus scan dimension must fit in the codomain"
            )
        intrinsic_strategy = exact_strategy(k, e)
        ambient_strategy = exact_strategy(n, e)
        ambient_matrix = exact.mat_mul(section.matrix, tilde_matrix)
        intrinsic_records = scan_records(
            tilde_matrix,
            EnumSpec(
                n=k, e=e, height_squared_max=height_squared_max,
                strategy=intrinsic_strategy,
            ),
            j_index=j_index,
            ctx=ctx,
        )
        ambient_records = scan_records(
            ambient_matrix,
            EnumSpec(
                n=n, e=e, height_squared_max=height_squared_max,
                strategy=ambient_strategy,
            ),
            j_index=j_index,
            ctx=ctx,
        )

    intrinsic_estimate = estimate_exponent(intrinsic_records)
    ambient_estimate = estimate_exponent(ambient_records)
    pairs = _pair_records(section, intrinsic_records, ambient_records)
    return HarnessReport(
        embedding=section,
        intrinsic=intrinsic_estimate,
        ambient=ambient_estimate,
        intrinsic_records=tuple(intrinsic_records),
        ambient_records=tuple(ambient_records),
        mu_intrinsic=intrinsic_estimate.mu_hat,
        mu_ambient=ambient_estimate.mu_hat,
        delta=abs(intrinsic_estimate.mu_hat - ambient_estimate.mu_hat),
        record_pairs=pairs,
    )
