"""Tests for rational maps, height distortion bounds, and the embedding harness."""

import logging
import math
import random
from fractions import Fraction

import pytest

from subdioph import construction as con
from subdioph import estimation as est
from subdioph import exact
from subdioph import morphisms as mor
from subdioph.angles import RealBasis, principal_angles
from subdioph.enumeration import EnumSpec
from subdioph.errors import (
    DimensionCollapseError,
    ParameterError,
    ShapeError,
)
from embedded_lines import embedded_line_records


def random_integer_map(rng, rows, cols, bound=9):
    return mor.RationalMap.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_line(rng, n, bound=30):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v):
            return exact.RationalSubspace.from_basis([[x] for x in v])


def random_plane(rng, n, bound=9):
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(2)] for _ in range(n)]
        if exact.rank(rows) == 2:
            return exact.RationalSubspace.from_basis(rows)


def normalized_label(vec):
    """Scale an integer vector by gcd and sign, first nonzero positive."""
    g = math.gcd(*(abs(int(x)) for x in vec))
    scaled = [int(x) // g for x in vec]
    lead = next(x for x in scaled if x != 0)
    if lead < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)


class TestRationalMap:
    def test_denominator_clearing(self):
        assert random_integer_map(random.Random(0), 3, 3).denominator_clearing == 1
        halver = mor.RationalMap.from_rows([[1, 0], [0, Fraction(1, 2)]])
        assert halver.denominator_clearing == 2
        mixed = mor.RationalMap.from_rows([[Fraction(1, 6), Fraction(1, 4)]])
        assert mixed.denominator_clearing == 12

    def test_dimensions(self):
        phi = mor.RationalMap.from_rows([[1, 0], [0, 1], [1, 1]])
        assert phi.codomain_dim == 3
        assert phi.domain_dim == 2

    def test_compound_of_identity(self):
        comp = mor.RationalMap.from_rows(exact.identity(4)).compound(2)
        expected = tuple(
            tuple(1 if i == j else 0 for j in range(6)) for i in range(6)
        )
        assert comp == expected

    def test_coordinate_embedding_validation(self):
        emb = mor.coordinate_embedding(2, 4, axes=(1, 3))
        assert emb.matrix == ((0, 0), (1, 0), (0, 0), (0, 1))
        with pytest.raises(ParameterError):
            mor.coordinate_embedding(2, 4, axes=(1, 1))
        with pytest.raises(ParameterError):
            mor.coordinate_embedding(2, 3, axes=(0, 3))


class TestApplyToSubspace:
    def test_identity_fixes_subspaces(self):
        line = exact.RationalSubspace.from_basis([[3], [4]])
        assert mor.apply_to_subspace(mor.RationalMap.from_rows(exact.identity(2)), line) == line
        plane = exact.RationalSubspace.from_basis([[1, 0], [2, 1], [0, 3]])
        assert mor.apply_to_subspace(mor.RationalMap.from_rows(exact.identity(3)), plane) == plane

    def test_coordinate_embedding_pads_with_zero(self):
        line = exact.RationalSubspace.from_basis([[3], [4]])
        image = mor.apply_to_subspace(mor.coordinate_embedding(2, 3), line)
        assert image.pluecker.coords == (3, 4, 0)
        assert image.height_squared == 25

    def test_rational_entries_rescale_the_image(self):
        halver = mor.RationalMap.from_rows([[1, 0], [0, Fraction(1, 2)]])
        diagonal = exact.RationalSubspace.from_basis([[1], [1]])
        image = mor.apply_to_subspace(halver, diagonal)
        assert image.pluecker.coords == (2, 1)
        assert image.height_squared == 5

    def test_shape_mismatch(self):
        line3 = exact.RationalSubspace.from_basis([[1], [1], [1]])
        with pytest.raises(ShapeError):
            mor.apply_to_subspace(mor.RationalMap.from_rows(exact.identity(2)), line3)

    def test_rank_collapse(self):
        crush = mor.RationalMap.from_rows([[1, 0], [0, 0]])
        vertical = exact.RationalSubspace.from_basis([[0], [1]])
        with pytest.raises(DimensionCollapseError):
            mor.apply_to_subspace(crush, vertical)


class TestCeilSqrt:
    def test_pinned_values(self):
        assert mor.ceil_sqrt(0) == 0
        assert mor.ceil_sqrt(4) == 2
        assert mor.ceil_sqrt(2) == 2
        assert mor.ceil_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert mor.ceil_sqrt(Fraction(1, 3)) == Fraction(2, 3)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            mor.ceil_sqrt(Fraction(-1, 4))

    def test_tight_upper_bound(self):
        rng = random.Random(5)
        for _ in range(300):
            x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**3))
            c = mor.ceil_sqrt(x)
            assert c * c >= x
            if c > 0:
                step = Fraction(1, x.denominator)
                assert (c - step) * (c - step) < x


class TestDistortionConstant:
    def test_identity_at_least_one(self):
        for n in (2, 3, 4):
            for e in range(1, n + 1):
                assert mor.height_distortion_constant(mor.RationalMap.from_rows(exact.identity(n)), e) >= 1

    def test_coordinate_embedding_preserves_height(self):
        rng = random.Random(7)
        emb = mor.coordinate_embedding(2, 4, axes=(0, 2))
        for _ in range(50):
            line = random_line(rng, 2)
            image = mor.apply_to_subspace(emb, line)
            assert image.height_squared == line.height_squared

    def test_line_bound_over_random_maps(self):
        rng = random.Random(11)
        for _ in range(200):
            phi = random_integer_map(rng, 3, 3)
            c = mor.height_distortion_constant(phi, 1)
            line = random_line(rng, 3)
            try:
                image = mor.apply_to_subspace(phi, line)
            except DimensionCollapseError:
                continue
            assert image.height_squared <= c * c * line.height_squared

    def test_plane_bound_random_4x4(self):
        rng = random.Random(13)
        phi = random_integer_map(rng, 4, 4, bound=5)
        c2 = mor.height_distortion_constant(phi, 2) ** 2
        worst = Fraction(0)
        for _ in range(1000):
            plane = random_plane(rng, 4)
            try:
                image = mor.apply_to_subspace(phi, plane)
            except DimensionCollapseError:
                continue
            ratio = Fraction(image.height_squared, plane.height_squared)
            worst = max(worst, ratio)
            assert ratio <= c2
        assert worst > 0

    def test_rational_map_bound(self):
        rng = random.Random(17)
        phi = mor.RationalMap.from_rows(
            [[Fraction(1, 2), 1, 0], [0, Fraction(2, 3), 1], [1, 0, Fraction(1, 5)]]
        )
        c = mor.height_distortion_constant(phi, 1)
        for _ in range(100):
            line = random_line(rng, 3)
            image = mor.apply_to_subspace(phi, line)
            assert image.height_squared <= c * c * line.height_squared

    def test_order_validation(self):
        phi = mor.RationalMap.from_rows(exact.identity(3))
        with pytest.raises(ParameterError):
            mor.height_distortion_constant(phi, 0)
        with pytest.raises(ParameterError):
            mor.height_distortion_constant(phi, 4)

    def test_collapsing_order_gives_zero(self):
        wide = mor.RationalMap.from_rows([[1, 2]])
        assert mor.height_distortion_constant(wide, 2) == 0


class TestSection:
    def test_coordinate_projection(self):
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 1, 0]])
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1], [0, 0]])
        section = mor.section_of(proj, f)
        assert section.matrix == ((1, 0), (0, 1), (0, 0))

    def test_general_section_is_right_inverse(self):
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 1, 0]])
        f = exact.RationalSubspace.from_basis([[1, 0], [1, 1], [0, 1]])
        section = mor.section_of(proj, f)
        composed = exact.mat_mul(proj.matrix, section.matrix)
        assert composed == ((1, 0), (0, 1))
        for col in exact.transpose(section.matrix):
            augmented = [row + (col[i],) for i, row in enumerate(f.basis)]
            assert exact.rank(augmented) == 2

    def test_requires_matching_dimensions(self):
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 1, 0]])
        line = exact.RationalSubspace.from_basis([[1], [0], [0]])
        with pytest.raises(ParameterError):
            mor.section_of(proj, line)

    def test_requires_invertible_restriction(self):
        first = mor.RationalMap.from_rows([[1, 0, 0]])
        vertical = exact.RationalSubspace.from_basis([[0], [1], [0]])
        with pytest.raises(DimensionCollapseError):
            mor.section_of(first, vertical)


class TestCompoundTransport:
    def test_plane_labels_transport_through_compounds(self):
        rng = random.Random(19)
        checked = 0
        while checked < 100:
            phi = random_integer_map(rng, 4, 4, bound=6)
            plane = random_plane(rng, 4)
            try:
                image = mor.apply_to_subspace(phi, plane)
            except DimensionCollapseError:
                continue
            transported = [
                sum(row[i] * plane.pluecker.coords[i] for i in range(6))
                for row in phi.compound(2)
            ]
            assert normalized_label(transported) == image.pluecker.coords
            checked += 1

    def test_line_labels_transport_directly(self):
        rng = random.Random(23)
        for _ in range(100):
            phi = random_integer_map(rng, 3, 3)
            line = random_line(rng, 3)
            try:
                image = mor.apply_to_subspace(phi, line)
            except DimensionCollapseError:
                continue
            transported = [
                sum(row[i] * line.pluecker.coords[i] for i in range(3))
                for row in phi.matrix
            ]
            assert normalized_label(transported) == image.pluecker.coords


class TestHarness:
    def test_identity_plane_is_degenerate_pairing(self):
        phi = mor.RationalMap.from_rows(exact.identity(2))
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1]])
        report = mor.embedding_harness(est.golden_line_target(), f, phi, 10**4)
        assert report.delta == 0.0
        assert report.mu_intrinsic == report.mu_ambient
        count = len(report.record_pairs)
        assert report.record_pairs == tuple((i, i) for i in range(count))

    def test_golden_line_into_three_dimensions(self):
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 1, 0]])
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1], [0, 0]])
        report = mor.embedding_harness(est.golden_line_target(), f, proj, 10**5)
        assert report.delta == 0.0
        assert len(report.record_pairs) == len(report.intrinsic_records)
        for left, right in report.record_pairs:
            intrinsic_rec = report.intrinsic_records[left]
            ambient_rec = report.ambient_records[right]
            assert ambient_rec.height_squared == intrinsic_rec.height_squared
        payload = report.as_dict()
        assert set(payload) == {"muIntrinsic", "muAmbient", "delta", "recordPairs"}
        assert payload["recordPairs"] == [list(p) for p in report.record_pairs]

    def test_placed_records_keep_their_dyadic_brackets(self):
        """Above H^2 ~ 10^307 the golden line's records keep dyadic sine
        brackets; the ambient records, the same records placed on the
        section's axes, keep them too, so both exponents read them."""
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 1, 0]])
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1], [0, 0]])
        report = mor.embedding_harness(est.golden_line_target(), f, proj, 10**400)
        kept = [rec.psi_bracket for rec in report.intrinsic_records]
        assert sum(bracket is not None for bracket in kept) > 100
        assert [rec.psi_bracket for rec in report.ambient_records] == kept
        assert report.delta == 0.0 and abs(report.mu_ambient - 2) < 0.01

    def test_construction_line_into_four_dimensions(self):
        params = con.ConstructionParams.create(ell=1, beta=Fraction(3), seed=0)
        target = est.line_target_for_instance(params, height_squared_max=10**5)
        proj = mor.RationalMap.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1], [0, 0], [0, 0]])
        report = mor.embedding_harness(
            target, f, proj, 10**5, ambient_zone=50
        )
        c2 = mor.height_distortion_constant(report.embedding, 1) ** 2
        assert len(report.record_pairs) == len(report.intrinsic_records)
        for left, right in report.record_pairs:
            intrinsic_rec = report.intrinsic_records[left]
            ambient_rec = report.ambient_records[right]
            assert ambient_rec.height_squared == intrinsic_rec.height_squared
            assert ambient_rec.height_squared <= c2 * intrinsic_rec.height_squared
        convergent_heights = {
            rec.height_squared for rec in report.intrinsic_records
        }
        assert 18434 in convergent_heights
        assert report.delta == 0.0

    def test_a_line_target_walks_its_plane_once(self, caplog):
        """The ambient records are the intrinsic ones carried through the
        section: one scan_lines walk, and the records of a scan in R^3."""
        caplog.set_level(logging.DEBUG, logger="subdioph")
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 0, 1]])
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 0], [0, 1]])
        target = est.golden_line_target()
        report = mor.embedding_harness(target, f, proj, 10**5)
        walks = [r for r in caplog.records
                 if r.name == "subdioph" and r.getMessage().startswith("scan_lines:")]
        assert len(walks) == 1
        expected = embedded_line_records(target, 3, 10**5, axes=(0, 2))
        assert [
            (r.subspace, r.height_squared, r.psi_lo.hex(), r.psi_hi.hex())
            for r in report.ambient_records
        ] == [(r.subspace, r.height_squared, r.psi_lo.hex(), r.psi_hi.hex()) for r in expected]
        assert report.record_pairs == tuple((i, i) for i in range(len(expected)))

    def test_embedding_preserves_record_heights(self):
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 1, 0]])
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1], [0, 0]])
        target = est.golden_line_target()
        plane_records = est.scan_line_records(target, 10**4)
        space_records = est.scan_records(target, EnumSpec(3, 1, 10**4))
        section = mor.section_of(proj, f)
        c2 = mor.height_distortion_constant(section, 1) ** 2
        by_label = {
            rec.subspace.pluecker.coords: rec.height_squared
            for rec in space_records
        }
        for rec in plane_records:
            image = mor.apply_to_subspace(section, rec.subspace)
            assert image.height_squared == rec.height_squared
            assert image.height_squared <= c2 * rec.height_squared
            assert by_label[image.pluecker.coords] == rec.height_squared

    def test_refuses_crooked_plane_for_line_targets(self):
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 1, 0]])
        crooked = exact.RationalSubspace.from_basis([[1, 0], [1, 1], [0, 1]])
        with pytest.raises(ParameterError):
            mor.embedding_harness(est.golden_line_target(), crooked, proj, 100)

    @pytest.mark.parametrize(
        "rows",
        [[[0, 1, 0], [1, 0, 0]], [[2, 0, 0], [0, 1, 0]]],
        ids=["swapped-axes", "scaled-axis"],
    )
    def test_refuses_a_section_that_is_no_increasing_pair_of_axes(self, rows):
        """The section of a swap puts the plane's axes in the order (1, 0),
        and that of a scaling puts 1/2 on an axis: neither places coordinates."""
        proj = mor.RationalMap.from_rows(rows)
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1], [0, 0]])
        with pytest.raises(ParameterError):
            mor.embedding_harness(est.golden_line_target(), f, proj, 100)

    @pytest.mark.parametrize("n, axes", [(3, (0, 2)), (4, (1, 3)), (5, (2, 3))])
    def test_a_line_target_places_its_records_without_mapping_them(
        self, monkeypatch, n, axes
    ):
        """The ambient lines are built from their placed vectors: no record
        goes through apply_to_subspace, and the pairs are (i, i)."""
        calls = []
        mapped = mor.apply_to_subspace

        def counted(phi, sub):
            calls.append(sub)
            return mapped(phi, sub)

        monkeypatch.setattr(mor, "apply_to_subspace", counted)
        proj = mor.RationalMap.from_rows(
            [[1 if j == a else 0 for j in range(n)] for a in axes]
        )
        rows = [[0, 0] for _ in range(n)]
        rows[axes[0]][0] = rows[axes[1]][1] = 1
        f = exact.RationalSubspace.from_basis(rows)
        report = mor.embedding_harness(est.golden_line_target(), f, proj, 10**6)
        assert calls == []
        count = len(report.intrinsic_records)
        assert count > 3
        assert report.record_pairs == tuple((i, i) for i in range(count))
        section = mor.section_of(proj, f)
        for plane, space in zip(report.intrinsic_records, report.ambient_records):
            image = mapped(section, plane.subspace)
            assert space.subspace == image
            assert space.subspace.basis == image.basis
            assert (space.height_squared, space.psi_lo, space.psi_hi) == (
                plane.height_squared, plane.psi_lo, plane.psi_hi)

    def test_line_target_option_validation(self):
        proj = mor.RationalMap.from_rows([[1, 0, 0], [0, 1, 0]])
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1], [0, 0]])
        with pytest.raises(ParameterError):
            mor.embedding_harness(est.golden_line_target(), f, proj, 100, j_index=2)
        with pytest.raises(ParameterError):
            mor.embedding_harness(est.golden_line_target(), f, proj, 100, e=2)

    def test_matrix_target_identity_ambient(self):
        phi = mor.RationalMap.from_rows(exact.identity(3))
        f = exact.RationalSubspace.from_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        report = mor.embedding_harness([[29], [37], [41]], f, phi, 50)
        assert report.delta == 0.0
        count = len(report.record_pairs)
        assert report.record_pairs == tuple((i, i) for i in range(count))
        assert count > 0

    def test_matrix_target_into_four_dimensions(self):
        proj = mor.RationalMap.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        )
        f = exact.RationalSubspace.from_basis(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]
        )
        report = mor.embedding_harness([[29], [37], [41]], f, proj, 50)
        assert report.record_pairs
        intrinsic_all = {i for i, _ in report.record_pairs}
        assert intrinsic_all
        assert report.delta == abs(report.mu_intrinsic - report.mu_ambient)
        payload = report.as_dict()
        assert set(payload) == {"muIntrinsic", "muAmbient", "delta", "recordPairs"}

    def test_matrix_target_dimension_budget(self):
        phi = mor.RationalMap.from_rows(exact.identity(2))
        f = exact.RationalSubspace.from_basis([[1, 0], [0, 1]])
        with pytest.raises(ParameterError):
            mor.embedding_harness([[1, 0], [0, 1]], f, phi, 50)

    def test_plane_target_transfers_to_five_space(self):
        """Planes against a plane in R^4 and in R^5 (the echelon census):
        the transfer theorem pairs every record with its image."""
        proj = mor.RationalMap.from_rows(
            [
                [1, 0, 0, 0, 0],
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
            ]
        )
        f = exact.RationalSubspace.from_basis(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [0, 0, 0, 0],
            ]
        )
        tilde = [
            [1, 0],
            [0, 1],
            [Fraction(-47, 53), Fraction(29, 71)],
            [Fraction(13, 31), Fraction(-7, 19)],
        ]
        report = mor.embedding_harness(tilde, f, proj, 10, e=2)
        assert len(report.intrinsic_records) == len(report.ambient_records) == 5
        assert report.record_pairs == tuple((i, i) for i in range(5))
        assert report.mu_intrinsic == report.mu_ambient
        assert report.mu_intrinsic == pytest.approx(5.0821, abs=1e-4)
        assert report.delta == 0.0


class TestProjectionAngleFloor:
    """Sampled comparison of angles before and after projecting into the
    coordinate subspace containing the target.

    The frozen safety floor 0.594 is what the exponent-transfer argument
    needs; the measured ratios additionally stay at or above 1, so the
    projection never moves an approximant away from a target inside the
    subspace.
    """

    FLOOR = 0.594

    @staticmethod
    def _ratios(a_rows, d_rows, j_count, bits=96):
        a_basis = RealBasis.from_exact(a_rows)
        d_basis = RealBasis.from_float(d_rows)
        proj_rows = [row[:] for row in d_rows]
        for i in (4, 5):
            proj_rows[i] = [0.0] * len(proj_rows[i])
        p_basis = RealBasis.from_float(proj_rows)
        full = principal_angles(a_basis, d_basis, bits=bits)
        proj = principal_angles(a_basis, p_basis, bits=bits)
        out = []
        for j in range(j_count):
            denom = float(proj.psi[j])
            if denom < 1e-10:
                continue
            out.append(float(full.psi[j]) / denom)
        return out

    def test_sampled_ratio_floor(self):
        rng = random.Random(29)
        a_rows = [[1, 0], [0, 1], [2, -1], [1, 3], [0, 0], [0, 0]]
        f_rows = [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
        f_basis = RealBasis.from_exact(f_rows)
        a_unit = [x / math.sqrt(6) for x in (1, 0, 2, 1, 0, 0)]
        limit = math.sin(math.pi / 4) + 1e-12

        ratios = []
        kept = 0
        for trial in range(240):
            if trial % 2 == 0:
                cols = [
                    [rng.gauss(0, 1) for _ in range(4)]
                    + [rng.gauss(0, 0.3) for _ in range(2)]
                    for _ in range(2)
                ]
            else:
                eps = 10 ** rng.uniform(-3, -0.5)
                s = rng.uniform(0.05, 0.5)
                w = [rng.gauss(0, 1), rng.gauss(0, 1)]
                wn = math.hypot(*w)
                if wn < 1e-9:
                    continue
                w = [x / wn for x in w]
                cols = []
                for sign in (1, -1):
                    noise = [rng.gauss(0, 1) for _ in range(4)]
                    col = [
                        a_unit[i] + eps * noise[i] for i in range(4)
                    ] + [sign * s * w[0], sign * s * w[1]]
                    cols.append(col)
            d_rows = [[cols[0][i], cols[1][i]] for i in range(6)]
            try:
                tilt = principal_angles(
                    f_basis, RealBasis.from_float(d_rows), bits=96
                )
            except Exception:
                continue
            if float(tilt.psi[-1]) > limit:
                continue
            try:
                sample = self._ratios(a_rows, d_rows, j_count=2)
            except Exception:
                continue
            kept += 1
            ratios.extend(sample)

        assert kept >= 80
        assert ratios
        assert min(ratios) > self.FLOOR
        assert min(ratios) > 1 - 1e-6
