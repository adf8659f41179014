"""Integer family generators and exact identity verification."""

import pytest

from apollonius.diophantine import (
    FamilyKind,
    IntTriple,
    geometric_family,
    normalize_triple,
    pythagorean_family,
    quadratic_form_family,
    verify_identity,
)
from apollonius.halfplane import GeometryError
from apollonius.locus import LocusClass, TripleConfig, classify


class TestPythagoreanFamily:
    def test_2_1(self):
        t = pythagorean_family(2, 1)
        assert t == IntTriple(7, 5, 1)
        assert 2 * 25 == 49 + 1

    def test_degenerate_1_0(self):
        assert pythagorean_family(1, 0) == IntTriple(1, 1, 1)

    def test_3_2(self):
        t = pythagorean_family(3, 2)
        assert t == IntTriple(17, 13, 7)
        assert 2 * 169 == 289 + 49

    def test_zero_pair_rejected(self):
        with pytest.raises(GeometryError):
            pythagorean_family(0, 0)


class TestGeometricFamily:
    def test_canonical_instance(self):
        assert geometric_family(2, 1, 1) == IntTriple(4, 2, 1)

    def test_scaled(self):
        t = geometric_family(3, 1, 5)
        assert t == IntTriple(45, 15, 5)
        assert 15 * 15 == 45 * 5

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(GeometryError, match="need positive parameters"):
            geometric_family(0, 1)

    def test_equal_parameters_rejected(self):
        with pytest.raises(GeometryError):
            geometric_family(1, 1, 3)


class TestQuadraticFormFamily:
    def test_0_1(self):
        t = quadratic_form_family(0, 1)
        assert t == IntTriple(1, -1, -1)
        assert verify_identity(t, FamilyKind.HARMONIC_QUADRATIC)

    def test_1_1(self):
        t = quadratic_form_family(1, 1)
        assert t == IntTriple(6035, 6887, 8245)
        assert verify_identity(t, FamilyKind.HARMONIC_QUADRATIC)

    def test_1_0(self):
        t = quadratic_form_family(1, 0)
        assert t == IntTriple(46 * 74, 46 * 94, 94 * 74)
        assert verify_identity(t, FamilyKind.HARMONIC_QUADRATIC)

    def test_values_overflow_machine_words(self):
        t = quadratic_form_family(10**6, 10**6 + 1)
        assert verify_identity(t, FamilyKind.HARMONIC_QUADRATIC)
        assert max(abs(t.a), abs(t.b), abs(t.c)) > 2**64


class TestVerifyIdentity:
    def test_quadratic_true(self):
        assert verify_identity(IntTriple(7, 5, 1), FamilyKind.QUADRATIC_MEAN)

    def test_geometric_true(self):
        assert verify_identity(IntTriple(4, 2, 1), FamilyKind.GEOMETRIC_MEAN)

    def test_geometric_false(self):
        assert not verify_identity(IntTriple(4, 3, 1), FamilyKind.GEOMETRIC_MEAN)

    def test_signs_ignored(self):
        assert verify_identity(IntTriple(-7, 5, -1), FamilyKind.QUADRATIC_MEAN)


class TestNormalize:
    def test_sorts_descending_and_strips_signs(self):
        assert normalize_triple(IntTriple(1, -5, 7)) == IntTriple(7, 5, 1)

    def test_rejects_repeats(self):
        with pytest.raises(GeometryError):
            normalize_triple(IntTriple(1, 1, 1))
        with pytest.raises(GeometryError):
            normalize_triple(IntTriple(5, -5, 2))

    def test_rejects_zero(self):
        with pytest.raises(GeometryError):
            normalize_triple(IntTriple(3, 2, 0))


class TestFamilyGrid:
    def test_identities_on_small_grid(self):
        for m in range(-10, 11):
            for n in range(-10, 11):
                if (m, n) == (0, 0):
                    continue
                assert verify_identity(pythagorean_family(m, n), FamilyKind.QUADRATIC_MEAN)
                assert verify_identity(quadratic_form_family(m, n), FamilyKind.HARMONIC_QUADRATIC)

    def test_geometric_always_verifies(self):
        for p in range(1, 12):
            for q in range(1, 12):
                if p == q:
                    continue
                for k in (1, 3):
                    assert verify_identity(geometric_family(p, q, k), FamilyKind.GEOMETRIC_MEAN)

    @pytest.mark.parametrize(
        "family,kind,expected_class",
        [
            (pythagorean_family, FamilyKind.QUADRATIC_MEAN, LocusClass.QUADRATIC_HYPERBOLA),
            (quadratic_form_family, FamilyKind.HARMONIC_QUADRATIC, LocusClass.HARMONIC_LEMNISCATE),
        ],
    )
    def test_normalized_triples_classify_to_boundary(self, family, kind, expected_class):
        checked = 0
        for m in range(-6, 7):
            for n in range(-6, 7):
                if (m, n) == (0, 0):
                    continue
                try:
                    t = normalize_triple(family(m, n))
                except GeometryError:
                    continue  # degenerate: repeated heights
                cfg = TripleConfig(t.a, t.b, t.c)
                assert classify(cfg) == expected_class
                checked += 1
        assert checked > 50

    def test_geometric_triples_classify_to_circle(self):
        for p, q, k in ((2, 1, 1), (3, 1, 5), (7, 4, 2), (9, 2, 1)):
            t = normalize_triple(geometric_family(p, q, k))
            assert classify(TripleConfig(t.a, t.b, t.c)) == LocusClass.GEOMETRIC_CIRCLE
