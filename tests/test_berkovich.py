from fractions import Fraction

import pytest

from ultrametrica.berkovich import (
    DiskPoint,
    NestedPrefix,
    PointType,
    classify,
    point_invariants,
)
from ultrametrica.errors import InputValidationError
from ultrametrica.series import add, monomial, series_zero
from ultrametrica.valuegroup import t_power, value, zero_value


def base_mono(prof, c, t):
    return monomial(prof.base(), c, t)


@pytest.fixture
def base(prof1):
    return prof1.base()


@pytest.fixture
def shrinking_prefix(base):
    d1 = DiskPoint(series_zero(base), t_power(base, 1))
    d2 = DiskPoint(base_mono_profile(base, 1), t_power(base, 2))
    d3 = DiskPoint(
        add(base_mono_profile(base, 1), base_mono_profile(base, 2)),
        t_power(base, 3),
    )
    return NestedPrefix((d1, d2, d3))


def base_mono_profile(base, t):
    return monomial(base, 1, t)


class TestClassification:
    def test_rational_radius_type_ii(self, base):
        pt = DiskPoint(series_zero(base), t_power(base, Fraction(3, 2)))
        assert classify(pt) is PointType.II

    def test_irrational_radius_type_iii(self, prof1, base):
        pt = DiskPoint(series_zero(base), value(prof1, 0, (1,)))
        assert classify(pt) is PointType.III

    def test_zero_radius_type_i(self, base):
        pt = DiskPoint(series_zero(base), zero_value(base))
        assert classify(pt) is PointType.I

    def test_prefix_is_iv_candidate(self, shrinking_prefix):
        assert classify(shrinking_prefix) is PointType.IV_CANDIDATE

    def test_roundtrip_with_in_sqrt(self, base):
        # every rational t-power radius classifies II
        for a in (1, Fraction(1, 2), Fraction(7, 3)):
            pt = DiskPoint(series_zero(base), t_power(base, a))
            assert classify(pt) is PointType.II


class TestInvariants:
    def test_tables(self, prof1, base, shrinking_prefix):
        i = point_invariants(DiskPoint(series_zero(base), zero_value(base)))
        assert tuple(i) == (0, 0, True)
        ii = point_invariants(DiskPoint(series_zero(base), t_power(base, 2)))
        assert tuple(ii) == (0, 1, False)
        iii = point_invariants(DiskPoint(series_zero(base), value(prof1, 0, (1,))))
        assert tuple(iii) == (1, 0, False)
        iv = point_invariants(shrinking_prefix)
        assert tuple(iv) == (0, 0, True)


class TestPrefix:
    def test_radii_must_strictly_decrease(self, base):
        d1 = DiskPoint(series_zero(base), t_power(base, 1))
        with pytest.raises(InputValidationError):
            NestedPrefix((d1, d1))

    def test_nesting_of_centers(self, base):
        d1 = DiskPoint(series_zero(base), t_power(base, 2))
        # |t| > r_1 = |t|^2 violates |a_2 - a_1| <= r_1
        d2 = DiskPoint(base_mono_profile(base, 1), t_power(base, 3))
        with pytest.raises(InputValidationError):
            NestedPrefix((d1, d2))

    def test_entries_must_be_disks(self, shrinking_prefix):
        # a prefix of prefixes is no type-IV candidate: its entries are no disks
        with pytest.raises(InputValidationError, match="disks only"):
            NestedPrefix((shrinking_prefix,))

    def test_center_floor_must_beat_radius(self, base):
        from ultrametrica.series import with_floor

        coarse = with_floor(series_zero(base), t_power(base, 1))
        with pytest.raises(InputValidationError):
            DiskPoint(coarse, t_power(base, 2))

