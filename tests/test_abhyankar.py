import random

import pytest

from ultrametrica.abhyankar import (
    FieldDescriptor,
    GaussCoordinate,
    TowerPoint,
    TypeIVCoordinate,
    check_main_theorem_bound,
    d_K,
    factor_temkin,
    is_abhyankar,
    is_semi_immediate,
)
from ultrametrica.berkovich import DiskPoint, NestedPrefix
from ultrametrica.errors import InputValidationError
from ultrametrica.series import series_zero
from ultrametrica.valuegroup import t_power, value


@pytest.fixture
def base(prof1):
    return prof1.base()


@pytest.fixture
def gauss1(base):
    return GaussCoordinate(t_power(base, 1))


@pytest.fixture
def gauss_irr(prof1):
    return GaussCoordinate(value(prof1, 0, (1,)))


@pytest.fixture
def type_iv(base):
    disks = tuple(
        DiskPoint(series_zero(base), t_power(base, k)) for k in (1, 2, 3)
    )
    return TypeIVCoordinate(NestedPrefix(disks))


class TestDK:
    def test_two_gauss(self, gauss1, gauss_irr):
        pt = TowerPoint((gauss1, gauss_irr))
        assert d_K(pt) == 2
        assert is_abhyankar(pt)

    def test_single_type_iv(self, type_iv):
        pt = TowerPoint((type_iv,))
        assert d_K(pt) == 0
        assert not is_abhyankar(pt)

    def test_type_iv_needs_a_prefix(self, base):
        # a disk is a point of type I-III, so it pins no type-IV coordinate
        disk = DiskPoint(series_zero(base), t_power(base, 1))
        with pytest.raises(InputValidationError, match="nested prefix"):
            TypeIVCoordinate(disk)

    def test_empty_tower(self):
        pt = TowerPoint(())
        assert d_K(pt) == 0
        assert is_abhyankar(pt)

    def test_additive_over_concatenation(self, gauss1, gauss_irr, type_iv):
        rng = random.Random(2)
        pool = [gauss1, gauss_irr, type_iv]
        for _ in range(50):
            c1 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            c2 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            assert d_K(TowerPoint(c1 + c2)) == \
                d_K(TowerPoint(c1)) + d_K(TowerPoint(c2))


class TestFactorTemkin:
    def test_mixed_tower(self, gauss1, gauss_irr, type_iv):
        pt = TowerPoint((gauss1, type_iv, gauss_irr))
        fac = factor_temkin(pt)
        assert fac.B == (1, 3)
        assert fac.polyradius == (gauss1.radius, gauss_irr.radius)
        assert fac.l == d_K(pt) == 2
        assert not is_abhyankar(pt)

    def test_all_type_iv(self, type_iv):
        fac = factor_temkin(TowerPoint((type_iv, type_iv)))
        assert fac.B == ()
        assert fac.l == 0

    def test_all_gauss_saturates(self, gauss1, gauss_irr):
        pt = TowerPoint((gauss1, gauss_irr, gauss1))
        fac = factor_temkin(pt)
        assert fac.l == pt.m
        assert is_abhyankar(pt)

    def test_B_always_equals_dK(self, gauss1, gauss_irr, type_iv):
        rng = random.Random(4)
        pool = [gauss1, gauss_irr, type_iv]
        for _ in range(100):
            pt = TowerPoint(tuple(rng.choice(pool) for _ in range(rng.randint(0, 5))))
            fac = factor_temkin(pt)
            assert fac.l == d_K(pt)
            assert (fac.l == pt.m) == is_abhyankar(pt)


class TestSemiImmediate:
    def test_K_r_over_K_jumps(self, prof1):
        r = value(prof1, 0, (1,))
        K = FieldDescriptor(prof1, (), 0)
        K_r = FieldDescriptor(prof1, (r,), 0)
        assert is_semi_immediate(K_r, K) is False

    def test_K_over_K(self, prof1):
        K = FieldDescriptor(prof1, (), 0)
        assert is_semi_immediate(K, K) is True

    def test_completed_perfection(self, prof1):
        r = value(prof1, 0, (1,))
        K_r = FieldDescriptor(prof1, (r,), 0)
        K_r_perfd = FieldDescriptor(prof1, (r,), 0)
        assert is_semi_immediate(K_r_perfd, K_r) is True

    def test_residue_jump_detected(self, prof1):
        K = FieldDescriptor(prof1, (), 0)
        L = FieldDescriptor(prof1, (), 1)
        assert is_semi_immediate(L, K) is False

    def test_non_nested_raises(self, prof1):
        r = value(prof1, 0, (1,))
        K_r = FieldDescriptor(prof1, (r,), 0)
        K = FieldDescriptor(prof1, (), 0)
        with pytest.raises(InputValidationError):
            is_semi_immediate(K, K_r)

    def test_generator_in_sqrt_rejected(self, prof1):
        with pytest.raises(InputValidationError):
            FieldDescriptor(prof1, (t_power(prof1, 1),), 0)

    def test_dependent_generators_rejected(self, prof2):
        r1 = value(prof2, 0, (1, 0))
        r1_sq = value(prof2, 0, (2, 0))
        with pytest.raises(InputValidationError):
            FieldDescriptor(prof2, (r1, r1_sq), 0)

    def test_two_radii_nested(self, prof2):
        r1 = value(prof2, 0, (1, 0))
        r2 = value(prof2, 0, (0, 1))
        L0 = FieldDescriptor(prof2, (r1,), 0)
        L = FieldDescriptor(prof2, (r1, r2), 0)
        assert is_semi_immediate(L, L0) is False
        assert is_semi_immediate(L, L) is True


class TestBound:
    def test_gleason_three_variable_case(self):
        assert check_main_theorem_bound(3, 1) is True

    def test_n_plus_two(self):
        for l in (1, 2, 3):
            assert check_main_theorem_bound(l + 2, l) is True

    def test_violation(self):
        assert check_main_theorem_bound(1, 1) is False

    def test_bad_input(self):
        with pytest.raises(InputValidationError):
            check_main_theorem_bound(0, 0)
