"""Exhaustive enumeration oracle vs the recursions, on exact rationals."""

from fractions import Fraction

import numpy as np
import pytest

from josephus import dp
from josephus.deterministic import survivor_closed_form
from josephus.errors import DomainError, EnumerationCapError
from josephus.rules import RuleSpec
from josephus.simulate import oracle_distribution

TEN_GRID = [Fraction(k, 10) for k in range(11)]


def test_r1_base_case_exact_rationals():
    dist = oracle_distribution(RuleSpec.r1(Fraction(3, 10)), 3)
    assert dist.exact == (Fraction(0), Fraction(7, 10), Fraction(3, 10))


def test_r1_n4_unbiased_eight_paths():
    dist = oracle_distribution(RuleSpec.r1(Fraction(1, 2)), 4)
    assert dist.exact == (Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(1, 4))


def test_r2_base_case_exact():
    dist = oracle_distribution(RuleSpec.r2(Fraction(2, 7)), 3)
    assert dist.exact == (Fraction(0), Fraction(5, 7), Fraction(2, 7))


def test_r3_deterministic_coins_give_point_mass():
    dist = oracle_distribution(RuleSpec.r3(Fraction(1), Fraction(1)), 3)
    assert dist.exact == (Fraction(0), Fraction(0), Fraction(1))
    for n in (5, 9, 12):
        dist = oracle_distribution(RuleSpec.r3(Fraction(1), Fraction(1)), n)
        assert dist.exact[survivor_closed_form(n) - 1] == 1


def test_oracle_weights_sum_to_one_exactly():
    for rule in (RuleSpec.r1(Fraction(3, 10)), RuleSpec.r2(Fraction(1, 3)),
                 RuleSpec.r3(Fraction(2, 5), Fraction(1, 4))):
        dist = oracle_distribution(rule, 9)
        assert sum(dist.exact) == 1


@pytest.mark.parametrize("p", TEN_GRID)
def test_r1_oracle_equals_dp_to_n10(p):
    for n in range(3, 11):
        oracle = oracle_distribution(RuleSpec.r1(p), n)
        exact_dp = dp.r1_distribution(n, float(p))
        np.testing.assert_allclose(oracle.probs, exact_dp.probs, atol=1e-12)


@pytest.mark.parametrize("p", TEN_GRID)
def test_r2_oracle_equals_dp_to_n10(p):
    for n in range(3, 11):
        oracle = oracle_distribution(RuleSpec.r2(p), n)
        exact_dp = dp.r2_distribution(n, float(p))
        np.testing.assert_allclose(oracle.probs, exact_dp.probs, atol=1e-12)


@pytest.mark.parametrize("p", [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 4), Fraction(4, 5), Fraction(1)])
def test_r3_oracle_equals_dp_to_n9(p, q):
    for n in range(3, 10):
        oracle = oracle_distribution(RuleSpec.r3(p, q), n)
        exact_dp = dp.r3_distribution(n, float(p), float(q))
        np.testing.assert_allclose(oracle.probs, exact_dp.probs, atol=1e-12)


def test_r3_n10_example_point():
    oracle = oracle_distribution(RuleSpec.r3(Fraction(3, 10), Fraction(7, 10)), 10)
    exact_dp = dp.r3_distribution(10, 0.3, 0.7)
    np.testing.assert_allclose(oracle.probs, exact_dp.probs, atol=1e-12)


def test_r2_n10_example_point():
    oracle = oracle_distribution(RuleSpec.r2(Fraction(2, 5)), 10)
    exact_dp = dp.r2_distribution(10, 0.4)
    np.testing.assert_allclose(oracle.probs, exact_dp.probs, atol=1e-12)


def test_oracle_agrees_with_rational_dp_exactly():
    # both sides in exact arithmetic: equality, not closeness
    p = Fraction(3, 10)
    assert oracle_distribution(RuleSpec.r1(p), 8).exact == tuple(
        dp.r1_distribution_exact(8, p)
    )
    assert oracle_distribution(RuleSpec.r2(p), 8).exact == tuple(
        dp.r2_distribution_exact(8, p)
    )
    q = Fraction(1, 4)
    assert oracle_distribution(RuleSpec.r3(p, q), 8).exact == tuple(
        dp.r3_distribution_exact(8, p, q)
    )


def test_oracle_equals_dp_at_random_interior_points():
    # five fixed pseudo-random interior parameter points per rule
    import random

    rng = random.Random(20240811)
    points = [Fraction(rng.randint(1, 999), 1000) for _ in range(10)]
    for p in points[:5]:
        for n in (7, 11):
            np.testing.assert_allclose(
                oracle_distribution(RuleSpec.r1(p), n).probs,
                dp.r1_distribution(n, float(p)).probs, atol=1e-12)
            np.testing.assert_allclose(
                oracle_distribution(RuleSpec.r2(p), n).probs,
                dp.r2_distribution(n, float(p)).probs, atol=1e-12)
    for p, q in zip(points[:5], points[5:]):
        for n in (7, 10):
            np.testing.assert_allclose(
                oracle_distribution(RuleSpec.r3(p, q), n).probs,
                dp.r3_distribution(n, float(p), float(q)).probs, atol=1e-12)


def test_float_parameters_are_read_at_their_binary_value():
    assert oracle_distribution(RuleSpec.r1(0.3), 8).exact == tuple(
        dp.r1_distribution_exact(8, Fraction(0.3))
    )
    assert oracle_distribution(RuleSpec.r3(Fraction(1, 3), 0.7), 7).exact == tuple(
        dp.r3_distribution_exact(7, Fraction(1, 3), Fraction(0.7))
    )


@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("make", [RuleSpec.r1, RuleSpec.r2, lambda p: RuleSpec.r3(p, 1 - p)],
                         ids=["r1", "r2", "r3"])
def test_parameter_type_does_not_change_the_oracle(make, value):
    exact = {oracle_distribution(make(kind(value)), 7).exact
             for kind in (int, np.int64, float, Fraction)}
    assert len(exact) == 1


@pytest.mark.parametrize("rule, survivor", [
    (RuleSpec.deterministic(), lambda n: survivor_closed_form(n) - 1),
    (RuleSpec.r3(1, 1), lambda n: survivor_closed_form(n) - 1),  # the classical game
    (RuleSpec.r3(0, 0), lambda n: (1 - survivor_closed_form(n)) % n),  # its mirror image
    (RuleSpec.r3(0, 1), lambda n: n - 2),  # each holder stabs the one before him
    (RuleSpec.r3(1, 0), lambda n: 2),  # ... going the other way round
], ids=["deterministic", "r3_1_1", "r3_0_0", "r3_0_1", "r3_1_0"])
def test_zero_weight_branches_give_the_closed_form_point_mass(rule, survivor):
    for n in (3, 4, 7, 12):
        exact = oracle_distribution(rule, n).exact
        assert exact[survivor(n)] == Fraction(1) and sum(exact) == 1


def test_enumeration_caps():
    with pytest.raises(EnumerationCapError, match="N <= 16"):
        oracle_distribution(RuleSpec.r1(Fraction(1, 2)), 17)
    with pytest.raises(EnumerationCapError, match="N <= 12"):
        oracle_distribution(RuleSpec.r3(Fraction(1, 2), Fraction(1, 2)), 13)


def test_oracle_n2_knife_holder_survives():
    for rule in (RuleSpec.r1(Fraction(1, 2)), RuleSpec.r2(Fraction(9, 10)),
                 RuleSpec.r3(Fraction(1, 3), Fraction(2, 3))):
        dist = oracle_distribution(rule, 2)
        assert dist.exact == (Fraction(1), Fraction(0))


def test_oracle_rejects_n1():
    with pytest.raises(DomainError):
        oracle_distribution(RuleSpec.r1(Fraction(1, 2)), 1)
