"""Deterministic survivor computations and the generating-series identity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from josephus import deterministic as det
from josephus.errors import DomainError
from josephus.rules import RuleSpec
from josephus.simulate import sample_survivor


def brute_force_survivor(n: int) -> int:
    """Independent oracle: simulate the classical game on a plain list."""
    alive = list(range(n))
    knife = 0  # index into alive
    while len(alive) > 1:
        victim = (knife + 1) % len(alive)
        del alive[victim]
        knife = victim % len(alive)
    return alive[0]


@pytest.mark.parametrize(
    "n,expected_b", [(1, 1), (2, 1), (41, 19), (6, 5), (2**64, 1), (2**100 + 5, 11)]
)
def test_known_survivors(n, expected_b):
    assert det.survivor_recurrence(n) == expected_b
    assert det.survivor_closed_form(n) == expected_b
    assert det.survivor_binary_rotation(n) == expected_b


def test_survivor_matches_brute_force_simulation():
    for n in range(1, 130):
        expected = brute_force_survivor(n)
        assert det.survivor_recurrence(n) - 1 == expected


def test_binary_rotation_examples():
    assert det.survivor_binary_rotation(0b110) == 0b101
    assert det.survivor_binary_rotation(0b101001) == 0b010011
    assert det.survivor_binary_rotation(1) == 1


def test_powers_of_two_survivor_is_one():
    for m in range(0, 20):
        assert det.survivor_closed_form(2**m) == 1


@pytest.mark.parametrize("method", ["recurrence", "closed-form", "rotation"])
def test_sequence_methods_agree_to_1e5(method):
    scalar = {"recurrence": det.survivor_recurrence, "closed-form": det.survivor_closed_form,
              "rotation": det.survivor_binary_rotation}[method]
    base = det.survivor_sequence(100_000)
    assert np.array_equal(base, [scalar(n) for n in range(1, 100_001)])


def test_sequence_matches_scalar_api():
    seq = det.survivor_sequence(500)
    for n in (1, 2, 3, 17, 499, 500):
        assert seq[n - 1] == det.survivor_recurrence(n)


@given(st.integers(min_value=1, max_value=10**12))
def test_survivor_is_odd_and_in_range(n):
    b = det.survivor_closed_form(n)
    assert b % 2 == 1
    assert 1 <= b <= n
    assert det.survivor_recurrence(n) == b
    assert det.survivor_binary_rotation(n) == b


def test_normalized_position_has_two_accumulation_points():
    # a_N/N = 0 along powers of two, but >= 1/2 along N = 3 * 2^(m-1)
    for m in range(2, 22):
        assert det.survivor_closed_form(2**m) - 1 == 0
        n = 3 * 2 ** (m - 1)
        a = det.survivor_closed_form(n) - 1
        assert a / n >= 0.5


def test_series_coefficients_match_survivors():
    coeffs = det.generating_series_coefficients(1024)
    seq = det.survivor_sequence(1024)
    assert coeffs[0] == 0
    assert coeffs[1] == 1
    assert coeffs[41] == 19
    assert all(coeffs[n] == seq[n - 1] for n in range(1, 1025))


def test_classical_game_is_r1_at_p_one():
    assert RuleSpec.deterministic() == RuleSpec.r1(1)


def test_deterministic_simulation_agrees_with_closed_form():
    for n in (5, 41, 100, 257):
        sample = sample_survivor(RuleSpec.deterministic(), n, seed=123)
        assert sample == det.survivor_closed_form(n) - 1


@pytest.mark.parametrize("fn", [det.survivor_recurrence, det.survivor_closed_form,
                                det.survivor_binary_rotation])
def test_scalar_survivor_is_an_int(fn):
    for n in (1, 41, 2**70 + 3):
        assert type(fn(n)) is int


@pytest.mark.parametrize("fn", [det.survivor_recurrence, det.survivor_closed_form,
                                det.survivor_binary_rotation])
def test_zero_participants_is_domain_error(fn):
    with pytest.raises(DomainError):
        fn(0)


def test_series_degree_zero_is_domain_error():
    with pytest.raises(DomainError):
        det.generating_series_coefficients(0)
