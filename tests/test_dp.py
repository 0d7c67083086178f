"""Recursion-based exact distributions: base cases, identities, cross-checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from josephus import dp
from josephus.deterministic import survivor_closed_form
from josephus.errors import DomainError

PS = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]


@pytest.mark.parametrize("p", PS)
def test_r1_base_case(p):
    np.testing.assert_array_equal(dp.r1_distribution(3, p).probs, [0.0, 1.0 - p, p])


@pytest.mark.parametrize("p", PS)
def test_r1_n4_closed_form(p):
    # one application of the recursion by hand, confirmed by the oracle
    expected = [p, (1.0 - p) ** 2, 0.0, p * (1.0 - p)]
    np.testing.assert_allclose(dp.r1_distribution(4, p).probs, expected, atol=1e-15)


def test_r1_n4_unbiased_vector():
    np.testing.assert_allclose(
        dp.r1_distribution(4, 0.5).probs, [0.5, 0.25, 0.0, 0.25], atol=1e-15
    )


@pytest.mark.parametrize("p", PS)
def test_r2_base_case(p):
    np.testing.assert_array_equal(dp.r2_distribution(3, p).probs, [0.0, 1.0 - p, p])


def test_unbiased_base_case():
    np.testing.assert_array_equal(dp.r1_distribution(3, 0.5).probs, [0.0, 0.5, 0.5])
    np.testing.assert_allclose(
        dp.r1_distribution(4, 0.5).probs, [0.5, 0.25, 0.0, 0.25], atol=1e-15
    )


def test_unbiased_symmetry_is_exact():
    for n, row in dp.r1_rows(600, 0.5):
        mirrored = row[(-np.arange(n)) % n]
        assert np.array_equal(row, mirrored)


@pytest.mark.parametrize("n", [3, 10, 101, 500])
def test_unbiased_edge_symmetry(n):
    probs = dp.r1_distribution(n, 0.5).probs
    assert probs[1] == probs[n - 1]


@pytest.mark.parametrize("n", [4, 17, 120, 900])
def test_r1_r2_coincide_at_half(n):
    r1 = dp.r1_distribution(n, 0.5).probs
    r2 = dp.r2_distribution(n, 0.5).probs
    np.testing.assert_allclose(r1, r2, atol=1e-12)


@pytest.mark.parametrize("n", [3, 8, 41, 200])
def test_r1_deterministic_endpoint(n):
    survivor = survivor_closed_form(n) - 1
    probs = dp.r1_distribution(n, 1.0).probs
    assert probs[survivor] == 1.0
    assert probs.sum() == 1.0


def test_r3_deterministic_endpoint():
    for n in (3, 9, 33):
        survivor = survivor_closed_form(n) - 1
        probs = dp.r3_distribution(n, 1.0, 1.0).probs
        assert probs[survivor] == 1.0


def _r3_rows_gather(n_max, p, q):
    # the r3 recursion with its (N-1)-round indices reduced by % m, as a
    # reference for the slice form of dp.r3_rows
    pq, pQ, Pq, PQ = p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)
    h = np.array([0.0, 1.0 - p, p])
    yield 3, h
    for n in range(4, n_max + 1):
        old, m = h, n - 1
        h = np.empty(n)
        h[0] = q * old[m - 1] + (1 - q) * old[1]
        h[1] = (1 - p) * (q * old[0] + (1 - q) * old[2])
        h[n - 1] = p * (q * old[m - 2] + (1 - q) * old[0])
        j = np.arange(2, n - 1)
        h[2 : n - 1] = (
            pq * old[j - 2] + pQ * old[j % m] + Pq * old[j - 1] + PQ * old[(j + 1) % m]
        )
        yield n, h


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("q", [0.0, 0.25, 0.8, 1.0])
def test_r3_slices_match_modular_gather(p, q):
    for (n, ref), (n2, row) in zip(_r3_rows_gather(500, p, q), dp.r3_rows(500, p, q)):
        assert n == n2 and np.array_equal(row, ref)


def _r2_rows_frozen(n_max, p):
    # dp.r2_rows as written before r2 became a parameterisation of the r3
    # recursion, as a reference for that fold
    q = 1 - p
    f = np.array([0 * p, q, p], dtype=object if isinstance(p, Fraction) else np.float64)
    yield 3, f
    for n in range(4, n_max + 1):
        old = f
        f = np.empty(n, dtype=old.dtype)
        f[0] = p * old[n - 2] + q * old[1]
        f[1] = q * old[2]
        f[n - 1] = p * old[n - 3]
        mid = f[2 : n - 1]
        np.multiply(p, old[0 : n - 3], out=mid)
        mid[: n - 4] += q * old[3 : n - 1]
        mid[n - 4] += q * old[0]
        yield n, f


def _assert_rows_match_frozen_r2(n_max, p):
    pairs = zip(_r2_rows_frozen(n_max, p), dp.r2_rows(n_max, p), strict=True)
    for (n, ref), (n2, row) in pairs:
        assert n == n2 and row.dtype == np.float64
        assert np.array_equal(row.view(np.uint64), ref.view(np.uint64)), (p, n)


@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 0.1, 0.3, 0.4, 0.5, 1 / 3, 0.9, 1.0])
def test_r2_rows_match_the_frozen_recursion_bit_for_bit(p):
    _assert_rows_match_frozen_r2(2000, p)


@pytest.mark.parametrize("p", [np.float32(0.3), 0, 1], ids=["float32", "int0", "int1"])
def test_r2_rows_match_the_frozen_recursion_for_non_float_p(p):
    _assert_rows_match_frozen_r2(300, p)


def test_r2_rational_rows_match_the_frozen_recursion():
    *_, (n, ref) = _r2_rows_frozen(40, Fraction(2, 5))
    exact = dp.r2_distribution_exact(40, Fraction(2, 5))
    assert n == 40 and exact == list(ref)
    assert all(type(x) is Fraction for x in exact)


def _mirrored(row):
    return row[(-np.arange(len(row))) % len(row)]


def test_r2_reflection_is_bit_exact_where_one_minus_p_is_exact():
    # f_N^(p)(n) = f_N^(1-p)(-n mod N): mirroring the circle swaps the sides
    for (n, row), (_, flipped) in zip(dp.r2_rows(2000, 0.4), dp.r2_rows(2000, 1 - 0.4)):
        assert np.array_equal(row.view(np.uint64), _mirrored(flipped).view(np.uint64)), n


@pytest.mark.parametrize("p", [0.1, 0.3])
def test_r2_reflection_holds_to_rounding(p):
    for (n, row), (_, flipped) in zip(dp.r2_rows(2000, p), dp.r2_rows(2000, 1 - p)):
        np.testing.assert_allclose(row, _mirrored(flipped), rtol=1e-12, atol=0, err_msg=str(n))


@pytest.mark.parametrize("p,q", [(0.3, 0.8), (0.1, 0.5), (0.65, 0.2)])
def test_r3_reflection_swaps_both_coins(p, q):
    # h_N^(p,q)(n) = h_N^(1-p,1-q)(-n mod N)
    for (n, row), (_, flipped) in zip(dp.r3_rows(800, p, q), dp.r3_rows(800, 1 - p, 1 - q)):
        np.testing.assert_allclose(row, _mirrored(flipped), rtol=0, atol=1e-14, err_msg=str(n))


def test_r3_fully_unbiased_mirror_symmetry():
    for n in (4, 11, 40):
        probs = dp.r3_distribution(n, 0.5, 0.5).probs
        np.testing.assert_allclose(probs, probs[(-np.arange(n)) % n], atol=1e-12)


@given(
    n=st.integers(min_value=3, max_value=60),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_r1_vectors_are_stochastic(n, p):
    probs = dp.r1_distribution(n, p).probs
    assert (probs >= 0).all()
    assert abs(probs.sum() - 1.0) < 1e-12


@given(
    n=st.integers(min_value=3, max_value=50),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    q=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_r2_r3_vectors_are_stochastic(n, p, q):
    for probs in (dp.r2_distribution(n, p).probs, dp.r3_distribution(n, p, q).probs):
        assert (probs >= 0).all()
        assert abs(probs.sum() - 1.0) < 1e-12


def test_unbiased_mean_identity():
    # 1/2 - E[X_N] equals half the knife starter's survival probability
    for n, row in dp.r1_rows(800, 0.5):
        x = np.arange(n) / n
        assert abs((0.5 - np.dot(x, row)) - row[0] / 2) < 1e-12


@pytest.mark.parametrize(
    "maker,exact_maker,params",
    [
        (dp.r1_distribution, dp.r1_distribution_exact, (Fraction(3, 10),)),
        (dp.r1_distribution, dp.r1_distribution_exact, (Fraction(1, 2),)),
        (dp.r2_distribution, dp.r2_distribution_exact, (Fraction(7, 10),)),
        (dp.r3_distribution, dp.r3_distribution_exact, (Fraction(3, 10), Fraction(4, 5))),
    ],
)
def test_rational_dp_bounds_float_error_at_n64(maker, exact_maker, params):
    exact = exact_maker(64, *params)
    floats = maker(64, *(float(x) for x in params)).probs
    assert sum(exact) == 1
    worst = max(abs(float(e) - f) for e, f in zip(exact, floats))
    assert worst < 1e-13


def test_float_p_converts_to_exact_binary_value():
    exact = dp.r1_distribution_exact(10, Fraction(0.3))
    floats = dp.r1_distribution(10, 0.3).probs
    assert max(abs(float(e) - f) for e, f in zip(exact, floats)) < 1e-15


@pytest.mark.parametrize(
    "int_call, float_call",
    [
        (lambda: dp.r1_distribution(9, 0), lambda: dp.r1_distribution(9, 0.0)),
        (lambda: dp.r1_distribution(9, 1), lambda: dp.r1_distribution(9, 1.0)),
        (lambda: dp.r2_distribution(9, 0), lambda: dp.r2_distribution(9, 0.0)),
        (lambda: dp.r2_distribution(9, 1), lambda: dp.r2_distribution(9, 1.0)),
        (lambda: dp.r3_distribution(9, 1, 0.5), lambda: dp.r3_distribution(9, 1.0, 0.5)),
        (lambda: dp.r3_distribution(9, 0, 0.25), lambda: dp.r3_distribution(9, 0.0, 0.25)),
    ],
)
def test_int_endpoint_p_runs_in_float(int_call, float_call):
    assert np.array_equal(int_call().probs, float_call().probs)


@pytest.mark.parametrize(
    "rows",
    [
        lambda: dp.r1_rows(40, 1),
        lambda: dp.r2_rows(40, np.float32(0.3)),
        lambda: dp.r3_rows(40, 0, 0.25),
        lambda: dp.r3_rows(40, np.float32(0.5), 1),
    ],
)
def test_non_fraction_p_gives_float64_rows(rows):
    for n, row in rows():
        assert row.dtype == np.float64
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_fraction_p_float_distributions_run_in_float():
    # the float wrappers convert a Fraction p; at N=2000 rational rows would
    # not finish in any reasonable time
    for maker, params in ((dp.r1_distribution, (Fraction(1, 3),)),
                          (dp.r2_distribution, (Fraction(1, 3),)),
                          (dp.r3_distribution, (Fraction(1, 3), Fraction(3, 4)))):
        exact_p = maker(2000, *params).probs
        assert np.array_equal(exact_p, maker(2000, *(float(x) for x in params)).probs)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_small_n_rejected(n):
    with pytest.raises(DomainError):
        dp.r1_distribution(n, 0.5)
    with pytest.raises(DomainError):
        dp.r2_distribution(n, 0.5)
    with pytest.raises(DomainError):
        dp.r3_distribution(n, 0.5, 0.5)
    for exact, params in ((dp.r1_distribution_exact, (Fraction(1, 2),)),
                          (dp.r2_distribution_exact, (Fraction(1, 2),)),
                          (dp.r3_distribution_exact, (Fraction(1, 2), Fraction(1, 2)))):
        with pytest.raises(DomainError, match="base case"):
            exact(n, *params)


@pytest.mark.parametrize("p,q,name", [(1.5, 0.5, "p"), (0.5, 1.5, "q"), (-0.1, 0.5, "p")])
def test_r3_rows_names_the_parameter_out_of_range(p, q, name):
    with pytest.raises(DomainError, match=f"{name} must lie in \\[0, 1\\]"):
        next(dp.r3_rows(10, p, q))


def test_rational_dp_cap():
    with pytest.raises(DomainError):
        dp.r1_distribution_exact(65, Fraction(1, 2))


def test_concurrent_dp_calls_are_independent():
    # distinct parameter points may run concurrently; results must match
    # the sequential ones exactly
    from concurrent.futures import ThreadPoolExecutor

    params = [(120, 0.1 * k) for k in range(11)]
    sequential = [dp.r1_distribution(n, p).probs for n, p in params]
    with ThreadPoolExecutor(max_workers=6) as pool:
        concurrent = list(pool.map(lambda np_: dp.r1_distribution(*np_).probs, params))
    for a, b in zip(sequential, concurrent):
        assert np.array_equal(a, b)


def test_distributions_are_immutable():
    dist = dp.r1_distribution(10, 0.4)
    with pytest.raises(ValueError):
        dist.probs[0] = 1.0


def test_impossible_residue_class_is_exactly_zero():
    # the knife moves past two labels per step, which forbids survival at
    # n == -N (mod 3); the DP reproduces those exact zeros at every p
    for p in (0.2, 0.5, 0.9):
        for n, row in dp.r1_rows(40, p):
            forbidden = (-n) % 3
            zero_idx = np.arange(forbidden, n, 3)
            assert np.all(row[zero_idx] == 0.0)
