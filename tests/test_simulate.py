"""Process state machine, seeded sampling, and Monte Carlo consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from josephus import dp
from josephus.deterministic import survivor_closed_form
from josephus.errors import DomainError, InvalidStateError
from josephus.rules import RuleSpec
from josephus.simulate import (
    LEFT,
    RIGHT,
    ProcessState,
    _survivors,
    empirical_distribution,
    initial_state,
    run_path,
    sample_survivor,
    step,
)

R1H = RuleSpec.r1(0.5)


def test_r1_step_keep_direction():
    state = initial_state(RuleSpec.r1(0.7), 3)
    nxt = step(state, True)
    assert nxt.alive == (0, 2)
    assert nxt.knife == 2
    assert nxt.direction == RIGHT


def test_r1_step_flip_direction():
    state = initial_state(RuleSpec.r1(0.7), 3)
    nxt = step(state, False)
    assert nxt.alive == (0, 1)
    assert nxt.knife == 1
    assert nxt.direction == LEFT


def test_r2_step_left_branch():
    state = initial_state(RuleSpec.r2(0.7), 4)
    nxt = step(state, False)
    assert nxt.alive == (0, 1, 2)
    assert nxt.knife == 2


def test_r3_step_branches():
    state = initial_state(RuleSpec.r3(0.5, 0.5), 4)
    # victim right, pass left: 1 dies, knife to holder's left = 3
    nxt = step(state, True, False)
    assert nxt.alive == (0, 2, 3)
    assert nxt.knife == 3
    # victim left, pass right: 3 dies, knife to holder's right = 1
    nxt = step(state, False, True)
    assert nxt.alive == (0, 1, 2)
    assert nxt.knife == 1


def test_step_requires_knife_coin_exactly_for_r3():
    with pytest.raises(DomainError):
        step(initial_state(R1H, 4), True, True)
    with pytest.raises(DomainError):
        step(initial_state(RuleSpec.r3(0.5, 0.5), 4), True)


def test_step_rejects_singleton_round():
    state = ProcessState(R1H, (5,), 5)
    with pytest.raises(InvalidStateError):
        step(state, True)


@given(
    n=st.integers(min_value=2, max_value=24),
    coins=st.lists(st.booleans(), min_size=23, max_size=23),
    kind=st.sampled_from(["r1", "r2"]),
)
@settings(max_examples=80, deadline=None)
def test_every_path_removes_one_per_step(n, coins, kind):
    rule = RuleSpec.r1(0.3) if kind == "r1" else RuleSpec.r2(0.3)
    state = initial_state(rule, n)
    for c in coins[: n - 1]:
        before = len(state.alive)
        state = step(state, c)
        assert len(state.alive) == before - 1
        assert state.knife in state.alive
    assert len(state.alive) == 1


def test_run_path_r3_pairs():
    survivor = run_path(RuleSpec.r3(0.5, 0.5), 4, [(True, True), (True, True), (True, True)])
    assert survivor == survivor_closed_form(4) - 1


def test_deterministic_sample_is_seed_independent():
    for seed in (0, 1, 2**63):
        assert sample_survivor(RuleSpec.deterministic(), 41, seed) == 18


def test_r1_p1_recovers_classical_survivor():
    for n in (5, 17, 64, 200):
        expected = survivor_closed_form(n) - 1
        for seed in (3, 99):
            assert sample_survivor(RuleSpec.r1(1.0), n, seed) == expected


def test_r1_p0_is_deterministic_near_midpoint():
    for n in (100, 1000, 2000):
        survivors = {sample_survivor(RuleSpec.r1(0.0), n, seed) for seed in range(5)}
        assert len(survivors) == 1
        a = survivors.pop()
        assert abs(a / n - 0.5) <= 2 / n


def test_sampling_is_reproducible():
    a = sample_survivor(R1H, 200, seed=777)
    b = sample_survivor(R1H, 200, seed=777)
    assert a == b
    c = sample_survivor(R1H, 200, seed=778)
    assert isinstance(c, int)


def test_single_run_matches_reference_state_machine():
    # the sampling engine and the tuple-based step() must agree path-wise
    from josephus import prng

    for rule in (RuleSpec.r1(0.3), RuleSpec.r2(0.6), RuleSpec.r3(0.4, 0.7)):
        for seed in (1, 5):
            for n in (2, 3, 7, 30, 200, 500):
                expected = sample_survivor(rule, n, seed)
                u = prng.stream(seed).random(2 * (n - 1))
                if rule.kind.value == "r3":
                    coins = [
                        (u[2 * s] < rule.p_float, u[2 * s + 1] < rule.q_float)
                        for s in range(n - 1)
                    ]
                else:
                    coins = [u[s] < rule.p_float for s in range(n - 1)]
                assert run_path(rule, n, coins) == expected


def _coin_paths(rule: RuleSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # step-major (n-1) x paths victim and knife coins: seeded random paths,
    # then all-p, all-not-p and alternating sequences
    steps = n - 1
    ones, alt = np.ones(steps, bool), np.arange(steps) % 2 == 0
    if rule == RuleSpec.deterministic():
        # the classical game's coins all take the p-branch
        return ones[:, None], ones[:, None]
    rng = np.random.default_rng(seed)
    victim = np.column_stack([rng.random((steps, 12)) < 0.5, ones, ~ones, alt, ~alt])
    knife = np.column_stack([rng.random((steps, 12)) < 0.5, ones, ~ones, alt, alt])
    return victim, knife


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64, 500])
@pytest.mark.parametrize(
    "rule",
    [RuleSpec.deterministic(), RuleSpec.r1(0.3), RuleSpec.r2(0.6), RuleSpec.r3(0.4, 0.7)],
    ids=["deterministic", "r1", "r2", "r3"],
)
def test_backward_engine_matches_forward_paths(rule, n):
    # explicit coins fed to the sampling engine, checked path by path against step()
    kind = rule.kind.value
    victim, knife = _coin_paths(rule, n, seed=n)
    survivors = _survivors(rule, n, victim, knife if kind == "r3" else None)
    for j in range(victim.shape[1]):
        coins = list(zip(victim[:, j], knife[:, j])) if kind == "r3" else list(victim[:, j])
        assert survivors[j] == run_path(rule, n, coins)


def test_empirical_aggregates_individual_streams():
    rule = RuleSpec.r3(0.35, 0.6)
    n, samples, seed = 19, 60, 4242
    dist = empirical_distribution(rule, n, samples, seed, chunk_size=16)
    counts = np.zeros(n, dtype=int)
    for s in range(samples):
        counts[sample_survivor(rule, n, seed, stream_index=s)] += 1
    assert np.array_equal(dist.counts, counts)


def test_empirical_is_chunk_size_invariant():
    rule = RuleSpec.r1(0.42)
    base = empirical_distribution(rule, 31, 500, seed=5, chunk_size=7)
    other = empirical_distribution(rule, 31, 500, seed=5, chunk_size=499)
    assert np.array_equal(base.counts, other.counts)


def test_empirical_single_sample_is_point_mass():
    dist = empirical_distribution(R1H, 25, 1, seed=11)
    assert dist.counts.sum() == 1
    assert dist.probs.max() == 1.0
    assert dist.n_participants == 25


def test_empirical_deterministic_rule():
    dist = empirical_distribution(RuleSpec.deterministic(), 41, 100, seed=0)
    assert dist.counts[18] == 100


@pytest.mark.parametrize("n", [2, 3, 5, 41, 500])
@pytest.mark.parametrize(
    "rule",
    [RuleSpec.r1(0), RuleSpec.r1(1), RuleSpec.r2(0), RuleSpec.r2(1),
     *(RuleSpec.r3(p, q) for p in (0, 1) for q in (0, 1))],
    ids=lambda r: f"{r.kind.value}_{r.p}" + ("" if r.q is None else f"_{r.q}"),
)
def test_certain_coins_draw_nothing(rule, n, monkeypatch):
    # every coin has probability 0 or 1: no stream is drawn, and every sample
    # lands on the survivor that carries the DP's point mass
    from josephus import prng

    def no_stream(*args):
        raise AssertionError("a certain rule drew a random stream")

    monkeypatch.setattr(prng, "stream", no_stream)
    if n >= 3:
        probs = dp.distribution_for_rule(rule, n).probs
        assert probs.max() == 1.0
        survivor = int(np.argmax(probs))
    else:
        survivor = 0  # two-person convention: the holder removes the other
    dist = empirical_distribution(rule, n, 1000, seed=3, chunk_size=64)
    assert dist.counts[survivor] == 1000
    for index in (0, 7):
        assert sample_survivor(rule, n, seed=3, stream_index=index) == survivor


@pytest.mark.slow
def test_mc_matches_dp_within_five_standard_errors():
    # binwise |empirical - exact| <= 5 * sqrt(g(1-g)/S); impossible positions
    # (exact zeros) must never be sampled at all
    n, samples, seed = 50, 1_000_000, 20240811
    exact = dp.r1_distribution(n, 0.5).probs
    emp = empirical_distribution(R1H, n, samples, seed, chunk_size=65536)
    se = np.sqrt(exact * (1.0 - exact) / samples)
    zero = exact == 0.0
    assert np.all(emp.counts[zero] == 0)
    diff = np.abs(emp.probs - exact)
    assert np.all(diff[~zero] <= 5.0 * se[~zero])


@pytest.mark.slow
def test_empirical_r2_mode_tracks_limit_constant():
    # histogram mode at p=0.45 lands within 0.03N of (3p-1)N = 0.35N
    emp = empirical_distribution(RuleSpec.r2(0.45), 2000, 100_000, seed=424242,
                                 chunk_size=8192)
    mode = int(np.argmax(emp.counts))
    assert abs(mode - 0.35 * 2000) <= 0.03 * 2000


def test_empirical_is_thread_safe_and_schedule_independent():
    from concurrent.futures import ThreadPoolExecutor

    rule = RuleSpec.r2(0.3)
    expected = empirical_distribution(rule, 23, 300, seed=8).counts
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(
            lambda _: empirical_distribution(rule, 23, 300, seed=8).counts, range(4)
        ))
    for counts in results:
        assert np.array_equal(counts, expected)


@pytest.mark.slow
def test_mc_total_variation_at_n2000():
    # 1e5 seeded runs against the exact unbiased distribution at N=2000
    n, samples, seed = 2000, 100_000, 12345
    exact = dp.r1_distribution(n, 0.5)
    emp = empirical_distribution(R1H, n, samples, seed, chunk_size=8192)
    assert emp.total_variation(exact) <= 0.02


def test_mc_convergence_rate_is_statistical():
    # TV error should shrink roughly like 1/sqrt(samples)
    n = 40
    exact = dp.r1_distribution(n, 0.5)
    tv_small = empirical_distribution(R1H, n, 2_000, seed=3).total_variation(exact)
    tv_large = empirical_distribution(R1H, n, 128_000, seed=3).total_variation(exact)
    assert tv_large < tv_small / 3.0


def test_sampling_rejects_tiny_rounds():
    with pytest.raises(DomainError):
        sample_survivor(R1H, 1, 0)
    with pytest.raises(DomainError):
        empirical_distribution(R1H, 30, 0, seed=0)
