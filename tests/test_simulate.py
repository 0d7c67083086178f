"""Process state machine, seeded sampling, and Monte Carlo consistency."""

import itertools
import math
import os
import shutil
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from stream_reference import splitmix64, stream

from josephus import analysis, dp, simulate
from josephus.deterministic import survivor_closed_form
from josephus.errors import DomainError, InvalidStateError, KernelBuildError
from josephus.rules import RuleSpec
from josephus.simulate import (
    LEFT,
    RIGHT,
    ProcessState,
    _walk,
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
    for rule in (RuleSpec.r1(0.3), RuleSpec.r2(0.6), RuleSpec.r3(0.4, 0.7)):
        for seed in (1, 5):
            for n in (2, 3, 7, 30, 200, 500):
                expected = sample_survivor(rule, n, seed)
                u = stream(seed).random(2 * (n - 1))
                if rule.kind.value == "r3":
                    coins = [
                        (u[2 * s] < float(rule.p), u[2 * s + 1] < float(rule.q))
                        for s in range(n - 1)
                    ]
                else:
                    coins = [u[s] < float(rule.p) for s in range(n - 1)]
                assert run_path(rule, n, coins) == expected


def _uniform_paths(rule: RuleSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # one sample's uniforms per row, and the coin thresholds they are read
    # against (p, and q at r3's knife positions): seeded random rows, then
    # rows of uniforms equal to the threshold and one ulp below it, in runs
    # and alternating by position and by step
    width = 2 if rule.kind.value == "r3" else 1
    pos = np.arange(width * (n - 1))
    at = np.resize([float(rule.p), float(rule.q)] if width == 2 else [float(rule.p)], pos.size)
    below = np.nextafter(at, 0.0)
    by_step = (pos // width) % 2 == 0
    rows = [at, below, np.where(pos % 2 == 0, below, at), np.where(pos % 2 == 0, at, below),
            np.where(by_step, below, at)]
    return np.vstack([np.random.default_rng(seed).random((12, pos.size)), *rows]), at


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64, 500])
@pytest.mark.parametrize(
    "rule",
    [RuleSpec.deterministic(), RuleSpec.r1(0.3), RuleSpec.r2(0.6), RuleSpec.r3(0.4, 0.7)],
    ids=["deterministic", "r1", "r2", "r3"],
)
def test_backward_engine_matches_forward_paths(rule, n):
    # explicit uniforms fed to the kernel's walk, checked path by path against
    # step() on the coins u < p (u < q for r3's knife)
    paths, thresholds = _uniform_paths(rule, n, seed=n)
    for u in paths:
        coins = u < thresholds
        if rule.kind.value == "r3":
            coins = list(zip(coins[0::2], coins[1::2]))
        assert _walk(rule, n, u) == run_path(rule, n, coins)


@pytest.mark.parametrize(
    "rule, n_max",
    [(RuleSpec.r1(0.3), 10), (RuleSpec.r1(0.6), 10), (RuleSpec.r2(0.3), 10),
     (RuleSpec.r2(0.6), 10), (RuleSpec.r3(0.4, 0.7), 6)],
    ids=["r1-0.3", "r1-0.6", "r2-0.3", "r2-0.6", "r3"],
)
def test_walk_matches_forward_paths_on_every_coin_sequence(rule, n_max):
    # every coin sequence at every N <= n_max, so the walk meets each wrap of
    # its labels (s == 0, s == 1, s + 2 == M, s + 1 == M - 1) under each coin;
    # a true coin is the uniform one ulp below its threshold, a false one the
    # threshold itself
    thresholds = [rule.p, rule.q] if rule.kind.value == "r3" else [rule.p]
    for n in range(2, n_max + 1):
        at = np.resize(np.array(thresholds, dtype=float), len(thresholds) * (n - 1))
        for coins in itertools.product((True, False), repeat=at.size):
            u = np.where(coins, np.nextafter(at, 0.0), at)
            if len(thresholds) == 2:
                coins = list(zip(coins[0::2], coins[1::2]))
            assert _walk(rule, n, u) == run_path(rule, n, coins)


def test_walk_refuses_coins_of_the_wrong_shape():
    # the C walk reads N-1 uniforms, 2(N-1) for r3, unchecked
    u, r3 = np.zeros(4), RuleSpec.r3(0.5, 0.5)
    for bad in ((R1H, 6, u), (R1H, 5, u[:, None]), (R1H, 5, np.zeros(5)),
                (r3, 5, u), (r3, 5, np.zeros(9)), (r3, 5, np.zeros((4, 2)))):
        with pytest.raises(DomainError):
            _walk(*bad)
    assert _walk(R1H, 5, u) == run_path(R1H, 5, [True] * 4)
    assert _walk(r3, 5, np.zeros(8)) == run_path(r3, 5, [(True, True)] * 4)


@pytest.mark.parametrize("bad", [1.0, 1.5, -0.5, float("nan")])
def test_inverse_cdf_refuses_uniforms_outside_the_unit_interval(bad):
    # C indexes the guide table by u*K, so u = 1 would read one past its end
    cdf = np.cumsum(np.full(8, 0.125))
    with pytest.raises(DomainError, match=rf"\[0, 1\), got {bad}"):
        simulate._inverse_cdf(cdf, [0.0, 0.5, bad])


@pytest.mark.parametrize("row", [
    np.full(4, 0.25, dtype=np.float32),
    np.full((2, 2), 0.25),
    np.full(8, 0.125)[::2],
    np.empty(0),
    np.full(9, 1 / 9),
    [0.25] * 4,
], ids=["float32", "2d", "strided", "empty", "longer_than_l_max", "list"])
def test_clt_sums_refuse_a_row_c_cannot_read(row):
    # C reads len(row) doubles of the row and writes as many into the l_max-entry scratch
    sums = simulate._CltSums(0, 8, 1000)
    with pytest.raises(DomainError, match="1-D C-contiguous float64 array of 1 to 8"):
        sums.add(row, 0.5)
    sums.close()
    assert not sums.centered.any() and not sums.mid.any()


def test_empirical_aggregates_individual_streams():
    n, samples, seed = 19, 60, 4242
    for rule in (RuleSpec.r1(0.42), RuleSpec.r3(0.35, 0.6)):
        dist = empirical_distribution(rule, n, samples, seed)
        survivors = [sample_survivor(rule, n, seed, stream_index=s) for s in range(samples)]
        assert np.array_equal(dist.counts, np.bincount(survivors, minlength=n))


# seeds reduce mod 2^64 (-1 is 2^64 - 1); lengths cross Philox's 4-word blocks
STREAM_SEEDS = (0, 5, 2**63 + 7, 2**64 - 1, -1, 2**64 + 5)
STREAM_INDICES = (0, 1, 999, 2**40)
STREAM_STEPS = (1, 3, 4, 5, 998, 1999)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize(
    "rule", [RuleSpec.r1(0.42), RuleSpec.r3(0.35, 0.6)], ids=["one_coin", "r3_alternating"]
)
def test_kernel_draws_equal_prng_stream(rule, seed):
    # the C kernel's uniforms are the numpy reference stream's bit for bit,
    # one per step or a (victim, knife) pair per step
    two_coin = rule.kind.value == "r3"
    for index in STREAM_INDICES:
        for steps in STREAM_STEPS:
            k = 2 * steps if two_coin else steps
            u = simulate._uniforms(seed, index, k)
            assert np.array_equal(u, stream(seed, index).random(k)), (index, steps)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_uniforms_from_an_offset_are_that_slice_of_the_stream(seed):
    # uniform i is lane i mod 4 of Philox block i/4 + 1, so a CLT trial slice
    # may start inside a block; advance(m) skips m blocks of the reference
    full = stream(seed, 999).random(30)
    for first in range(10):
        for k in (1, 3, 4, 5, 20):
            assert np.array_equal(simulate._uniforms(seed, 999, k, first), full[first:first + k])
    bit_generator = np.random.Philox(key=splitmix64(seed, 999))
    bit_generator.advance(2**38)
    far = np.random.Generator(bit_generator).random(9)
    for lane in range(4):
        assert np.array_equal(simulate._uniforms(seed, 999, 9 - lane, 2**40 + lane), far[lane:])


def _ndtr_edges() -> np.ndarray:
    """Every branch edge of the Cephes ndtr, each sign, and two floats to either side.

    |x| = 1 and sqrt(2) switch between erf and erfc, 8 sqrt(2) between erfc's
    P/Q and R/S fits, sqrt(2 MAXLOG) to erfc's underflow; then the signed
    zeros, infinities and subnormals, and NaN of either sign.
    """
    maxlog = 7.09782712893383996843e2
    edges = [1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * maxlog), 0.0, math.inf,
             5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0)]
    points = []
    for edge in edges:
        for x in (edge, -edge):
            below = above = x
            points.append(x)
            for _ in range(2):
                below, above = np.nextafter(below, -math.inf), np.nextafter(above, math.inf)
                points += [below, above]
    return np.array(points + [math.nan, -math.nan])


def test_kernel_ndtr_equals_scipy_ndtr_bit_for_bit():
    import scipy.special  # the reference; the package itself never loads scipy

    rng = np.random.default_rng(29)
    x = np.concatenate([*(rng.normal(scale=s, size=10**6) for s in (0.3, 1, 3, 10)),
                        rng.uniform(-40, 40, 10**6), _ndtr_edges()])
    got, want = simulate._ndtr(x), scipy.special.ndtr(x)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, [(x[i], got[i], want[i]) for i in bad[:5]]


def test_kernel_build_without_gcc_names_gcc(tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "_CACHE_DIR", tmp_path)
    monkeypatch.setattr(simulate, "_kernel_lib", None)
    monkeypatch.setattr(simulate.shutil, "which", lambda name: None)
    with pytest.raises(KernelBuildError, match="gcc"):
        empirical_distribution(R1H, 10, 5, seed=0)
    assert list(tmp_path.iterdir()) == []


def test_kernel_build_gcc_rejects_carries_its_stderr_and_leaves_no_file(tmp_path, monkeypatch):
    source = tmp_path / "broken.c"
    source.write_text("int josephus_broken(void) { return }\n")
    cache = tmp_path / "cache"
    monkeypatch.setattr(simulate, "_SOURCE", source)
    with pytest.raises(KernelBuildError, match="gcc could not build broken.c") as info:
        simulate._build(cache / "_sampler-broken.so")
    assert "broken.c:1:" in str(info.value) and "error" in str(info.value)
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["simulate", "--rule", "r1", "--n", "10", "--p", "0.5", "--samples", "5"],
    ["clt", "--l-max", "20", "--trials", "1000"],
], ids=["simulate", "clt"])
def test_cli_without_gcc_exits_1_with_one_error_line(command, tmp_path, monkeypatch, capsys):
    from josephus.cli import main

    cache, out = tmp_path / "cache", tmp_path / "out"
    cache.mkdir()
    monkeypatch.setattr(simulate, "_CACHE_DIR", cache)
    monkeypatch.setattr(simulate, "_kernel_lib", None)
    monkeypatch.setattr(simulate.shutil, "which", lambda name: None)
    assert main(["--out", str(out), *command]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and "gcc" in err and err.count("\n") == 1
    assert not out.exists() or list(out.iterdir()) == []
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["simulate", "--rule", "r1", "--n", "10", "--p", "0.5", "--samples", "5"],
    ["clt", "--l-max", "20", "--trials", "1000"],
], ids=["simulate", "clt"])
def test_cli_with_unwritable_kernel_cache_exits_1_with_one_error_line(
    command, tmp_path, monkeypatch, capsys
):
    from josephus.cli import main

    # a cache directory below a regular file cannot be made, even as root,
    # as a read-only install cannot make one
    blocker, out = tmp_path / "file", tmp_path / "out"
    blocker.write_text("")
    monkeypatch.setattr(simulate, "_CACHE_DIR", blocker / "cache")
    monkeypatch.setattr(simulate, "_kernel_lib", None)
    assert main(["--out", str(out), *command]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and str(blocker / "cache") in err and err.count("\n") == 1
    assert not out.exists() or list(out.iterdir()) == []


def test_kernel_source_compiles_without_warnings(tmp_path):
    import subprocess

    # the kernel's own flags plus every common warning, each an error
    flags = [*simulate._CFLAGS, "-Wall", "-Wextra", "-Werror"]
    out = tmp_path / "kernel.so"
    proc = subprocess.run(["gcc", *flags, "-o", str(out), str(simulate._SOURCE),
                           *simulate._LDLIBS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_kernel_argtypes_match_the_exported_prototypes():
    import re

    # ctypes trusts _kernel()'s argtypes, a second copy of each C prototype
    prototypes = re.findall(r"^\w+ (josephus_\w+)\(([^)]*)\)", simulate._SOURCE.read_text(),
                            flags=re.MULTILINE)
    assert {name for name, _ in prototypes} == {
        "josephus_uniforms", "josephus_walk", "josephus_sample", "josephus_inverse_cdf",
        "josephus_clt_batch", "josephus_ndtr"}
    lib = simulate._kernel()
    for name, params in prototypes:
        assert len(getattr(lib, name).argtypes) == len(params.split(",")), name


_SANITIZED_SETUP = """
import os
import sys
from pathlib import Path
import numpy as np
from josephus import analysis, simulate
from josephus.rules import RuleSpec
simulate._library_path = lambda: Path(sys.argv[1])
simulate._kernel_lib = None
"""
# every typed entry on edge inputs: N = 2, 3, 5, 64 with the certain-coin
# corners, stream lengths across Philox blocks, uniforms at 0, 1 - 2^-53 and
# the bucket edges j/K, partial last blocks, CLT rows up to l_max at a power of
# two and one past it, and clipped CLT draws; 1001 and 1003 trials fill the
# CLT uniforms and draws scratch to its last, partial Philox block, and their
# three trial slices start off the 4-word blocks; Phi on an empty array and on
# every branch edge of the Cephes ndtr
_SANITIZED_ENTRIES = """
os.sched_getaffinity = lambda pid: {0, 1, 2}  # the split path runs even on one CPU
rules = [RuleSpec.r1(p) for p in (0, 0.5, 1)] + [RuleSpec.r2(p) for p in (0, 0.3, 1)]
rules += [RuleSpec.r3(p, q) for p in (0, 0.5, 1) for q in (0, 0.75, 1)]
for rule in rules:
    for n in (2, 3, 5, 64):
        simulate.empirical_distribution(rule, n, 9, -1)
        simulate.sample_survivor(rule, n, 2**64 - 1, 5)
        k = simulate._stream_length(rule, n)
        for u in (np.zeros(k), np.full(k, 1 - 2**-53), simulate._uniforms(3, n, k)):
            simulate._walk(rule, n, u)
for k in range(1, 10):
    for first in (0, 3, 2**40 + 1):
        simulate._uniforms(7, 2**40, k, first)
for n in (1, 2, 3, 5, 8, 9, 300):
    cdf = np.cumsum(np.full(n, 1 / n))
    k = len(simulate._guide(n))
    u = np.concatenate([[0.0, 1 - 2**-53], np.arange(k) / k])
    assert np.array_equal(simulate._inverse_cdf(cdf, u), np.searchsorted(cdf, u, side="right"))
for trials in (1001, 1003):
    for l_max in (8, 9):
        sums = simulate._CltSums(5, l_max, trials)
        for n in range(1, l_max + 1):
            sums.add(np.full(n, 1 / n), 0.5)
        sums.add(np.array([0.1, 0.1, 0.0, 0.3]), 0.3)  # sums to 1/2: half the draws clip
        sums.close()
    analysis.clt_experiment(300, trials, 5)  # rows of more than one batch
simulate._ndtr(np.array([]))
simulate._ndtr(np.frombuffer(bytes.fromhex(sys.argv[2])))  # _ndtr_edges()
"""
# the raw C lookup at u = 1 reads one entry past the guide table
_SANITIZED_OVERFLOW = """
cdf = np.cumsum(np.full(8, 0.125))
simulate._kernel().josephus_inverse_cdf(8, cdf, 1, np.array([1.0]), simulate._guide(8),
                                        np.empty(1, dtype=np.int64))
"""


def test_kernel_entries_run_clean_under_address_and_undefined_sanitizers(tmp_path):
    import subprocess
    import sys

    if shutil.which("gcc") is None:
        pytest.skip("no gcc")
    libasan = subprocess.run(["gcc", "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("gcc has no libasan.so")
    lib = tmp_path / "sanitized.so"
    flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
             "-fno-omit-frame-pointer", "-ffp-contract=off", "-fPIC", "-shared"]
    subprocess.run(["gcc", *flags, "-o", str(lib), str(simulate._SOURCE), *simulate._LDLIBS],
                   check=True)
    env = {**os.environ, "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": str(Path(simulate.__file__).parents[1])}

    def run(body):
        return subprocess.run([sys.executable, "-c", _SANITIZED_SETUP + body, str(lib),
                               _ndtr_edges().tobytes().hex()],
                              capture_output=True, text=True, env=env)

    clean = run(_SANITIZED_ENTRIES)
    assert clean.returncode == 0, clean.stderr
    assert "AddressSanitizer" not in clean.stderr and "runtime error:" not in clean.stderr
    overflow = run(_SANITIZED_OVERFLOW)  # positive control: the sanitizer does see it
    assert overflow.returncode != 0
    assert "heap-buffer-overflow" in overflow.stderr


def test_importing_the_cli_neither_builds_nor_loads_the_kernel():
    import subprocess
    import sys

    # the kernel is built and loaded together, on the first sampling call
    probe = "import josephus.cli, josephus.simulate as s; assert s._kernel_lib is None"
    src = str(Path(simulate.__file__).parents[1])
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def _count_builds(tmp_path, monkeypatch) -> list:
    # a fresh, empty kernel cache whose builds are recorded
    monkeypatch.setattr(simulate, "_CACHE_DIR", tmp_path)
    monkeypatch.setattr(simulate, "_kernel_lib", None)
    builds, build = [], simulate._build
    monkeypatch.setattr(simulate, "_build", lambda path: (builds.append(path), build(path)))
    return builds


def test_kernel_is_built_once_then_loaded_from_cache(tmp_path, monkeypatch):
    builds = _count_builds(tmp_path, monkeypatch)
    expected = empirical_distribution(R1H, 30, 200, seed=1).counts
    assert len(builds) == 1
    assert [path.name for path in tmp_path.iterdir()] == [builds[0].name]
    mtime = builds[0].stat().st_mtime_ns
    monkeypatch.setattr(simulate, "_kernel_lib", None)  # as in a new process
    assert np.array_equal(empirical_distribution(R1H, 30, 200, seed=1).counts, expected)
    assert len(builds) == 1
    assert builds[0].stat().st_mtime_ns == mtime


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
def test_certain_coins_draw_nothing(rule, n):
    # every coin has probability 0 or 1: the kernel draws no uniform but walks
    # zeros once, and every sample lands on the survivor that carries the DP's
    # point mass
    if n >= 3:
        probs = dp.distribution_for_rule(rule, n).probs
        assert probs.max() == 1.0
        survivor = int(np.argmax(probs))
    else:
        survivor = 0  # two-person convention: the holder removes the other
    u, counts = np.full(simulate._stream_length(rule, n), 0.5), np.zeros(n, np.int64)
    simulate._kernel().josephus_sample(*simulate._rule_args(rule, n), 3, 0, 1000, u, counts)
    assert not u.any(), "a certain rule drew uniforms"
    assert counts[survivor] == 1000
    dist = empirical_distribution(rule, n, 1000, seed=3)
    assert dist.counts[survivor] == 1000
    for index in (0, 7):
        assert sample_survivor(rule, n, seed=3, stream_index=index) == survivor


@pytest.mark.slow
def test_mc_matches_dp_within_five_standard_errors():
    # binwise |empirical - exact| <= 5 * sqrt(g(1-g)/S); impossible positions
    # (exact zeros) must never be sampled at all
    n, samples, seed = 50, 1_000_000, 20240811
    exact = dp.r1_distribution(n, 0.5).probs
    emp = empirical_distribution(R1H, n, samples, seed)
    se = np.sqrt(exact * (1.0 - exact) / samples)
    zero = exact == 0.0
    assert np.all(emp.counts[zero] == 0)
    diff = np.abs(emp.probs - exact)
    assert np.all(diff[~zero] <= 5.0 * se[~zero])


@pytest.mark.slow
def test_empirical_r2_mode_tracks_limit_constant():
    # histogram mode at p=0.45 lands within 0.03N of (3p-1)N = 0.35N
    emp = empirical_distribution(RuleSpec.r2(0.45), 2000, 100_000, seed=424242)
    mode = int(np.argmax(emp.counts))
    assert abs(mode - 0.35 * 2000) <= 0.03 * 2000


def test_empirical_is_thread_safe_and_schedule_independent(tmp_path, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    rule = RuleSpec.r2(0.3)
    expected = empirical_distribution(rule, 23, 300, seed=8).counts
    builds = _count_builds(tmp_path, monkeypatch)  # the four threads race to build the kernel
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(
            lambda _: empirical_distribution(rule, 23, 300, seed=8).counts, range(4)
        ))
    for counts in results:
        assert np.array_equal(counts, expected)
    assert len(builds) == 1


def _with_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("rule", [RuleSpec.r1(0.42), RuleSpec.r2(0.3), RuleSpec.r3(0.35, 0.6)],
                         ids=["r1", "r2", "r3"])
def test_split_counts_equal_one_cpu_counts(rule, monkeypatch):
    # chunks split samples first .. first+count-1 at any W, also W > count and
    # stream indices that wrap mod 2^64; every W sums to one call's counts
    n, seed = 30, 77
    cases = [(0, 1), (0, 2), (0, 7), (0, 20001), (2**64 - 3, 7)]
    _with_cpus(monkeypatch, 1)
    expected = [simulate._sample_counts(rule, n, seed, first, count) for first, count in cases]
    for (first, count), counts in zip(cases, expected):
        assert counts.sum() == count
    for cpus in (2, 3, 5):
        _with_cpus(monkeypatch, cpus)
        for (first, count), counts in zip(cases, expected):
            assert np.array_equal(simulate._sample_counts(rule, n, seed, first, count), counts), \
                (cpus, first, count)


@pytest.mark.parametrize("cpus", [1, 5])
def test_largest_sample_count_lands_whole_on_one_label(cpus, monkeypatch):
    # at p = 1 the kernel adds a chunk's count at once, so 2^63 - 1 samples are
    # cheap; the int64 sum of the chunk rows must neither wrap nor drop a sample
    _with_cpus(monkeypatch, cpus)
    counts = simulate._sample_counts(RuleSpec.r1(1.0), 5, 0, 0, 2**63 - 1)
    assert sorted(counts.tolist()) == [0, 0, 0, 0, 2**63 - 1]


def test_cpus_fall_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(simulate.os, "sched_getaffinity")
    assert simulate._cpus() == (os.cpu_count() or 1)


def test_one_cpu_or_one_sample_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    survivor, counts = sample_survivor(R1H, 30, 5, 3), simulate._sample_counts(R1H, 30, 5, 0, 9)
    clt = _clt_sums(40, 1000, 5)
    monkeypatch.setattr(simulate.threading, "Thread", no_thread)
    _with_cpus(monkeypatch, 4)
    assert sample_survivor(R1H, 30, 5, 3) == survivor
    _with_cpus(monkeypatch, 1)
    assert np.array_equal(simulate._sample_counts(R1H, 30, 5, 0, 9), counts)
    for got, want in zip(_clt_sums(40, 1000, 5), clt):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_failing_chunk_reaches_the_caller(failing, monkeypatch):
    # a chunk that raises, on the calling thread (0) or a worker, fails the call
    # after every chunk has ended; no partial histogram comes back
    real = simulate._kernel().josephus_sample
    started = []

    def sample(kind, n, p, q, seed, first, count, u, counts):
        started.append(first)
        if first == 3 * failing:
            raise RuntimeError(f"chunk {failing} failed")
        real(kind, n, p, q, seed, first, count, u, counts)

    monkeypatch.setattr(simulate, "_kernel", lambda: SimpleNamespace(josephus_sample=sample))
    _with_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
        simulate._sample_counts(R1H, 30, 5, 0, 9)
    assert sorted(started) == [0, 3, 6]


def _clt_sums(l_max: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw trial sums ``centered`` and ``mid`` over the unbiased rows N = 3..l_max."""
    sums = simulate._CltSums(seed, l_max, trials)
    try:
        for n, row in dp.r1_rows(l_max, 0.5):
            sums.add(row, float(np.dot(np.arange(n) / n, row)))
    finally:
        sums.close()
    return sums.centered, sums.mid


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("trials", [1001, 1003])
def test_clt_sums_at_any_cpu_count_equal_one_cpu_sums(trials, seed, monkeypatch):
    # each trial adds its draws in N order whatever slice holds it; the slices
    # start off the 4-word Philox blocks, and the rows of l_max = 300 fill two
    # batches; a short switch interval interleaves the threads more often
    _with_cpus(monkeypatch, 1)
    expected = _clt_sums(300, trials, seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in (2, 3, 5):
            _with_cpus(monkeypatch, cpus)
            for got, want in zip(_clt_sums(300, trials, seed), expected):
                assert got.tobytes() == want.tobytes(), cpus
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_failing_clt_slice_reaches_the_caller_after_every_join(failing, monkeypatch):
    # the rows of l_max = 300 fill two batches; a failed thread drains the
    # second without running it, so the experiment ends, and the error comes
    # back once no thread is left
    real = simulate._kernel().josephus_clt_batch
    starts = [1001 * i // 3 for i in range(3)]
    calls = []

    def batch(seed, nrows, ns, rows, means, t0, *rest):
        calls.append(t0)
        if t0 == starts[failing]:
            raise RuntimeError(f"slice {failing} failed")
        real(seed, nrows, ns, rows, means, t0, *rest)

    monkeypatch.setattr(simulate, "_kernel", lambda: SimpleNamespace(josephus_clt_batch=batch))
    _with_cpus(monkeypatch, 3)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"slice {failing} failed"):
        analysis.clt_experiment(300, 1001, 0)
    assert threading.active_count() == threads
    # slice 0 fails on the calling thread, in the first batch, and no second batch is made
    runs = 1 if failing == 0 else 2
    assert [calls.count(t0) for t0 in starts] == [1 if i == failing else runs for i in range(3)]


def test_a_refused_clt_row_leaves_no_thread_behind(monkeypatch):
    rows = list(dp.r1_rows(300, 0.5))
    rows[277] = (280, rows[277][1].astype(np.float32))  # after the first batch
    monkeypatch.setattr(dp, "r1_rows", lambda n_max, p: iter(rows))
    _with_cpus(monkeypatch, 3)
    threads = threading.active_count()
    with pytest.raises(DomainError, match="got float32 of shape"):
        analysis.clt_experiment(300, 1001, 0)
    assert threading.active_count() == threads


@pytest.mark.slow
def test_mc_total_variation_at_n2000():
    # 1e5 seeded runs against the exact unbiased distribution at N=2000
    n, samples, seed = 2000, 100_000, 12345
    exact = dp.r1_distribution(n, 0.5)
    emp = empirical_distribution(R1H, n, samples, seed)
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
