"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Tolerances are pinned from the build contract; where that contract marked
a number as derived-by-calibration, the pinned value is the one confirmed
by the pilot run recorded in the project notes.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from josephus import analysis, deterministic, dp
from josephus.cli import main
from josephus.errors import DomainError
from josephus.rules import RuleSpec
from josephus.simulate import oracle_distribution, sample_survivor

TEN_GRID = [Fraction(k, 10) for k in range(11)]
QUARTER_GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def test_criterion_01_deterministic_cross_check():
    start = time.monotonic()
    n_max = 10**6
    rec = deterministic.survivor_sequence(n_max)
    ns = range(1, n_max + 1)
    closed = np.fromiter(map(deterministic.survivor_closed_form, ns), np.int64, n_max)
    rot = np.fromiter(map(deterministic.survivor_binary_rotation, ns), np.int64, n_max)
    methods_agree = np.array_equal(rec, closed) and np.array_equal(rec, rot)
    coeffs = deterministic.generating_series_coefficients(1024)
    series_ok = all(coeffs[n] == rec[n - 1] for n in range(1, 1025))
    elapsed = time.monotonic() - start
    ok = methods_agree and series_ok and elapsed < 10.0
    record_criterion(
        "C01 deterministic cross-check",
        ok,
        f"3 methods to 1e6: {methods_agree}, series to 1024: {series_ok}, {elapsed:.1f}s",
    )
    assert methods_agree and series_ok
    assert elapsed < 10.0


def test_criterion_02_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for p in TEN_GRID:
        for n in range(3, 15):
            for oracle, exact in (
                (oracle_distribution(RuleSpec.r1(p), n), dp.r1_distribution(n, float(p))),
                (oracle_distribution(RuleSpec.r2(p), n), dp.r2_distribution(n, float(p))),
            ):
                worst = max(worst, float(np.abs(oracle.probs - exact.probs).max()))
    for p in QUARTER_GRID:
        for q in QUARTER_GRID:
            for n in range(3, 13):
                oracle = oracle_distribution(RuleSpec.r3(p, q), n)
                exact = dp.r3_distribution(n, float(p), float(q))
                worst = max(worst, float(np.abs(oracle.probs - exact.probs).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 120.0
    record_criterion(
        "C02 oracle equivalence",
        ok,
        f"worst termwise error {worst:.2e}, {elapsed:.0f}s",
    )
    assert worst <= 1e-12
    assert elapsed < 120.0


def test_criterion_03_base_vectors():
    worst3 = worst4 = 0.0
    for p in [float(x) for x in TEN_GRID] + [0.123456, 0.87]:
        g3 = dp.r1_distribution(3, p).probs
        worst3 = max(worst3, abs(g3[0]), abs(g3[1] - (1 - p)), abs(g3[2] - p))
        g4 = dp.r1_distribution(4, p).probs
        expected = np.array([p, (1 - p) ** 2, 0.0, p * (1 - p)])
        worst4 = max(worst4, float(np.abs(g4 - expected).max()))
    ok = worst3 == 0.0 and worst4 <= 1e-15
    record_criterion(
        "C03 base vectors", ok, f"g3 exact: {worst3 == 0}, g4 within {worst4:.2e}"
    )
    assert worst3 == 0.0
    assert worst4 <= 1e-15


def test_criterion_04_unbiased_symmetry_and_mean_identity():
    worst_sym = worst_mean = 0.0
    for n, row in dp.r1_rows(4000, 0.5):
        mirrored = row[(-np.arange(n)) % n]
        worst_sym = max(worst_sym, float(np.abs(row - mirrored).max()))
        mean = float(np.dot(np.arange(n) / n, row))
        worst_mean = max(worst_mean, abs((0.5 - mean) - row[0] / 2))
    ok = worst_sym <= 1e-12 and worst_mean <= 1e-12
    record_criterion(
        "C04 unbiased symmetry + mean identity",
        ok,
        f"symmetry {worst_sym:.2e}, mean identity {worst_mean:.2e}, N <= 4000",
    )
    assert worst_sym <= 1e-12
    assert worst_mean <= 1e-12


def test_criterion_05_middle_range_decay():
    start = time.monotonic()
    details = []
    ok = True
    for p in (0.4, 0.5, 0.6):
        beta, gamma = analysis.decay_params_feasible(p)
        ineqs = (
            p * beta**2 * gamma**2,
            (1 - p) * beta * gamma,
            gamma * (p * beta + (1 - p) / beta**2),
            gamma * ((1 - p) * beta + p / beta**2),
        )
        fit = analysis.decay_bound_check(p, n_max=500)
        good = gamma > 1 and max(ineqs) <= 1 and fit.stabilized()
        ok = ok and good
        details.append(f"p={p}: gamma={gamma:.4f} ratio={fit.stabilization_ratio:.4f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    record_criterion("C05 middle-range decay", ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok


def test_criterion_06_unbiased_decay_as_stated():
    """Stated parameters: eps = 0.05, alpha = 1.03, K over N <= 1000.

    The affine-decay clause holds, but the stated (eps, alpha) pair fails
    its own feasibility inequality: the second component equals
    1.03^(-3.2) + 1.03^(3.1) = 2.0057 > 2 (the pair only satisfies the
    first component, 1.03^6.2 = 1.20).  The criterion is therefore
    implemented faithfully and left red; see the fit at feasible
    parameters in test_analysis.py for the substance.
    """
    slope, r2 = analysis.g0_exponential_fit(50, 1000)
    affine_ok = slope < 0 and r2 >= 0.99
    c1, c2 = analysis.unbiased_alpha_components(0.05, 1.03)
    inequality_ok = max(c1, c2) <= 2.0
    try:
        fit = analysis.unbiased_decay_check(1000, 0.05, 1.03)
        k_ok = fit.stabilized()
        k_detail = f"K ratio {fit.stabilization_ratio:.4f}"
    except DomainError as exc:
        k_ok = False
        k_detail = f"K fit blocked: {exc}"
    ok = affine_ok and inequality_ok and k_ok
    record_criterion(
        "C06 unbiased decay (stated params)",
        ok,
        f"affine log g0: slope={slope:.4f} R2={r2:.4f}; "
        f"inequality components ({c1:.4f}, {c2:.4f}); {k_detail}",
    )
    assert affine_ok, "affine-decay clause failed"
    assert inequality_ok, (
        f"stated (eps=0.05, alpha=1.03) violates the feasibility inequality: "
        f"max({c1:.6f}, {c2:.6f}) > 2; feasible nearby pairs include "
        f"(0.05, 1.008) and (0.19+, 1.03)"
    )
    assert k_ok


def test_criterion_07_moment_scaling():
    # per k, the top window [2000, 4000] against the disjoint [1000, 2000)
    report = analysis.moment_scaling_check(n_max=4000, n_min=50)
    ok = all(map(math.isfinite, report.sup_full)) and all(report.bounded_trend)
    details = [
        f"k={k}: sup={full:.3f} prev={prev:.3f} top={top:.3f}"
        for k, full, prev, top in zip(
            (1, 2, 3), report.sup_full, report.sup_previous_window, report.sup_top_window
        )
    ]
    record_criterion("C07 moment scaling", ok, "; ".join(details))
    assert ok


def test_criterion_08_cumulative_variance_band():
    report = analysis.second_moment_sum_check(l_max=10_000)
    var_sum = np.zeros(10_001)
    for rec_n, row in dp.r1_rows(10_000, 0.5):
        x = np.arange(rec_n) / rec_n
        mean = float(np.dot(x, row))
        var_sum[rec_n] = float(np.dot((x - mean) ** 2, row))
    b2 = np.cumsum(var_sum)
    grid = np.unique(np.append(np.geomspace(100, 10_000, 25).astype(int), 10_000))
    ratios = b2[grid] / np.log(grid)
    band_ok = float(ratios.max() / ratios.min()) <= 2.0
    tail_ok = report.e1sq_tail_beyond_100 < 1e-6
    ok = band_ok and tail_ok
    record_criterion(
        "C08 B_L^2 / ln L band",
        ok,
        f"band factor {ratios.max() / ratios.min():.3f} <= 2, "
        f"sum E1^2 tail {report.e1sq_tail_beyond_100:.2e} < 1e-6",
    )
    assert band_ok
    assert tail_ok


def test_criterion_09_central_limit_theorem():
    start = time.monotonic()
    report = analysis.clt_experiment(l_max=10_000, trials=10_000, seed=20240811)
    elapsed = time.monotonic() - start
    ks_ok = report.ks_distance <= 0.05
    lyap_ok = report.lyapunov_ratio[-1] < report.lyapunov_ratio[0]
    ok = ks_ok and lyap_ok and elapsed < 600.0
    record_criterion(
        "C09 central limit theorem",
        ok,
        f"KS (Lyapunov centering) {report.ks_distance:.4f} <= 0.05; "
        f"midpoint centering {report.ks_distance_midpoint:.4f} "
        f"(mean shift {report.mean_shift:.3f}); Lyapunov ratio "
        f"{report.lyapunov_ratio[0]:.4f} -> {report.lyapunov_ratio[-1]:.4f}; "
        f"{elapsed:.0f}s",
    )
    assert ks_ok
    assert lyap_ok
    assert elapsed < 600.0


def test_criterion_10_appendix_reproduction(tmp_path):
    code = main(["--out", str(tmp_path), "figure", "r1", "--n", "2000",
                 "--p-grid", "0,0.4,0.6,1"])
    assert code == 0
    code = main(["--out", str(tmp_path), "figure", "r2", "--n", "2000",
                 "--p-grid", "0.4,0.5"])
    assert code == 0

    def load(name):
        return np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 1]

    def window_mass(probs, width):
        n = len(probs)
        return probs[math.ceil((0.5 - width) * n): math.floor((0.5 + width) * n) + 1].sum()

    # concentration thresholds pilot-calibrated at N=2000 (exact DP values
    # 0.9341 / 0.7812 in the +-0.05 window; 0.99 is reached by +-0.12)
    p04, p06 = load("fig_r1_n2000_p0.4.csv"), load("fig_r1_n2000_p0.6.csv")
    conc_ok = (
        window_mass(p04, 0.05) >= 0.93
        and window_mass(p06, 0.05) >= 0.78
        and window_mass(p04, 0.12) >= 0.99
        and window_mass(p06, 0.12) >= 0.99
    )
    point_ok = load("fig_r1_n2000_p1.csv").max() == 1.0
    p0 = load("fig_r1_n2000_p0.csv")
    survivor_p0 = int(np.argmax(p0))
    p0_ok = p0.max() == 1.0 and abs(survivor_p0 / 2000 - 0.5) <= 2 / 2000
    r2_ok = True
    for p in (0.4, 0.5):
        probs = load(f"fig_r2_n2000_p{p:g}.csv")
        r2_ok = r2_ok and abs(int(np.argmax(probs)) - (3 * p - 1) * 2000) <= 0.03 * 2000
    ok = conc_ok and point_ok and p0_ok and r2_ok
    record_criterion(
        "C10 appendix reproduction",
        ok,
        f"r1 mass(+-0.05): p0.4={window_mass(p04, 0.05):.4f}, "
        f"p0.6={window_mass(p06, 0.05):.4f}; mass(+-0.12) >= 0.99: "
        f"{window_mass(p04, 0.12) >= 0.99 and window_mass(p06, 0.12) >= 0.99}; "
        f"p=0 survivor {survivor_p0}; r2 argmax ok: {r2_ok}",
    )
    assert conc_ok and point_ok and p0_ok and r2_ok


def test_criterion_11_reproducibility(tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    for out in (run_a, run_b):
        assert main(["--out", str(out), "--seed", "99", "figure", "r1", "--n", "300",
                     "--p-grid", "0.3,0.5"]) == 0
        assert main(["--out", str(out), "--seed", "99", "simulate", "--rule", "r1",
                     "--n", "100", "--p", "0.5", "--samples", "2000"]) == 0
    exact_ok = all(
        (run_a / f).read_bytes() == (run_b / f).read_bytes()
        for f in ("fig_r1_n300_p0.3.csv", "fig_r1_n300_p0.5.csv")
    )
    mc_name = "simulate_r1_n100_s2000_seed99.csv"
    mc_ok = (run_a / mc_name).read_bytes() == (run_b / mc_name).read_bytes()
    ok = exact_ok and mc_ok
    record_criterion(
        "C11 reproducibility",
        ok,
        f"exact byte-identical: {exact_ok}, Monte Carlo counts identical: {mc_ok}",
    )
    assert exact_ok
    assert mc_ok


def test_supplement_deterministic_sample_matches_survivors():
    # spot confirmation that seeded simulation, DP endpoint and the closed
    # form all name the same survivor
    for n in (41, 100, 2000):
        expected = deterministic.survivor_closed_form(n) - 1
        assert sample_survivor(RuleSpec.deterministic(), n, seed=1) == expected
        assert dp.r1_distribution(n, 1.0).probs[expected] == 1.0
    assert deterministic.survivor_closed_form(2000) - 1 == 1952


def test_supplement_unbiased_decay_substance_at_feasible_params():
    # the substance criterion C06 aims at, run where the inequality holds
    fit = analysis.unbiased_decay_check(1000, 0.05, 1.008)
    assert fit.stabilized()
    assert fit.max_violation <= 0.0
