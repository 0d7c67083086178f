"""Functionals, decay bounds, moment scaling, and the CLT harness."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from josephus import analysis, dp, prng, simulate
from josephus.errors import DomainError
from josephus.rules import RuleSpec


def test_expectation_of_constant_one():
    dist = dp.r1_distribution(37, 0.3)
    assert analysis.expectation_functional(dist, lambda x: np.ones_like(x)) == pytest.approx(1.0)


def test_expectation_phi1_equals_half_g0_unbiased():
    for n in (3, 10, 257, 1000):
        dist = dp.r1_distribution(n, 0.5)
        e1 = analysis.expectation_functional(dist, analysis.phi_k(1))
        assert abs(e1 - dist.probs[0] / 2) < 1e-12


def test_expectation_minus_cosine_base_case():
    dist = dp.r1_distribution(3, 0.5)
    value = analysis.expectation_functional(dist, lambda x: -np.cos(2 * np.pi * x))
    assert value == pytest.approx(0.5, abs=1e-12)


@given(
    n=st.integers(min_value=3, max_value=80),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    a=st.floats(min_value=-3.0, max_value=3.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_expectation_bounded_by_sup_norm(n, p, a, b):
    dist = dp.r1_distribution(n, p)

    def phi(x):
        return a * np.sin(2 * np.pi * x) + b * np.cos(4 * np.pi * x)

    sup = np.abs(phi(np.linspace(0, 1, 4097))).max()
    assert abs(analysis.expectation_functional(dist, phi)) <= sup + 1e-12


def test_moment_examples():
    dist = dp.r1_distribution(3, 0.5)
    m2 = analysis.expectation_functional(dist, analysis.phi_k(2))
    assert m2 == pytest.approx(1 / 36, abs=1e-15)
    for n, p in ((10, 0.2), (55, 0.8)):
        m2 = analysis.expectation_functional(dp.r1_distribution(n, p), analysis.phi_k(2))
        assert 0.0 <= m2 <= 0.25


def test_eta_small_n():
    assert analysis.eta(dp.r1_distribution(3, 0.3)) == pytest.approx(0.7)
    assert analysis.eta(dp.r1_distribution(4, 0.5)) == pytest.approx(0.5)


def test_eta_decays_in_the_middle_range():
    for p in (0.4, 0.5, 0.6):
        e100 = analysis.eta(dp.r1_distribution(100, p))
        e200 = analysis.eta(dp.r1_distribution(200, p))
        assert e200 < e100


def test_decay_params_feasible_midpoint():
    beta, gamma = analysis.decay_params_feasible(0.5)
    assert beta > 1 and gamma > 1
    p = 0.5
    assert p * beta**2 * gamma**2 <= 1
    assert (1 - p) * beta * gamma <= 1
    assert gamma * (p * beta + (1 - p) / beta**2) <= 1
    assert gamma * ((1 - p) * beta + p / beta**2) <= 1


def test_decay_params_shrink_toward_interval_edge():
    _, gamma_mid = analysis.decay_params_feasible(0.5)
    _, gamma_near = analysis.decay_params_feasible(0.338)
    assert 1 < gamma_near < gamma_mid
    assert gamma_near < 1.01


def test_decay_params_outside_middle_range_rejected():
    for p in (0.2, 1 / 3, 2 / 3, 0.9):
        with pytest.raises(DomainError):
            analysis.decay_params_feasible(p)


def test_decay_params_deterministic():
    assert analysis.decay_params_feasible(0.45) == analysis.decay_params_feasible(0.45)


@pytest.mark.parametrize("p", [0.4, 0.5, 0.6, 0.34])
def test_decay_bound_fit_stabilizes(p):
    fit = analysis.decay_bound_check(p, n_max=400)
    assert math.isfinite(fit.k_fit)
    assert fit.k >= 1.0
    assert fit.max_violation <= 0.0
    assert fit.stabilized()


def test_unbiased_alpha_inequality_components():
    # small alpha passes; the stated pair (0.05, 1.03) genuinely fails the
    # second component, and alpha=1.2 fails the first
    assert max(analysis.unbiased_alpha_components(0.05, 1.008)) <= 2.0
    assert max(analysis.unbiased_alpha_components(0.25, 1.03)) <= 2.0
    c1, c2 = analysis.unbiased_alpha_components(0.05, 1.03)
    assert c1 <= 2.0 < c2
    c1, _ = analysis.unbiased_alpha_components(0.05, 1.2)
    assert c1 > 2.0


def test_verify_unbiased_alpha_names_the_violation():
    with pytest.raises(DomainError, match=r"alpha\^\(2\+4\(1\+eps\)\)"):
        analysis.verify_unbiased_alpha(0.05, 1.2)
    with pytest.raises(DomainError, match=r"alpha\^\(1-4\(1\+eps\)\)"):
        analysis.verify_unbiased_alpha(0.05, 1.03)


@pytest.mark.parametrize("eps,alpha", [(0.05, 1.008), (0.25, 1.03)])
def test_unbiased_decay_fit(eps, alpha):
    fit = analysis.unbiased_decay_check(500, eps, alpha)
    assert math.isfinite(fit.k_fit)
    assert fit.stabilized()
    assert fit.max_violation <= 0.0
    assert fit.gamma == alpha


def test_unbiased_decay_rejects_infeasible_alpha():
    with pytest.raises(DomainError):
        analysis.unbiased_decay_check(100, 0.05, 1.2)


def test_unbiased_decay_bound_holds_pointwise():
    # spot-check the fitted bound including the n=0 column g_N(0) <= K alpha^-N
    eps, alpha = 0.05, 1.008
    fit = analysis.unbiased_decay_check(300, eps, alpha)
    for n, row in dp.r1_rows(300, 0.5):
        bound = fit.k * alpha ** (2 * (1 + eps) * np.minimum(np.arange(n), n - np.arange(n)) - n)
        assert np.all(row <= bound * (1 + 1e-9))


@pytest.mark.parametrize("n_max", [400, 401])
def test_decay_fits_match_an_inline_sup(n_max):
    # k_fit, k_fit_half and max_violation against a sup over the whole
    # triangle with the same per-entry log-slack
    beta, gamma = analysis.decay_params_feasible(0.45)
    rate = 2.0 * (1.0 + 0.05)
    tops_p, tops_u = {}, {}
    for n, row in dp.r1_rows(n_max, 0.45):
        idx = np.arange(n)
        dist = np.minimum(idx, n - idx)
        with np.errstate(divide="ignore"):
            vals = np.log(row) + n * math.log(gamma) - dist * math.log(beta)
        tops_p[n] = float(vals.max())
    for n, row in dp.r1_rows(n_max, 0.5):
        half_row = row[: n // 2 + 1]
        j = np.arange(len(half_row))
        with np.errstate(divide="ignore"):
            vals = np.log(half_row) + (n - rate * j) * math.log(1.008)
        tops_u[n] = float(vals.max())
    fits = (
        (analysis.decay_bound_check(0.45, n_max), tops_p),
        (analysis.unbiased_decay_check(n_max, 0.05, 1.008), tops_u),
    )
    for fit, tops in fits:
        sup_full = max(tops.values())
        sup_half = max(top for n, top in tops.items() if n <= n_max // 2)
        assert fit.k_fit == math.exp(sup_full)
        assert fit.k_fit_half == math.exp(sup_half)
        assert fit.max_violation == sup_full - math.log(max(math.exp(sup_full), 1.0))


@pytest.mark.parametrize("n_max", [400, 401])
def test_fit_constant_half_window_is_floor_half(n_max):
    # the decay sups above are attained at N = 3 or 4, so pin the
    # half-window N <= n_max // 2 with a log-slack that grows with N
    slack = ((n, np.array([-1.0, n / 100.0])) for n in range(3, n_max + 1))
    fit = analysis._fit_constant(slack, n_max, beta=2.0, gamma=2.0)
    assert fit.k_fit == math.exp(n_max / 100.0)
    assert fit.k_fit_half == math.exp((n_max // 2) / 100.0)
    assert fit.max_violation == 0.0


def test_g0_exponential_fit():
    slope, r2 = analysis.g0_exponential_fit(50, 800)
    assert slope < -0.01
    assert r2 >= 0.99


def test_decay_fits_need_a_nonempty_half_range():
    with pytest.raises(DomainError, match="n_max must be >= 6"):
        analysis.decay_bound_check(0.5, n_max=5)
    with pytest.raises(DomainError, match="n_max must be >= 6"):
        analysis.unbiased_decay_check(5)
    assert analysis.decay_bound_check(0.5, n_max=6).k_fit_half > 0


def test_g0_exponential_fit_needs_two_points():
    with pytest.raises(DomainError, match=r"\[50, 40\]"):
        analysis.g0_exponential_fit(50, 40)
    with pytest.raises(DomainError, match="1 usable"):
        analysis.g0_exponential_fit(50, 51)  # 51 is a structural zero


@pytest.mark.parametrize("n_min", [-1, 0, 1, 2])
def test_g0_exponential_fit_starts_at_the_base_case(n_min):
    with pytest.raises(DomainError, match="base case N=3"):
        analysis.g0_exponential_fit(n_min, 100)
    with pytest.raises(DomainError, match="base case N=3"):
        analysis.g0_exponential_fit(n_min, 100, g0=_synthetic_g0(100))
    assert analysis.g0_exponential_fit(3, 100)[0] < 0


def _synthetic_g0(n_max):
    ns = np.arange(n_max + 1)
    return np.where(ns % 3 != 0, np.exp(-0.06 * ns), 0.0)


@pytest.mark.parametrize("value", [0.0, 5e-324, 1e-310])
def test_g0_exponential_fit_refuses_underflow(value):
    g0 = _synthetic_g0(200)
    g0[151] = value
    with pytest.raises(DomainError, match="N=151"):
        analysis.g0_exponential_fit(50, 200, g0=g0)
    slope, r2 = analysis.g0_exponential_fit(50, 150, g0=g0)
    assert slope == pytest.approx(-0.06)
    assert r2 == pytest.approx(1.0)


def test_g0_exponential_fit_refuses_short_g0():
    with pytest.raises(DomainError, match="N = 0..200, got 100"):
        analysis.g0_exponential_fit(50, 200, g0=np.ones(100))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_moment_scaling_bounded(k):
    report = analysis.moment_scaling_check(n_max=1500, n_min=50)
    assert report.bounded_trend[k - 1]
    if k == 1:
        assert report.exponential_slope < -0.01
        assert report.exponential_r2 >= 0.99


@pytest.mark.parametrize("n_max", [1500, 1503])
def test_moment_scaling_windows_match_an_inline_sup(n_max):
    # the three windows' sups, recomputed from moment_report record by record
    n_min = 50
    sups = {"full": [-math.inf] * 3, "prev": [-math.inf] * 3, "top": [-math.inf] * 3}
    for rec in analysis.moment_report(RuleSpec.r1(0.5), 3, n_max):
        if rec.n < n_min:
            continue
        windows = ["full"]
        if rec.n >= n_max // 2:
            windows.append("top")
        elif rec.n >= n_max // 4:
            windows.append("prev")
        for k, moment in enumerate((rec.abs_phi1, rec.phi2, rec.abs_phi3), start=1):
            ratio = moment / (math.log(rec.n) / rec.n) ** (k / 2.0)
            for window in windows:
                sups[window][k - 1] = max(sups[window][k - 1], ratio)
    report = analysis.moment_scaling_check(n_max=n_max, n_min=n_min)
    assert report.sup_full == tuple(sups["full"])
    assert report.sup_previous_window == tuple(sups["prev"])
    assert report.sup_top_window == tuple(sups["top"])
    assert report.bounded_trend == tuple(t <= p for t, p in zip(sups["top"], sups["prev"]))


def test_second_moment_sum_band():
    report = analysis.second_moment_sum_check(l_max=3000)
    assert np.all(np.diff(report.s_values) > 0)
    assert report.factor_band <= 2.0
    assert report.top_octaves_band[1] / report.top_octaves_band[0] <= 1.25
    assert report.e1sq_tail_beyond_100 < 1e-6
    assert report.b2_identity_error < 1e-9


def test_clt_experiment_small_scale():
    report = analysis.clt_experiment(l_max=600, trials=2000, seed=7)
    assert np.all(np.diff(report.b_l) > 0)
    assert np.all(report.lyapunov_ratio >= 0)
    assert report.lyapunov_ratio[-1] < report.lyapunov_ratio[0]
    assert len(report.normalized_sums) == 2000
    # centered sums should already look quite normal at this scale
    assert report.ks_distance < 0.08
    assert abs(float(np.std(report.normalized_sums)) - 1.0) < 0.1


def test_clt_is_seed_reproducible():
    a = analysis.clt_experiment(l_max=150, trials=1000, seed=3)
    b = analysis.clt_experiment(l_max=150, trials=1000, seed=3)
    assert np.array_equal(a.normalized_sums, b.normalized_sums)
    assert a.ks_distance == b.ks_distance


@st.composite
def _cdf_and_uniforms(draw):
    n = draw(st.one_of(st.just(3), st.integers(min_value=1, max_value=300)))
    shape = draw(st.sampled_from(["point mass", "uniform", "random"]))
    if shape == "point mass":
        weights = np.zeros(n)
        weights[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    elif shape == "uniform":
        weights = np.ones(n)
    else:
        weights = np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=n, max_size=n,
        )))
        if weights.sum() == 0.0:
            weights[-1] = 1.0
    # the last CDF entry lands just below, at, or just above 1
    scale = draw(st.sampled_from([1.0, 1.0 - 2.0**-52, 1.0 + 2.0**-52]))
    cdf = np.cumsum(weights / weights.sum() * scale)
    k = 1 << (n - 1).bit_length()
    # bucket edges j/K, the grid j/N, CDF entries, and their float neighbours
    js = np.array(draw(st.lists(st.integers(min_value=0, max_value=k - 1))), dtype=float)
    edges = np.concatenate([js / k, js / n, cdf[cdf < 1.0]])
    at_edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    grid = [j * 2.0**-53 for j in draw(st.lists(st.integers(min_value=0, max_value=2**53 - 1)))]
    free = draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], at_edges, grid, free])
    return cdf, u[(u >= 0.0) & (u < 1.0)]


@given(_cdf_and_uniforms())
@settings(max_examples=200, deadline=None)
def test_inverse_cdf_matches_binary_search(case):
    cdf, u = case
    expected = np.searchsorted(cdf, u, side="right")
    assert np.array_equal(simulate._inverse_cdf(cdf, u), expected)


@pytest.mark.parametrize("rows", [
    lambda: dp.r1_rows(300, 0.5),
    lambda: dp.r1_rows(300, 0.0),
    lambda: dp.r1_rows(300, 1.0),
    lambda: dp.r2_rows(300, 0.3),
    lambda: dp.r3_rows(200, 0.5, 0.75),
    lambda: ((n, np.full(n, 1.0 / n)) for n in range(3, 300)),
])
def test_inverse_cdf_matches_binary_search_on_rows(rows):
    for n, row in rows():
        cdf = np.cumsum(row)
        # just below j/N a bucket count of N would round u*N up to j
        k = 1 << (n - 1).bit_length()
        edges = np.concatenate([np.arange(n) / n, np.arange(k) / k])
        u = np.concatenate([
            prng.stream(11, n).random(500), edges, np.nextafter(edges, 0.0)
        ])
        u = u[u >= 0.0]
        assert np.array_equal(
            simulate._inverse_cdf(cdf, u), np.searchsorted(cdf, u, side="right")
        ), n


def test_clt_sums_match_binary_search_reference():
    report = analysis.clt_experiment(l_max=300, trials=1000, seed=5)
    sums = np.zeros(1000)
    cum_v = 0.0
    for n, row in dp.r1_rows(300, 0.5):
        x = np.arange(n) / n
        mean = float(np.dot(x, row))
        centered = x - mean
        cum_v += float(np.dot(centered * centered, row))
        u = prng.stream(5, n).random(1000)
        draws = np.clip(np.searchsorted(np.cumsum(row), u, side="right"), 0, n - 1)
        sums += draws / n - mean
    assert np.array_equal(report.normalized_sums, sums / math.sqrt(cum_v))


def _clt_numpy_sums(l_max, trials, seed):
    # the numpy draw pass: prng streams, binary search, clip, then both sums
    centered, mid = np.zeros(trials), np.zeros(trials)
    cum_v = 0.0
    for n, row in dp.r1_rows(l_max, 0.5):
        x = np.arange(n) / n
        mean = float(np.dot(x, row))
        dev = x - mean
        cum_v += float(np.dot(dev * dev, row))
        u = prng.stream(seed, n).random(trials)
        positions = np.clip(np.searchsorted(np.cumsum(row), u, side="right"), 0, n - 1) / n
        centered += positions - mean
        mid += positions - 0.5
    b = math.sqrt(cum_v)
    return centered / b, mid / b


@pytest.mark.parametrize("trials", [1001, 1003])
def test_clt_kernel_sums_match_numpy_reference(trials):
    # 1001 and 1003 trials end in a partial Philox block; -1 and 2^64-1 are one seed
    reports = [analysis.clt_experiment(200, trials, seed) for seed in (-1, 2**64 - 1)]
    centered, mid = _clt_numpy_sums(200, trials, -1)
    for report in reports:
        assert np.array_equal(report.normalized_sums, centered)
        assert np.array_equal(report.normalized_sums_midpoint, mid)
    for field in dataclasses.fields(analysis.CltReport):
        assert np.array_equal(getattr(reports[0], field.name), getattr(reports[1], field.name))


@pytest.mark.parametrize("cdf, clips", [
    (np.array([0.25, 0.5, 0.75, 1.0 - 2.0**-52]), False),
    (np.array([0.0, 0.0, 1.0, 1.0, 1.0]), False),
    # a CDF ending at 1/2: about half the draws land past the last label
    (np.array([0.1, 0.2, 0.2, 0.5]), True),
], ids=["last_below_one", "point_mass", "defective"])
def test_clt_kernel_pass_clips_to_last_label(cdf, clips):
    n, trials, seed, mean = len(cdf), 1003, 3, 0.3
    rng = np.random.default_rng(0)
    centered, mid = rng.random(trials), rng.random(trials)
    draws = np.searchsorted(cdf, prng.stream(seed, n).random(trials), side="right")
    assert (draws == n).any() == clips
    x = np.clip(draws, 0, n - 1) / n
    expected = centered + (x - mean), mid + (x - 0.5)
    simulate._clt_draws(seed, cdf, mean, centered, mid)
    assert np.array_equal(centered, expected[0])
    assert np.array_equal(mid, expected[1])


def test_clt_moments_match_moment_report():
    # the inline CLT reduction gives the same V_N and W_N as _row_record
    report = analysis.clt_experiment(300, 1000, 5)
    cum_v = cum_w = 0.0
    b_at, lyap_at = {}, {}
    for rec in analysis.moment_report(RuleSpec.r1(0.5), 3, 300):
        cum_v += rec.variance
        cum_w += rec.third_central
        b_at[rec.n] = math.sqrt(cum_v)
        lyap_at[rec.n] = cum_w / b_at[rec.n] ** 3
    assert report.b_l.tolist() == [b_at[int(n)] for n in report.l_values]
    assert report.lyapunov_ratio.tolist() == [lyap_at[int(n)] for n in report.l_values]


def test_clt_rejects_small_ensembles():
    with pytest.raises(DomainError):
        analysis.clt_experiment(l_max=100, trials=100, seed=0)


def test_psi_nonnegative_and_expectation_shrinks():
    xs = np.linspace(0, 1, 10001)
    assert np.all(analysis.psi(xs) >= -1e-12)
    for p in (0.2, 0.5, 0.8):
        e400 = analysis.expectation_functional(dp.r1_distribution(400, p), analysis.psi)
        e4000 = analysis.expectation_functional(dp.r1_distribution(4000, p), analysis.psi)
        assert e4000 < e400


def test_odd_function_expectation_decays():
    # |E[sin(2 pi x)]| decays like 1/N; fitted log-log slope windows were
    # pinned from a pilot run (p=0.8 reaches its asymptotic slope later)
    def fit_slope(p, lo, hi):
        ns, vals = [], []
        for n, row in dp.r1_rows(hi, p):
            if n >= lo and n % 20 == 0:
                x = np.arange(n) / n
                ns.append(n)
                vals.append(abs(float(np.dot(np.sin(2 * np.pi * x), row))))
        return np.polyfit(np.log(ns), np.log(vals), 1)[0]

    assert fit_slope(0.2, 100, 4000) <= -0.9
    assert fit_slope(0.8, 1000, 8000) <= -0.9
    # unbiased case: exact mirror symmetry kills the expectation entirely
    dist = dp.r1_distribution(500, 0.5)
    assert abs(analysis.expectation_functional(dist, lambda x: np.sin(2 * np.pi * x))) < 1e-14


def test_concentration_and_near_masses():
    dist = dp.r1_distribution(500, 0.5)
    full = analysis.concentration_mass(dist, 0.5)
    assert full == pytest.approx(1.0, abs=1e-12)
    near_zero, near_half = analysis.near_masses(dist, 0.02)
    assert 0.0 <= near_zero <= 1.0
    assert near_zero + near_half <= 1.0 + 1e-12


def test_midpoint_concentration_at_figure_scale():
    # pilot-calibrated window: +-0.12 captures 99% at N=2000 across the
    # middle-range parameters
    for p in (0.4, 0.5, 0.6):
        dist = dp.r1_distribution(2000, p)
        assert analysis.concentration_mass(dist, 0.12) >= 0.99


def test_r2_argmax_tracks_limit_constant():
    for p in (0.4, 0.45, 0.5, 0.55, 0.6):
        probs = dp.r2_distribution(2000, p).probs
        assert abs(int(np.argmax(probs)) - (3 * p - 1) * 2000) <= 0.03 * 2000


def test_variance_identity():
    for rule, n in ((RuleSpec.r1(0.5), 700), (RuleSpec.r2(0.35), 300)):
        rec = analysis.moment_report(rule, n, n)[-1]
        assert abs(rec.variance - (rec.phi2 - rec.phi1**2)) < 1e-12


def test_moment_report_records():
    records = analysis.moment_report(RuleSpec.r1(0.5), 3, 40)
    assert records[0].n == 3
    assert records[-1].n == 40
    rec = records[0]
    assert rec.phi2 == pytest.approx(1 / 36, abs=1e-15)
    assert rec.g0 == 0.0
