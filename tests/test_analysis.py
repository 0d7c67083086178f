"""Functionals, decay bounds, moment scaling, and the CLT harness."""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from stream_reference import stream

from josephus import analysis, dp, simulate
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
    assert fit.failures(400) == []


def test_decay_failures_name_the_growth_and_both_ranges():
    fit = analysis.DecayBoundFit(beta=1.1, gamma=1.05, k=1.0, k_fit=1.0, k_fit_half=1.0,
                                 max_violation=0.0)
    assert fit.failures(7) == []
    assert dataclasses.replace(fit, k_fit=1.05).failures(7) == []  # 5% is still stable
    assert dataclasses.replace(fit, k_fit=1.0625).failures(7) == [
        "fitted K grew by 6.25% between N <= 3 and N <= 7"]
    # over N <= 6 the fitted constant is still growing
    [message] = analysis.decay_bound_check(0.5, 6).failures(6)
    assert message.startswith("fitted K grew by ") and message.endswith(" and N <= 6")


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


@pytest.mark.parametrize("check", [analysis.verify_unbiased_alpha,
                                   functools.partial(analysis.unbiased_decay_check, 100)],
                         ids=["verify", "decay-check"])
@pytest.mark.parametrize("eps, alpha, named", [
    (math.nan, 1.008, "epsilon must be finite, got nan"),
    (math.inf, 1.008, "epsilon must be finite, got inf"),
    (0.05, math.nan, "alpha must exceed 1, got nan"),
    (0.05, 1.0, "alpha must exceed 1, got 1.0"),
], ids=["eps-nan", "eps-inf", "alpha-nan", "alpha-1"])
def test_unbiased_decay_domain_is_refused_before_any_dp_row(check, eps, alpha, named,
                                                            monkeypatch):
    def no_rows(*args):
        raise AssertionError("a refused check built a DP row")

    monkeypatch.setattr(analysis.dp, "r1_rows", no_rows)
    with pytest.raises(DomainError, match=f"^{re.escape(named)}$"):
        check(eps, alpha)


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
    fit = analysis._fit_constant(n_max, 0.5, beta=2.0, gamma=2.0,
                                 log_slack=lambda n, row: np.array([-1.0, n / 100.0]))
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
    assert analysis.g0_exponential_fit(3, 100)[0] < 0


@pytest.mark.parametrize("value", [0.0, 5e-324, 1e-310])
def test_g0_exponential_fit_refuses_underflow(value, monkeypatch):
    # plant an exact zero or a subnormal g_N(0) at N = 151 (151 % 3 != 0)
    real_rows = dp.r1_rows

    def planted_rows(n_max, p):
        for n, row in real_rows(n_max, p):
            if n == 151:
                row = row.copy()
                row[0] = value
            yield n, row

    expected = analysis.g0_exponential_fit(50, 150)
    monkeypatch.setattr(analysis.dp, "r1_rows", planted_rows)
    with pytest.raises(DomainError, match="N=151"):
        analysis.g0_exponential_fit(50, 200)
    assert analysis.g0_exponential_fit(50, 150) == expected


def test_g0_exponential_fit_refuses_the_first_subnormal_row():
    # g_N(0) is first subnormal at N = 12,305; at N = 12,304 only entries
    # 1 and N-1 are, so the g0 fit still runs where the decay fits refuse
    with pytest.raises(DomainError, match=r"N=12305 in the fit window \[100, 12305\]"):
        analysis.g0_exponential_fit(100, 12_305)
    slope, r2 = analysis.g0_exponential_fit(100, 12_304)
    assert slope < -0.05
    assert r2 >= 0.99


def test_decay_fit_refuses_a_window_with_subnormal_entries():
    # at p = 0.4 the first row holding a subnormal entry is N = 8,302
    with pytest.raises(DomainError, match="N=8302"):
        analysis.decay_bound_check(0.4, 8400)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_moment_scaling_bounded(k):
    report = analysis.moment_scaling_check(n_max=1500, n_min=50)
    assert report.bounded_trend[k - 1]
    if k == 1:
        assert report.exponential_slope < -0.01
        assert report.exponential_r2 >= 0.99


@pytest.mark.parametrize("n_max", [1500, 1503])
def test_moment_scaling_windows_match_an_inline_sup(n_max):
    # the three windows' sups, recomputed from moment_report's columns N by N
    n_min = 50
    sups = {"full": [-math.inf] * 3, "prev": [-math.inf] * 3, "top": [-math.inf] * 3}
    table = analysis.moment_report(RuleSpec.r1(0.5), 3, n_max)
    columns = (table.n, table.abs_phi1, table.phi2, table.abs_phi3)
    for n, *moments in zip(*(c.tolist() for c in columns)):
        if n < n_min:
            continue
        windows = ["full"]
        if n >= n_max // 2:
            windows.append("top")
        elif n >= n_max // 4:
            windows.append("prev")
        for k, moment in enumerate(moments, start=1):
            ratio = moment / (math.log(n) / n) ** (k / 2.0)
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
            stream(11, n).random(500), edges, np.nextafter(edges, 0.0)
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
        u = stream(5, n).random(1000)
        draws = np.clip(np.searchsorted(np.cumsum(row), u, side="right"), 0, n - 1)
        sums += draws / n - mean
    assert np.array_equal(report.normalized_sums, sums / math.sqrt(cum_v))


def _clt_numpy_sums(l_max, trials, seed):
    # the numpy draw pass: reference streams, binary search, clip, then both sums
    centered, mid = np.zeros(trials), np.zeros(trials)
    cum_v = 0.0
    for n, row in dp.r1_rows(l_max, 0.5):
        x = np.arange(n) / n
        mean = float(np.dot(x, row))
        dev = x - mean
        cum_v += float(np.dot(dev * dev, row))
        u = stream(seed, n).random(trials)
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


@pytest.mark.parametrize("row, clips", [
    (np.array([0.25, 0.25, 0.25, 0.25 - 2.0**-52]), False),
    (np.array([0.0, 0.0, 1.0, 0.0, 0.0]), False),
    # a row summing to 1/2: about half the draws land past the last label
    (np.array([0.1, 0.1, 0.0, 0.3]), True),
], ids=["last_below_one", "point_mass", "defective"])
def test_clt_kernel_pass_clips_to_last_label(row, clips):
    # the draws add to the caller's sums, here nonzero, as numpy's += rounds them
    n, trials, seed, mean = len(row), 1003, 3, 0.3
    rng = np.random.default_rng(0)
    centered, mid = rng.random(trials), rng.random(trials)
    draws = np.searchsorted(np.cumsum(row), stream(seed, n).random(trials), side="right")
    assert (draws == n).any() == clips
    x = np.clip(draws, 0, n - 1) / n
    expected = centered + (x - mean), mid + (x - 0.5)
    simulate._clt_sums(seed, 8, [(row, mean)], centered, mid)
    assert np.array_equal(centered, expected[0])
    assert np.array_equal(mid, expected[1])


@pytest.mark.parametrize("l_max, rows", [
    (3000, lambda: dp.r1_rows(3000, 0.5)),
    (500, lambda: dp.r3_rows(500, 0.4, 0.75)),
    (4, lambda: [(4, np.array([0.1, 0.1, 0.0, 0.3]))]),
], ids=["r1_unbiased", "r3", "defective"])
def test_clt_kernel_cdf_is_the_numpy_prefix_sum(l_max, rows):
    # C sums each row in order, as np.cumsum does, into the CDF scratch
    trials = 1000
    cdf = np.empty(l_max)
    scratch = (cdf, simulate._guide(l_max), np.empty(trials), np.empty(trials, dtype=np.int64),
               np.zeros(trials), np.zeros(trials))
    for n, row in rows():
        ns, pointers = np.array([n], dtype=np.int64), np.array([row.ctypes.data], dtype=np.uintp)
        means = np.array([0.5])
        simulate._kernel().josephus_clt_batch(7, 1, ns.ctypes.data, pointers.ctypes.data,
                                              means.ctypes.data, 0, trials,
                                              *[a.ctypes.data for a in scratch])
        assert np.cumsum(row).tobytes() == cdf[:n].tobytes(), n


@pytest.mark.parametrize("l_max", [10, 300, 1000])
def test_clt_moments_match_moment_report(l_max):
    # B_L, the Lyapunov ratio and the mean shift are running sums, in order of
    # N, of moment_report's V_N, W_N and 1/2 - mean, bit for bit; l_max = 10
    # starts the grid at 3, the others at 100
    report = analysis.clt_experiment(l_max, 1000, 5)
    cum_v = cum_w = e1_sum = 0.0
    b_at, lyap_at = {}, {}
    table = analysis.moment_report(RuleSpec.r1(0.5), 3, l_max)
    columns = (table.n, table.variance, table.third_central, table.mean)
    for n, variance, third, mean in zip(*(c.tolist() for c in columns)):
        cum_v += variance
        cum_w += third
        e1_sum += 0.5 - mean
        b_at[n] = math.sqrt(cum_v)
        lyap_at[n] = cum_w / b_at[n] ** 3
    assert report.b_l.tolist() == [b_at[int(n)] for n in report.l_values]
    assert report.lyapunov_ratio.tolist() == [lyap_at[int(n)] for n in report.l_values]
    assert report.mean_shift == e1_sum / b_at[l_max]


@pytest.mark.parametrize("l_max, trials, seed", [
    (300, 1001, 5), (1000, 1003, 2**64 - 1), (4000, 10**4, 0),
])
def test_clt_ensemble_within_the_berry_esseen_bound(l_max, trials, seed):
    # Berry-Esseen for independent summands (C0 <= 0.56, Shevtsova 2010) bounds
    # the KS distance of S_L/B_L by 0.56 * Lyapunov ratio; the midpoint
    # centering adds at most |mean_shift|/sqrt(2 pi).  The sampled KS may
    # exceed either bound by the DKW-Massart margin at false-alarm rate 1e-6.
    report = analysis.clt_experiment(l_max, trials, seed)
    assert report.ks_distance <= report.berry_esseen_bound + report.dkw_margin
    assert report.ks_distance_midpoint <= report.midpoint_bound + report.dkw_margin
    assert report.failures() == []


@pytest.mark.parametrize("trials, margin", [(1000, 0.08517), (10**4, 0.02693)])
def test_clt_bounds_are_their_written_formulas(trials, margin):
    z = np.zeros(trials)
    report = analysis.CltReport(
        l_values=np.array([3, 10]), b_l=np.array([1.0, 2.0]),
        lyapunov_ratio=np.array([0.5, 0.25]), normalized_sums=z, ks_distance=0.0,
        mean_shift=-0.3, normalized_sums_midpoint=z, ks_distance_midpoint=0.0)
    assert report.dkw_margin == math.sqrt(math.log(2e6) / (2 * trials))
    assert report.dkw_margin == pytest.approx(margin, abs=1e-5)
    assert report.berry_esseen_bound == 0.56 * 0.25
    assert report.midpoint_bound == 0.56 * 0.25 + 0.3 / math.sqrt(2 * math.pi)


def _passing_clt_report():
    """A 1000-trial report that meets every condition: bound 0.14, midpoint bound 0.2597."""
    z = np.zeros(1000)
    return analysis.CltReport(
        l_values=np.array([3, 10]), b_l=np.array([1.0, 2.0]),
        lyapunov_ratio=np.array([0.5, 0.25]), normalized_sums=z, ks_distance=0.0,
        mean_shift=-0.3, normalized_sums_midpoint=z, ks_distance_midpoint=0.0)


_CLT_MESSAGES = {
    "b_l": "B_L is not strictly increasing",
    "lyapunov_ratio": "Lyapunov ratio did not decrease over the L grid",
    "ks_distance": "ensemble KS distance 0.5000 exceeds its Berry-Esseen bound 0.1400 "
                   "plus 0.0852",
    "ks_distance_midpoint": "ensemble midpoint KS distance 0.6000 exceeds its Berry-Esseen "
                            "bound 0.2597 plus 0.0852",
}


# each field's value that fails its condition: a trend reversed, a KS distance raised
_CLT_FAILING = {"b_l": np.array([2.0, 1.0]), "lyapunov_ratio": np.array([0.25, 0.5]),
                "ks_distance": 0.5, "ks_distance_midpoint": 0.6}


@pytest.mark.parametrize("field", list(_CLT_MESSAGES))
def test_clt_failures_name_each_failed_condition(field):
    report = _passing_clt_report()
    assert report.failures() == []
    failing = dataclasses.replace(report, **{field: _CLT_FAILING[field]})
    assert failing.failures() == [_CLT_MESSAGES[field]]


def test_clt_failures_report_every_condition_in_order():
    report = dataclasses.replace(_passing_clt_report(), **_CLT_FAILING)
    # the reversed Lyapunov ratio ends at 0.5, which doubles the Berry-Esseen bound
    assert report.failures() == [
        _CLT_MESSAGES["b_l"], _CLT_MESSAGES["lyapunov_ratio"],
        "ensemble KS distance 0.5000 exceeds its Berry-Esseen bound 0.2800 plus 0.0852",
        "ensemble midpoint KS distance 0.6000 exceeds its Berry-Esseen bound 0.3997 plus 0.0852",
    ]


@pytest.mark.parametrize("field, bound, name", [
    ("ks_distance", "berry_esseen_bound", "ensemble KS"),
    ("ks_distance_midpoint", "midpoint_bound", "ensemble midpoint KS"),
])
def test_clt_ks_may_reach_its_bound_plus_the_dkw_margin(field, bound, name):
    report = _passing_clt_report()
    limit = getattr(report, bound) + report.dkw_margin
    assert dataclasses.replace(report, **{field: limit}).failures() == []
    [message] = dataclasses.replace(report, **{field: np.nextafter(limit, 1.0)}).failures()
    assert message.startswith(f"{name} distance {limit:.4f} exceeds")


def _kstest(z) -> float:
    import scipy.stats  # the reference; the package itself never loads it
    return float(scipy.stats.kstest(z, "norm").statistic)


@pytest.mark.parametrize("l_max, trials, seed", [
    (10, 1000, 2**64 - 1), (100, 1001, 0), (300, 4096, 1), (1000, 1001, 2),
])
def test_clt_ks_distances_are_kstest_bit_for_bit(l_max, trials, seed):
    report = analysis.clt_experiment(l_max, trials, seed)
    for z, ks in ((report.normalized_sums, report.ks_distance),
                  (report.normalized_sums_midpoint, report.ks_distance_midpoint)):
        assert ks.hex() == _kstest(z).hex()


def _synthetic(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n)
    if kind == "ties":
        return np.round(z * 2.0) / 2.0
    if kind == "signed_zeros":
        z[::3], z[1::3] = 0.0, -0.0
    elif kind == "tails":  # ndtr rounds to 0 and 1 beyond |z| of about 8.3
        z *= 12.0
        z[:4] = (-40.0, 40.0, -8.3, 8.3)
    return z


@pytest.mark.parametrize("n", [1000, 1001, 4096])
@pytest.mark.parametrize("kind", ["normal", "ties", "signed_zeros", "tails"])
def test_ks_normal_is_kstest_bit_for_bit(kind, n):
    z = _synthetic(kind, n)
    assert analysis._ks_normal(z).hex() == _kstest(z).hex()


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


def test_near_half_window_without_a_position_has_mass_zero():
    # at N = 5 the window [2.4, 2.6] holds no label, though labels 2 and 3 carry mass
    dist = dp.r1_distribution(5, 0.5)
    assert analysis.near_masses(dist, 0.02)[1] == 0.0
    assert dist.probs[2] + dist.probs[3] > 0.0


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


def _point_mass(n, k):
    probs = np.zeros(n)
    probs[k] = 1.0
    return probs


def test_r2_argmax_failures_allow_three_percent_of_n():
    for p in (0.4, 0.45, 0.5):
        assert analysis.r2_argmax_failures(p, dp.r2_distribution(1000, p).probs) == []
    # (3p-1)N = 200 at p = 0.4, N = 1000, so 0.03N allows 170..230
    assert analysis.r2_argmax_failures(0.4, _point_mass(1000, 230)) == []
    assert analysis.r2_argmax_failures(0.4, _point_mass(1000, 231)) == [
        "r2 figure argmax 231 strays from (3p-1)N = 200 at p=0.4"]


@pytest.mark.parametrize("p, n, checked", [
    (0.4, 999, False), (0.4, 1000, True), (0.5, 999, False), (0.5, 1000, True),
    (0.4 - 0.9e-12, 1000, True), (0.4 - 1.1e-12, 1000, False),
    (0.5 + 0.9e-12, 1000, True), (0.5 + 1.1e-12, 1000, False),
])
def test_r2_argmax_failures_window(p, n, checked):
    # the argmax at label 0 strays from every (3p-1)N in the window; outside it, nothing is held
    failures = analysis.r2_argmax_failures(p, _point_mass(n, 0))
    expected = f"r2 figure argmax 0 strays from (3p-1)N = {(3 * p - 1) * n:.0f} at p={p}"
    assert failures == ([expected] if checked else [])


def test_variance_identity():
    for rule, n in ((RuleSpec.r1(0.5), 700), (RuleSpec.r2(0.35), 300)):
        table = analysis.moment_report(rule, n, n)
        assert abs(table.variance[-1] - (table.phi2[-1] - table.phi1[-1] ** 2)) < 1e-12


def test_moment_report_records():
    table = analysis.moment_report(RuleSpec.r1(0.5), 3, 40)
    assert table.n[0] == 3
    assert table.n[-1] == 40
    assert table.phi2[0] == pytest.approx(1 / 36, abs=1e-15)
    assert table.g0[0] == 0.0
    columns = [getattr(table, f.name) for f in dataclasses.fields(table)]
    assert [c.dtype for c in columns] == [np.int64] + [np.float64] * 9
    assert {c.shape for c in columns} == {(38,)}


@pytest.mark.parametrize("make", [
    lambda: analysis.moment_report(RuleSpec.r1(0.5), 3, 10),
    lambda: analysis.second_moment_sum_check(100),
    lambda: analysis.clt_experiment(10, 1000, 0),
], ids=["MomentTable", "SecondMomentSumReport", "CltReport"])
def test_array_reports_compare_by_identity(make):
    # a generated __eq__ would compare the array fields and raise ValueError
    a, b = make(), make()
    assert (a == b, a != b, a == a) == (False, True, True)


def test_moment_table_columns_are_read_only():
    table = analysis.moment_report(RuleSpec.r3(0.4, 0.75), 5, 9)
    for field in dataclasses.fields(table):
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, field.name)[0] = 1.0
