"""Statistical functionals and limit-theorem checks over survival distributions.

Asymptotic claims (boundedness, bands, decay rates) are certified on
finite prefixes only, as banded-ratio or fitted-slope properties over
pre-registered windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import dp, simulate
from .distributions import SurvivalDistribution
from .errors import DomainError
from .rules import RuleSpec

__all__ = [
    "phi_k",
    "psi",
    "expectation_functional",
    "eta",
    "concentration_mass",
    "near_masses",
    "MomentRecord",
    "moment_report",
    "DecayBoundFit",
    "decay_params_feasible",
    "decay_bound_check",
    "unbiased_alpha_components",
    "verify_unbiased_alpha",
    "unbiased_decay_check",
    "MomentScalingReport",
    "moment_scaling_check",
    "SecondMomentSumReport",
    "second_moment_sum_check",
    "CltReport",
    "clt_experiment",
    "g0_exponential_fit",
]


def phi_k(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The polynomial test map x -> (1/2 - x)^k."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")

    def phi(x):
        return (0.5 - np.asarray(x)) ** k

    return phi


def psi(x) -> np.ndarray:
    """x -> 2*pi*(1/2 - x)*sin(2*pi*x); nonnegative on [0, 1]."""
    x = np.asarray(x)
    return 2.0 * np.pi * (0.5 - x) * np.sin(2.0 * np.pi * x)


def expectation_functional(dist: SurvivalDistribution, phi: Callable) -> float:
    """E[phi(X)] = sum_n phi(n/N) * probs[n]; bounded by sup |phi|."""
    values = np.asarray(phi(dist.positions), dtype=np.float64)
    if values.shape != dist.probs.shape:
        raise DomainError("phi must map the position vector elementwise")
    return float(np.dot(values, dist.probs))


def _eta_row(row: np.ndarray) -> float:
    n = len(row)
    idx = {0, 1 % n, 2 % n, (n - 1) % n, (n - 2) % n}
    return float(max(row[i] for i in idx))


def eta(dist: SurvivalDistribution) -> float:
    """Max survival probability over the five labels nearest the knife starter.

    Indices {-2..2} are reduced modulo N and deduplicated, so the value is
    well defined also for N < 5.
    """
    return _eta_row(dist.probs)


def concentration_mass(dist: SurvivalDistribution, half_width: float = 0.05) -> float:
    """Probability mass on positions within ``half_width`` of 1/2."""
    n = dist.n_participants
    lo = math.ceil((0.5 - half_width) * n)
    hi = math.floor((0.5 + half_width) * n)
    return float(dist.probs[max(lo, 0) : hi + 1].sum())


def near_masses(dist: SurvivalDistribution, delta: float = 0.02) -> tuple[float, float]:
    """(mass near position 0 on the circle, mass near position 1/2).

    Near zero means [0, delta) united with (1-delta, 1]; near one-half
    means [1/2-delta, 1/2+delta].  The two windows are disjoint and
    nonempty only for 0 < delta <= 1/4, so any other delta is refused.
    """
    if not 0.0 < delta <= 0.25:
        raise DomainError(f"delta must lie in (0, 1/4], got {delta}")
    x = dist.positions
    near_zero = float(dist.probs[(x < delta) | (x > 1.0 - delta)].sum())
    return near_zero, concentration_mass(dist, delta)


# --- moment sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class MomentRecord:
    n: int
    mean: float
    phi1: float
    phi2: float
    abs_phi1: float
    abs_phi3: float
    variance: float
    third_central: float
    eta: float
    g0: float


def _row_record(n: int, row: np.ndarray) -> MomentRecord:
    x = np.arange(n) / n
    c1 = 0.5 - x
    e1 = float(np.dot(c1, row))
    e2 = float(np.dot(c1 * c1, row))
    a1 = float(np.dot(np.abs(c1), row))
    a3 = float(np.dot(np.abs(c1) ** 3, row))
    mean = float(np.dot(x, row))
    centered = x - mean
    variance = float(np.dot(centered * centered, row))
    third = float(np.dot(np.abs(centered) ** 3, row))
    return MomentRecord(n, mean, e1, e2, a1, a3, variance, third, _eta_row(row), float(row[0]))


def moment_report(rule: RuleSpec, n_min: int, n_max: int) -> tuple[MomentRecord, ...]:
    """Per-N moment records for N in n_min..n_max under ``rule``."""
    if n_min < 3 or n_max < n_min:
        raise DomainError(f"need 3 <= n_min <= n_max, got {n_min}..{n_max}")
    return tuple(
        _row_record(n, row) for n, row in dp.rows_for_rule(rule, n_max) if n >= n_min
    )


# --- exponential decay bounds ----------------------------------------------


@dataclass(frozen=True)
class DecayBoundFit:
    """Fitted constants for a bound of the form g_N(n) <= K beta^<n> / gamma^N.

    ``k_fit`` is the smallest constant validating the bound on the swept
    range; ``k`` is the reported constant max(k_fit, 1).  ``max_violation``
    is the largest log-domain slack of the bound with constant ``k`` (<= 0
    when the bound holds).  The unbiased bound has beta = alpha^(2(1+eps))
    and gamma = alpha.  ``k_fit_half`` is the same over N <= n_max // 2.
    For every feasible parameter tried the sup sits at N = 3 or 4, so it
    equals ``k_fit`` for n_max >= 8 and ``stabilized`` can fail only at
    n_max 6-7.  The fit holds only what it computed; p, n_max, epsilon and
    alpha are the caller's inputs.
    """

    beta: float
    gamma: float
    k: float
    k_fit: float
    k_fit_half: float
    max_violation: float

    @property
    def stabilization_ratio(self) -> float:
        """k_fit over the full range divided by k_fit over the first half."""
        return self.k_fit / self.k_fit_half

    def stabilized(self) -> bool:
        """Whether k_fit grew by at most 5% from the first half to the full range."""
        return self.stabilization_ratio <= 1.05


def _gamma_cap(p: float, beta: float) -> float:
    # largest gamma meeting all four feasibility inequalities at this beta
    return min(
        1.0 / (math.sqrt(p) * beta),
        1.0 / ((1.0 - p) * beta),
        1.0 / (p * beta + (1.0 - p) / beta**2),
        1.0 / ((1.0 - p) * beta + p / beta**2),
    )


_BETA_GRID_POINTS = 400
_BETA_ROUNDS = 4


def decay_params_feasible(p: float) -> tuple[float, float]:
    """(beta, gamma), both > 1, satisfying the four feasibility inequalities.

    Grid-plus-refinement search over beta maximising the largest feasible
    gamma, ties broken toward smaller beta; feasible only for p strictly
    between 1/3 and 2/3.  The returned gamma is shrunk by one part in 1e12
    so all four inequalities hold strictly after rounding.
    """
    if not (1.0 / 3.0 < p < 2.0 / 3.0):
        raise DomainError(f"feasible decay parameters require 1/3 < p < 2/3, got p={p}")
    lo, hi = 1.0 + 1e-9, 4.0
    best_beta, best_gamma = lo, -math.inf
    for _ in range(_BETA_ROUNDS):
        betas = np.linspace(lo, hi, _BETA_GRID_POINTS)
        gammas = np.array([_gamma_cap(p, b) for b in betas])
        i = int(np.argmax(gammas))  # first max: ties resolve to smaller beta
        if gammas[i] > best_gamma:
            best_beta, best_gamma = float(betas[i]), float(gammas[i])
        window = (hi - lo) / (_BETA_GRID_POINTS / 10)
        lo = max(1.0 + 1e-9, betas[i] - window)
        hi = betas[i] + window
    gamma = best_gamma * (1.0 - 1e-12)
    if gamma <= 1.0:
        raise DomainError(f"no gamma > 1 is feasible at p={p}")
    return best_beta, gamma


def _fit_constant(
    log_slack: Iterable[tuple[int, np.ndarray]], n_max: int, beta: float, gamma: float
) -> DecayBoundFit:
    # log_slack yields (N, log(g_N) minus the log of the bound with K = 1);
    # its sup over N <= n_max and over N <= n_max // 2 gives k_fit, k_fit_half
    half = n_max // 2
    sup_full, sup_half = -math.inf, -math.inf
    for n, vals in log_slack:
        top = float(vals.max())
        if n <= half:
            sup_half = max(sup_half, top)
        sup_full = max(sup_full, top)
    if sup_half == -math.inf:
        raise DomainError(
            f"n_max must be >= 6 so that N <= n_max // 2 holds a row, got {n_max}"
        )
    k_fit = math.exp(sup_full)
    k_fit_half = math.exp(sup_half)
    k = max(k_fit, 1.0)
    return DecayBoundFit(beta, gamma, k, k_fit, k_fit_half, sup_full - math.log(k))


def decay_bound_check(p: float, n_max: int = 500) -> DecayBoundFit:
    """Fit the smallest K with g_N(n, p) <= K beta^<n>_N / gamma^N over N <= n_max.

    Uses the feasible (beta, gamma) for this p, with <n>_N the circular
    distance min(n, N - n).  Supremum taken in log space; zero
    probabilities drop out.  ``k_fit_half`` covers N <= n_max // 2 so the
    caller can confirm the constant has stabilised.
    """
    beta, gamma = decay_params_feasible(p)
    log_beta, log_gamma = math.log(beta), math.log(gamma)

    def log_slack():
        for n, row in dp.r1_rows(n_max, p):
            idx = np.arange(n)
            dist = np.minimum(idx, n - idx)
            with np.errstate(divide="ignore"):
                vals = np.log(row) + n * log_gamma - dist * log_beta
            yield n, vals

    return _fit_constant(log_slack(), n_max, beta, gamma)


def unbiased_alpha_components(epsilon: float, alpha: float) -> tuple[float, float]:
    """The two expressions whose maximum must stay <= 2 for the unbiased bound."""
    return (
        alpha ** (2.0 + 4.0 * (1.0 + epsilon)),
        alpha ** (1.0 - 4.0 * (1.0 + epsilon)) + alpha ** (1.0 + 2.0 * (1.0 + epsilon)),
    )


def verify_unbiased_alpha(epsilon: float, alpha: float) -> None:
    """Raise a domain error naming the violated inequality, if any."""
    c1, c2 = unbiased_alpha_components(epsilon, alpha)
    e = 1.0 + epsilon
    if c1 > 2.0:
        raise DomainError(
            f"alpha^(2+4(1+eps)) = {alpha}^{2 + 4 * e:g} = {c1:.6f} > 2"
        )
    if c2 > 2.0:
        raise DomainError(
            f"alpha^(1-4(1+eps)) + alpha^(1+2(1+eps)) = "
            f"{alpha}^{1 - 4 * e:g} + {alpha}^{1 + 2 * e:g} = {c2:.6f} > 2"
        )


def unbiased_decay_check(
    n_max: int = 1000, epsilon: float = 0.05, alpha: float = 1.008
) -> DecayBoundFit:
    """Fit the smallest K with g_N(n) <= K alpha^(2(1+eps)n - N), unbiased rule.

    Verifies the (epsilon, alpha) feasibility inequality first and raises a
    domain error naming the violated component otherwise.  By the mirror
    symmetry only 0 <= n <= N/2 is swept.
    """
    if alpha <= 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    verify_unbiased_alpha(epsilon, alpha)
    log_alpha = math.log(alpha)
    rate = 2.0 * (1.0 + epsilon)

    def log_slack():
        for n, row in dp.r1_rows(n_max, 0.5):
            half_row = row[: n // 2 + 1]
            j = np.arange(len(half_row))
            with np.errstate(divide="ignore"):
                vals = np.log(half_row) + (n - rate * j) * log_alpha
            yield n, vals

    return _fit_constant(log_slack(), n_max, alpha**rate, alpha)


# --- moment scaling ---------------------------------------------------------


@dataclass(frozen=True)
class MomentScalingReport:
    """Sups of E[|phi_k|] / (ln N / N)^(k/2) over windows of N, indexed by k - 1.

    The windows are the sweep [n_min, n_max], [n_max/4, n_max/2) and the
    top [n_max/2, n_max]; an empty window's sup is -inf.
    """

    sup_full: tuple[float, float, float]
    sup_previous_window: tuple[float, float, float]
    sup_top_window: tuple[float, float, float]
    exponential_slope: float
    exponential_r2: float

    @property
    def bounded_trend(self) -> tuple[bool, bool, bool]:
        """Per k: the top window's sup is finite and at most the previous window's."""
        return tuple(
            math.isfinite(top) and top <= prev
            for top, prev in zip(self.sup_top_window, self.sup_previous_window)
        )


def _log_linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot


def g0_exponential_fit(
    n_min: int = 50, n_max: int = 1000, g0: np.ndarray | None = None
) -> tuple[float, float]:
    """(slope, R^2) of the affine fit of log g_N(0) against N, unbiased rule.

    The knife starter cannot survive when N is divisible by 3 (the process
    moves the knife past two labels per step, which fixes the survivor's
    residue class mod 3), so those exactly-zero entries are excluded from
    the fit.  A window in which some other N has g_N(0) below the smallest
    normal float (underflow, from N near 13,000) is refused, as is one
    with fewer than two points left to fit.  A caller-supplied ``g0`` is
    indexed by N and must reach N = n_max.  The window starts at the DP's
    base case N=3 or later.
    """
    if n_min < 3:
        raise DomainError(f"g_N(0) starts at the DP's base case N=3, got n_min={n_min}")
    if g0 is None:
        g0 = np.zeros(n_max + 1)
        for n, row in dp.r1_rows(n_max, 0.5):
            g0[n] = row[0]
    elif len(g0) < n_max + 1:
        raise DomainError(
            f"g0 must hold g_N(0) for N = 0..{n_max}, got {len(g0)} entries"
        )
    ns = np.arange(n_min, n_max + 1)
    vals = g0[n_min : n_max + 1]
    underflow = ns[(ns % 3 != 0) & (vals < np.finfo(float).tiny)]
    if underflow.size:
        raise DomainError(
            f"g_N(0) underflows at N={underflow[0]} in the fit window "
            f"[{n_min}, {n_max}]"
        )
    mask = vals > 0.0
    usable = int(mask.sum())
    if usable < 2:
        raise DomainError(
            f"the fit window [{n_min}, {n_max}] has {usable} usable "
            "point(s); need at least 2"
        )
    slope, _, r2 = _log_linear_fit(ns[mask].astype(float), np.log(vals[mask]))
    return slope, r2


def moment_scaling_check(n_max: int = 4000, n_min: int = 50) -> MomentScalingReport:
    """Check E[|phi_k|], k = 1, 2, 3, against the (ln N / N)^(k/2) envelope, unbiased rule.

    Bounded-trend pass, per k: the ratio's sup over the top window
    [n_max/2, n_max] must not exceed its sup over the disjoint window
    [n_max/4, n_max/2) before it.  The signed first moment additionally
    decays exponentially; the log-slope fit of g_N(0) over
    [n_min, min(n_max, 1000)], zero entries excluded, is attached.
    """
    ns, ratios = [], []
    g0 = np.zeros(n_max + 1)
    for rec in moment_report(RuleSpec.r1(0.5), 3, n_max):
        g0[rec.n] = rec.g0
        if rec.n < n_min:
            continue
        scale = math.log(rec.n) / rec.n
        ns.append(rec.n)
        ratios.append([m / scale ** (k / 2.0)
                       for k, m in ((1, rec.abs_phi1), (2, rec.phi2), (3, rec.abs_phi3))])
    slope, r2 = g0_exponential_fit(n_min, min(n_max, 1000), g0=g0)  # refuses an empty sweep
    ns, ratios = np.array(ns), np.array(ratios)

    def sup(mask) -> tuple[float, float, float]:
        return tuple(np.max(ratios[mask], axis=0, initial=-math.inf).tolist())

    previous = (ns >= n_max // 4) & (ns < n_max // 2)
    return MomentScalingReport(sup(slice(None)), sup(previous), sup(ns >= n_max // 2), slope, r2)


@dataclass(frozen=True)
class SecondMomentSumReport:
    """S_L = sum_{N<=L} E_N[phi_2] measured against ln L."""

    l_values: np.ndarray
    s_values: np.ndarray
    ratios: np.ndarray          # S_L / ln L on the grid
    band: tuple[float, float]
    top_octaves_band: tuple[float, float]
    e1sq_sum: float             # sum of E_N[phi_1]^2, bounded
    e1sq_tail_beyond_100: float
    b2_identity_error: float    # |B_L^2 - (S_L + 3 sum E1^2)| at L = l_max

    @property
    def factor_band(self) -> float:
        return self.band[1] / self.band[0]


def _log_grid(start: int, l_max: int) -> np.ndarray:
    """The distinct integer parts of 25 log-spaced L from ``start`` to ``l_max``.

    ``geomspace`` returns both endpoints exactly, so the grid starts at
    ``start`` and ends at ``l_max``.
    """
    return np.unique(np.geomspace(start, l_max, 25).astype(int))


def second_moment_sum_check(l_max: int = 10000) -> SecondMomentSumReport:
    """Certify S_L growing like ln L on ``_log_grid(100, l_max)``."""
    if l_max < 100:
        raise DomainError(f"l_max must be >= 100, got {l_max}")
    e2 = np.zeros(l_max + 1)
    e1 = np.zeros(l_max + 1)
    var = np.zeros(l_max + 1)
    for rec in moment_report(RuleSpec.r1(0.5), 3, l_max):
        e2[rec.n] = rec.phi2
        e1[rec.n] = rec.phi1
        var[rec.n] = rec.variance
    s = np.cumsum(e2)
    grid = _log_grid(100, l_max)
    ratios = s[grid] / np.log(grid)
    top = ratios[grid >= l_max // 4]
    e1sq = e1**2
    b2 = float(var.sum())
    # V_N = E[phi_2] - E[phi_1]^2 termwise, so B^2 = S_L - sum E[phi_1]^2
    return SecondMomentSumReport(
        l_values=grid,
        s_values=s[grid],
        ratios=ratios,
        band=(float(ratios.min()), float(ratios.max())),
        top_octaves_band=(float(top.min()), float(top.max())),
        e1sq_sum=float(e1sq.sum()),
        e1sq_tail_beyond_100=float(e1sq[101:].sum()),
        b2_identity_error=abs(b2 - (float(s[-1]) - float(e1sq.sum()))),
    )


# --- central limit theorem harness -------------------------------------------


@dataclass(frozen=True)
class CltReport:
    """Cumulative-variance normalisation and the trial ensemble at L = l_max.

    ``normalized_sums`` are the Lyapunov-normalised sums
    (1/B_L) sum_N (X_N - E_N[X_N]); the midpoint variant replaces E_N[X_N]
    with 1/2 and carries the O(1/B_L) mean shift recorded in
    ``mean_shift``.
    """

    l_values: np.ndarray
    b_l: np.ndarray
    lyapunov_ratio: np.ndarray
    normalized_sums: np.ndarray
    ks_distance: float
    mean_shift: float
    normalized_sums_midpoint: np.ndarray
    ks_distance_midpoint: float


def clt_experiment(
    l_max: int = 10000,
    trials: int = 10000,
    seed: int = 0,
) -> CltReport:
    """Drive the unbiased central-limit experiment.

    Exact DP supplies V_N and W_N for N = 3..l_max; B_L = sqrt(sum V_N) and
    the kappa=1 Lyapunov ratio sum W_N / B_L^3 are recorded on ``_log_grid``.
    Each trial draws one survivor per N by inverse-CDF from the exact row,
    using the per-N stream splitmix64(seed, N), so results are independent
    of evaluation order.  The draws run in the compiled kernel, one
    ``simulate._clt_draws`` call per N.  The Kolmogorov-Smirnov distance of
    the normalised trial sums to the standard normal is computed for both
    centerings.
    """
    if trials < 1000:
        raise DomainError(f"the trial ensemble needs trials >= 1000, got {trials}")
    if l_max < 10:
        raise DomainError(f"l_max must be >= 10, got {l_max}")
    # from 100, or from 3 when l_max <= 100, so the grid has at least two
    # points for the Lyapunov ratio to decrease over
    grid = _log_grid(100 if l_max > 100 else 3, l_max)
    cum_v = 0.0
    cum_w = 0.0
    e1_sum = 0.0
    b_at = {}
    lyap_at = {}
    sums_centered = np.zeros(trials)
    sums_mid = np.zeros(trials)
    grid_set = set(int(g) for g in grid)
    for n, row in dp.r1_rows(l_max, 0.5):
        x = np.arange(n) / n
        mean = float(np.dot(x, row))
        centered = x - mean
        cum_v += float(np.dot(centered * centered, row))
        cum_w += float(np.dot(np.abs(centered) ** 3, row))
        e1_sum += 0.5 - mean
        simulate._clt_draws(seed, np.cumsum(row), mean, sums_centered, sums_mid)
        if n in grid_set:
            b_at[n] = math.sqrt(cum_v)
            lyap_at[n] = cum_w / b_at[n] ** 3
    b_final = math.sqrt(cum_v)
    z_centered = sums_centered / b_final
    z_mid = sums_mid / b_final
    import scipy.stats  # here, not at module level: only this check needs scipy
    return CltReport(
        l_values=grid,
        b_l=np.array([b_at[int(g)] for g in grid]),
        lyapunov_ratio=np.array([lyap_at[int(g)] for g in grid]),
        normalized_sums=z_centered,
        ks_distance=float(scipy.stats.kstest(z_centered, "norm").statistic),
        mean_shift=e1_sum / b_final,
        normalized_sums_midpoint=z_mid,
        ks_distance_midpoint=float(scipy.stats.kstest(z_mid, "norm").statistic),
    )
