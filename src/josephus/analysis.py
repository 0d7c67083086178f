"""Statistical functionals and limit-theorem checks over survival distributions.

Asymptotic claims (boundedness, bands, decay rates) are certified on
finite prefixes only, as banded-ratio or fitted-slope properties over
pre-registered windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

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
    "r2_argmax_failures",
    "MomentTable",
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
    """Probability mass on positions within ``half_width``, finite and >= 0, of 1/2."""
    if not 0.0 <= half_width < math.inf:
        raise DomainError(f"half_width must be finite and >= 0, got {half_width}")
    n = dist.n_participants
    lo = math.ceil((0.5 - half_width) * n)
    hi = math.floor((0.5 + half_width) * n)
    return float(dist.probs[max(lo, 0) : hi + 1].sum())


def near_masses(dist: SurvivalDistribution, delta: float = 0.02) -> tuple[float, float]:
    """(mass near position 0 on the circle, mass near position 1/2).

    Near zero means positions n/N in [0, delta) or (1-delta, 1], near one-half n/N in
    [1/2-delta, 1/2+delta]: disjoint for 0 < delta <= 1/4 only, so any other delta is refused.
    For N below about 1/(2 delta) the near-1/2 window can hold no n/N; its mass is then 0.0.
    """
    if not 0.0 < delta <= 0.25:
        raise DomainError(f"delta must lie in (0, 1/4], got {delta}")
    x = dist.positions
    near_zero = float(dist.probs[(x < delta) | (x > 1.0 - delta)].sum())
    return near_zero, concentration_mass(dist, delta)


def r2_argmax_failures(p: float, probs: np.ndarray) -> list[str]:
    """The message of an exact r2 row g_N whose argmax strays over 0.03N from (3p-1)N, else []."""
    # the argmax approaches (3p-1)N slowly; the N=2000 calibration confirms the 0.03N
    # tolerance only for p in [0.4, 0.5] (+-1e-12) and N >= 1000, so other rows pass
    n = len(probs)
    target, argmax = (3 * p - 1) * n, int(np.argmax(probs))
    if n < 1000 or not 0.4 - 1e-12 <= p <= 0.5 + 1e-12 or abs(argmax - target) <= 0.03 * n:
        return []
    return [f"r2 figure argmax {argmax} strays from (3p-1)N = {target:.0f} at p={p}"]


# --- moment sweeps ----------------------------------------------------------


@dataclass(frozen=True, eq=False)  # == on array fields would raise, so == is identity
class MomentTable:
    """Moments of the rows N = n_min..n_max: read-only columns, ``n`` int64, the rest float64."""

    n: np.ndarray
    mean: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    abs_phi1: np.ndarray
    abs_phi3: np.ndarray
    variance: np.ndarray
    third_central: np.ndarray
    eta: np.ndarray
    g0: np.ndarray


def _central_moments(x: np.ndarray, row: np.ndarray) -> tuple[float, float, float]:
    """(mean, variance, third absolute central moment) of positions ``x`` weighted by ``row``."""
    mean = float(np.dot(x, row))
    centered = x - mean
    variance = float(np.dot(centered * centered, row))
    third = float(np.dot(np.abs(centered) ** 3, row))
    return mean, variance, third


def moment_report(rule: RuleSpec, n_min: int, n_max: int) -> MomentTable:
    """The moments of every row N in n_min..n_max under ``rule``, as one table."""
    if n_min < 3 or n_max < n_min:
        raise DomainError(f"need 3 <= n_min <= n_max, got {n_min}..{n_max}")
    columns = np.empty((9, n_max - n_min + 1))
    for n, row in dp.rows_for_rule(rule, n_max):
        if n < n_min:
            continue
        x = np.arange(n) / n
        c1 = 0.5 - x
        abs_c1 = np.abs(c1)
        phis = np.dot(c1, row), np.dot(c1 * c1, row), np.dot(abs_c1, row), np.dot(abs_c1 ** 3, row)
        mean, variance, third = _central_moments(x, row)
        columns[:, n - n_min] = (mean, *phis, variance, third, _eta_row(row), row[0])
    ns = np.arange(n_min, n_max + 1)
    for a in (ns, columns):  # before unpacking, so each row view is read-only too
        a.setflags(write=False)
    return MomentTable(ns, *columns)


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

    def failures(self, n_max: int) -> list[str]:
        """The message of a fit over N <= ``n_max`` that has not ``stabilized``, else []."""
        if self.stabilized():
            return []
        return [f"fitted K grew by {100 * (self.stabilization_ratio - 1):.2f}% "
                f"between N <= {n_max // 2} and N <= {n_max}"]


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


def _fit_constant(n_max: int, p: float, beta: float, gamma: float,
                  log_slack: Callable[[int, np.ndarray], np.ndarray]) -> DecayBoundFit:
    """Fit K over the rows g_N of ``_normal_rows(n_max, p)``, N = 3..n_max.

    ``log_slack(N, g_N)`` is log g_N minus the log of the bound with
    K = 1, entrywise (log 0 = -inf drops out); its sup over N <= n_max
    and over N <= n_max // 2 gives ``k_fit`` and ``k_fit_half``.
    """
    half = n_max // 2
    sup_full, sup_half = -math.inf, -math.inf
    with np.errstate(divide="ignore"):
        for n, row in _normal_rows(n_max, p):
            top = float(log_slack(n, row).max())
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


def _normal_rows(n_max: int, p: float) -> Iterator[tuple[int, np.ndarray]]:
    """``dp.r1_rows(n_max, p)``, refusing the first row that holds a subnormal entry.

    A subnormal entry carries relative error up to 0.5, so its log, and a
    decay fit through it, can be off by up to ln 2.  The first such row is
    N = 8,302 at p = 0.4 and N = 12,304 at p = 0.5.
    """
    tiny = np.finfo(float).tiny
    for n, row in dp.r1_rows(n_max, p):
        if np.any((row > 0.0) & (row < tiny)):
            raise DomainError(f"g_N holds a subnormal entry at N={n} <= n_max={n_max}; "
                              f"fit below N={n}")
        yield n, row


def decay_bound_check(p: float, n_max: int = 500) -> DecayBoundFit:
    """Fit the smallest K with g_N(n, p) <= K beta^<n>_N / gamma^N over N <= n_max.

    Uses the feasible (beta, gamma) for this p, with <n>_N the circular
    distance min(n, N - n).  Supremum taken in log space; zero
    probabilities drop out.  ``k_fit_half`` covers N <= n_max // 2 so the
    caller can confirm the constant has stabilised.
    """
    beta, gamma = decay_params_feasible(p)
    log_beta, log_gamma = math.log(beta), math.log(gamma)

    def log_slack(n, row):
        idx = np.arange(n)
        return np.log(row) + n * log_gamma - np.minimum(idx, n - idx) * log_beta

    return _fit_constant(n_max, p, beta, gamma, log_slack)


def unbiased_alpha_components(epsilon: float, alpha: float) -> tuple[float, float]:
    """The two expressions whose maximum must stay <= 2 for the unbiased bound."""
    return (
        alpha ** (2.0 + 4.0 * (1.0 + epsilon)),
        alpha ** (1.0 - 4.0 * (1.0 + epsilon)) + alpha ** (1.0 + 2.0 * (1.0 + epsilon)),
    )


def verify_unbiased_alpha(epsilon: float, alpha: float) -> None:
    """Refuse alpha <= 1, a non-finite epsilon or a violated inequality; NaN fails each test."""
    if not alpha > 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be finite, got {epsilon}")
    c1, c2 = unbiased_alpha_components(epsilon, alpha)
    e = 1.0 + epsilon
    if not c1 <= 2.0:
        raise DomainError(f"alpha^(2+4(1+eps)) = {alpha}^{2 + 4 * e:g} = {c1:.6f} > 2")
    if not c2 <= 2.0:
        raise DomainError(
            f"alpha^(1-4(1+eps)) + alpha^(1+2(1+eps)) = "
            f"{alpha}^{1 - 4 * e:g} + {alpha}^{1 + 2 * e:g} = {c2:.6f} > 2"
        )


def unbiased_decay_check(
    n_max: int = 1000, epsilon: float = 0.05, alpha: float = 1.008
) -> DecayBoundFit:
    """Fit the smallest K with g_N(n) <= K alpha^(2(1+eps)n - N), unbiased rule.

    ``verify_unbiased_alpha`` checks (epsilon, alpha) first, so an
    infeasible pair raises a domain error before any DP row is built.  By
    the mirror symmetry only 0 <= n <= N/2 is swept.
    """
    verify_unbiased_alpha(epsilon, alpha)
    log_alpha = math.log(alpha)
    rate = 2.0 * (1.0 + epsilon)

    def log_slack(n, row):
        j = np.arange(n // 2 + 1)
        return np.log(row[: n // 2 + 1]) + (n - rate * j) * log_alpha

    return _fit_constant(n_max, 0.5, alpha**rate, alpha, log_slack)


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


def g0_exponential_fit(n_min: int = 50, n_max: int = 1000) -> tuple[float, float]:
    """(slope, R^2) of the affine fit of log g_N(0) against N, unbiased rule.

    g_N(0) is entry 0 of each row of ``dp.r1_rows(n_max, 0.5)``, over the
    window N = n_min..n_max.  The knife starter cannot survive when N is
    divisible by 3 (the process moves the knife past two labels per step,
    which fixes the survivor's residue class mod 3), so those exactly-zero
    entries are excluded from the fit.  A window in which some other N has
    g_N(0) below the smallest normal float is refused at that N (the first
    is N = 12,305), as is one with fewer than two points left to fit.  The
    window starts at the DP's base case N=3 or later.
    """
    if n_min < 3:
        raise DomainError(f"g_N(0) starts at the DP's base case N=3, got n_min={n_min}")
    tiny = np.finfo(float).tiny
    ns, vals = [], []
    for n, row in dp.r1_rows(n_max, 0.5):
        if n < n_min:
            continue
        if n % 3 != 0 and row[0] < tiny:
            raise DomainError(f"g_N(0) underflows at N={n} in the fit window "
                              f"[{n_min}, {n_max}]")
        if row[0] > 0.0:
            ns.append(n)
            vals.append(row[0])
    if len(ns) < 2:
        raise DomainError(f"the fit window [{n_min}, {n_max}] has {len(ns)} usable "
                          "point(s); need at least 2")
    slope, _, r2 = _log_linear_fit(np.array(ns, dtype=float), np.log(np.array(vals)))
    return slope, r2


def moment_scaling_check(n_max: int = 4000, n_min: int = 50) -> MomentScalingReport:
    """Check E[|phi_k|], k = 1, 2, 3, against the (ln N / N)^(k/2) envelope, unbiased rule.

    Bounded-trend pass, per k: the ratio's sup over the top window
    [n_max/2, n_max] must not exceed its sup over the disjoint window
    [n_max/4, n_max/2) before it.  The signed first moment additionally
    decays exponentially; the log-slope fit of g_N(0) over
    [n_min, min(n_max, 1000)], zero entries excluded, is attached.
    """
    table = moment_report(RuleSpec.r1(0.5), n_min, n_max)
    ns = table.n
    # Python's float ** (libm pow) per entry: numpy's array ** rounds some values differently
    columns = (c.tolist() for c in (ns, table.abs_phi1, table.phi2, table.abs_phi3))
    ratios = np.array([[m / (math.log(n) / n) ** (k / 2.0) for k, m in enumerate(ms, start=1)]
                       for n, *ms in zip(*columns)])
    slope, r2 = g0_exponential_fit(n_min, min(n_max, 1000))

    def sup(mask) -> tuple[float, float, float]:
        return tuple(np.max(ratios[mask], axis=0, initial=-math.inf).tolist())

    previous = (ns >= n_max // 4) & (ns < n_max // 2)
    return MomentScalingReport(sup(slice(None)), sup(previous), sup(ns >= n_max // 2), slope, r2)


@dataclass(frozen=True, eq=False)
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
    table = moment_report(RuleSpec.r1(0.5), 3, l_max)
    # indexed by N, zero below 3: the pairwise var.sum() rounds by this layout
    e2, e1, var = (np.pad(c, (3, 0)) for c in (table.phi2, table.phi1, table.variance))
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


@dataclass(frozen=True, eq=False)
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

    @property
    def berry_esseen_bound(self) -> float:
        """Berry-Esseen bound on the KS distance of S_L/B_L at L = l_max.

        For independent summands sup|P(S_L/B_L <= x) - Phi(x)| <= C0 times
        the Lyapunov ratio, with C0 <= 0.56 (Shevtsova 2010).
        """
        return 0.56 * float(self.lyapunov_ratio[-1])

    @property
    def midpoint_bound(self) -> float:
        """The Berry-Esseen bound for the midpoint centering: plus |mean_shift|/sqrt(2 pi)."""
        return self.berry_esseen_bound + abs(self.mean_shift) / math.sqrt(2 * math.pi)

    @property
    def dkw_margin(self) -> float:
        """How far a KS distance of the T = len(normalized_sums) trials may exceed the true one.

        By the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant
        (1990), the sampled distance exceeds the true one by more than this
        with probability at most 1e-6.
        """
        return math.sqrt(math.log(2e6) / (2 * len(self.normalized_sums)))

    def failures(self) -> list[str]:
        """The failed conditions of the CLT check, in a fixed order; [] when all hold."""
        failures = []
        if not np.all(np.diff(self.b_l) > 0):
            failures.append("B_L is not strictly increasing")
        if self.lyapunov_ratio[-1] >= self.lyapunov_ratio[0]:
            failures.append("Lyapunov ratio did not decrease over the L grid")
        margin = self.dkw_margin  # each sampled KS distance may exceed its bound by this
        for name, ks, limit in (("", self.ks_distance, self.berry_esseen_bound),
                                (" midpoint", self.ks_distance_midpoint, self.midpoint_bound)):
            if ks > limit + margin:
                failures.append(f"ensemble{name} KS distance {ks:.4f} exceeds its "
                                f"Berry-Esseen bound {limit:.4f} plus {margin:.4f}")
        return failures


def _ks_normal(z: np.ndarray) -> float:
    """The Kolmogorov-Smirnov distance sup |F_T - Phi| of the sample ``z`` to the standard normal.

    The operations of SciPy's ``kstest(z, "norm")``, so its statistic bit for
    bit: Phi = ``simulate._ndtr`` (the kernel's port of the Cephes ``ndtr``
    that ``scipy.special.ndtr`` runs) on the sorted sample, and the larger of
    D+ = max(i/T - Phi(z_(i))) and D- = max(Phi(z_(i)) - (i-1)/T), i = 1..T.
    """
    cdf = simulate._ndtr(np.sort(z))
    n = len(cdf)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def clt_experiment(
    l_max: int = 10000,
    trials: int = 10000,
    seed: int = 0,
) -> CltReport:
    """Drive the unbiased central-limit experiment.

    Exact DP supplies V_N and W_N for N = 3..l_max, by ``_central_moments``;
    B_L = sqrt(sum V_N) and the kappa=1 Lyapunov ratio sum W_N / B_L^3 are
    recorded on ``_log_grid``.  Each trial draws one survivor per N by
    inverse-CDF from the exact row, using the per-N stream
    splitmix64(seed, N), so results are independent of evaluation order.
    The DP rows stream into ``simulate._clt_sums``, whose kernel draws split
    the trials across the usable CPUs while the next rows are built; the
    sums are the same for any split.  The Kolmogorov-Smirnov distance of the
    normalised trial sums to the standard normal is computed for both
    centerings by ``_ks_normal``: the empirical CDF of the sorted sums
    against the kernel's Phi, the statistic of SciPy's ``kstest`` bit for bit.
    """
    if trials < 1000:
        raise DomainError(f"the trial ensemble needs trials >= 1000, got {trials}")
    if l_max < 10:
        raise DomainError(f"l_max must be >= 10, got {l_max}")
    # from 100, or from 3 when l_max <= 100, so the grid has at least two
    # points for the Lyapunov ratio to decrease over
    grid = _log_grid(100 if l_max > 100 else 3, l_max)
    v, w = np.zeros(l_max + 1), np.zeros(l_max + 1)
    e1_sum = 0.0
    centered, mid = np.zeros(trials), np.zeros(trials)

    def rows():
        nonlocal e1_sum
        for n, row in dp.r1_rows(l_max, 0.5):
            mean, v[n], w[n] = _central_moments(np.arange(n) / n, row)
            e1_sum += 0.5 - mean
            yield row, mean

    simulate._clt_sums(seed, l_max, rows(), centered, mid)
    # cumsum adds in order, so each prefix is the running sum over N bit for bit
    b_l = np.sqrt(np.cumsum(v)[grid])
    # Python's float ** (libm pow): numpy's array ** 3 rounds some values differently
    lyap = [cw / b**3 for cw, b in zip(np.cumsum(w)[grid].tolist(), b_l.tolist())]
    b_final = float(b_l[-1])
    z_centered, z_mid = centered / b_final, mid / b_final
    return CltReport(
        l_values=grid,
        b_l=b_l,
        lyapunov_ratio=np.array(lyap),
        normalized_sums=z_centered,
        ks_distance=_ks_normal(z_centered),
        mean_shift=e1_sum / b_final,
        normalized_sums_midpoint=z_mid,
        ks_distance_midpoint=_ks_normal(z_mid),
    )
