"""Documented refusals: each raises its error type with a message naming the bad value."""

import numpy as np
import pytest

from josephus import analysis, io, prng, simulate
from josephus.cli import main
from josephus.distributions import SurvivalDistribution
from josephus.errors import DomainError
from josephus.rules import RuleKind, RuleSpec

R1H = RuleSpec.r1(0.5)
UNIFORM5 = SurvivalDistribution(np.full(5, 0.2))


@pytest.mark.parametrize("call, error, named", [
    (lambda: analysis.phi_k(0), DomainError, "got 0"),
    (lambda: analysis.expectation_functional(UNIFORM5, lambda x: np.zeros(3)),
     DomainError, "phi must map the position vector"),
    (lambda: analysis.moment_report(R1H, 2, 10), DomainError, "got 2..10"),
    (lambda: analysis.moment_report(R1H, 10, 5), DomainError, "got 10..5"),
    (lambda: analysis.unbiased_decay_check(100, 0.05, 1.0), DomainError, "got 1.0"),
    (lambda: analysis.second_moment_sum_check(99), DomainError, "got 99"),
    (lambda: analysis.clt_experiment(9, 1000, 0), DomainError, "got 9"),
    (lambda: UNIFORM5.total_variation(SurvivalDistribution(np.full(4, 0.25))),
     DomainError, "equal participant counts"),
    (lambda: RuleSpec(RuleKind.R1), DomainError, "r1 requires parameter p"),
    (lambda: R1H.q_float, DomainError, "r1 has no parameter q"),
    (lambda: R1H.q_exact, DomainError, "r1 has no parameter q"),
    (lambda: simulate.initial_state(R1H, 0), DomainError, "got 0"),
    (lambda: simulate.sample_survivor(R1H, 10, 0, stream_index=-1), DomainError, "got -1"),
    (lambda: simulate.empirical_distribution(R1H, 1, 10, 0), DomainError, "got N=1"),
    (lambda: io.validate_config({"schema": 99}, set()), DomainError, "got 99"),
    (lambda: prng.splitmix64(0, -1), ValueError, "stream index must be nonnegative"),
], ids=[
    "phi_k_0", "expectation_shape", "moments_n_min_2", "moments_n_max_below_n_min",
    "unbiased_alpha_1", "second_moment_l_max_99", "clt_l_max_9", "total_variation_n",
    "r1_without_p", "q_float_on_r1", "q_exact_on_r1", "initial_state_0",
    "stream_index_negative", "empirical_n_1", "config_schema", "splitmix64_negative_index",
])
def test_library_refusal(call, error, named):
    with pytest.raises(error, match=named.replace(".", r"\.")):
        call()


@pytest.mark.parametrize("argv, named", [
    (["det", "--n-range", "5"], "'5'"),
    (["det", "--n-range", "a:b"], "'a:b'"),
    (["det", "--n-range", "5:1"], "'5:1'"),
    (["decay"], "--p or --unbiased"),
    (["decay", "--p", "0.5", "--unbiased"], "--p or --unbiased"),
    (["figure", "r1", "--n", "10", "--p-grid", "0.5"], "--out"),
], ids=["n_range_one_number", "n_range_not_ints", "n_range_reversed",
        "decay_neither", "decay_both", "figure_without_out"])
def test_cli_refusal(argv, named, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and named in err
