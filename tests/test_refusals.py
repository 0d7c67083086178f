"""Documented refusals: each raises its error type with a message naming the bad value."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from josephus import analysis, dp, io, simulate
from josephus.cli import main
from josephus.distributions import SurvivalDistribution
from josephus.errors import DomainError, InvalidStateError
from josephus.rules import RuleKind, RuleSpec

R1H = RuleSpec.r1(0.5)
UNIFORM5 = SurvivalDistribution(np.full(5, 0.2))


def _read_manifest(text: str):
    """``io.read_manifest`` of a manifest file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "run.manifest.json")
        path.write_text(text)
        return io.read_manifest(path, set())


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
    # -0.0 passes 0 <= p <= 1 but would print as -0 in tables and file names
    (lambda: RuleSpec.r1(-0.0), DomainError, "p is -0.0"),
    (lambda: next(dp.r1_rows(5, np.float64(-0.0))), DomainError, "p is -0.0"),
    (lambda: simulate.initial_state(R1H, 0), DomainError, "got 0"),
    (lambda: simulate.sample_survivor(R1H, 10, 0, stream_index=-1), DomainError, "got -1"),
    (lambda: simulate.empirical_distribution(R1H, 1, 10, 0), DomainError, "got N=1"),
    (lambda: simulate._sample_counts(R1H, 5, 0, 0, -3), DomainError, "got -3"),
    (lambda: simulate._sample_counts(R1H, 1, 0, 0, 3), DomainError, "got N=1"),
    (lambda: _read_manifest('{"config": {"schema": 99}}'), DomainError, "got 99"),
    (lambda: analysis.concentration_mass(UNIFORM5, -0.1), DomainError, "got -0.1"),
    (lambda: analysis.concentration_mass(UNIFORM5, float("nan")), DomainError, "got nan"),
    (lambda: analysis.concentration_mass(UNIFORM5, float("inf")), DomainError, "got inf"),
    (lambda: simulate.ProcessState(R1H, (0, 1, 2), 5), InvalidStateError, "knife holder 5"),
    (lambda: simulate.ProcessState(R1H, (0, 1, 2), 0, 0), InvalidStateError, "got 0"),
    (lambda: simulate.run_path(R1H, 4, [True, True]), InvalidStateError, "2 participants left"),
], ids=[
    "phi_k_0", "expectation_shape", "moments_n_min_2", "moments_n_max_below_n_min",
    "unbiased_alpha_1", "second_moment_l_max_99", "clt_l_max_9", "total_variation_n",
    "r1_without_p", "r1_negative_zero", "r1_rows_negative_zero", "initial_state_0",
    "stream_index_negative", "empirical_n_1", "sample_counts_negative", "sample_counts_n_1",
    "config_schema", "concentration_negative", "concentration_nan", "concentration_inf",
    "process_state_dead_knife", "process_state_direction_0", "run_path_too_few_coins",
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
    (["sweep", "--n-list", "40,2,10"], "got N=2"),
    (["sweep", "--n-list", ""], "--n-list, got none"),
    (["sweep", "--p-grid", ""], "--p-grid, got none"),
    (["--out", "d", "figure", "r1", "--n", "20", "--p-grid", ","], "--p-grid, got none"),
    (["--out", "d", "figure", "r1", "--n", "20", "--p-grid", ""], "--p-grid, got none"),
    (["--out", "d", "figure", "r3", "--n", "20", "--q-grid", ""], "--q-grid, got none"),
    # the int64 counts would wrap at 2^63 samples, and ctypes would cut 2^66 to 64 bits
    (["simulate", "--rule", "r1", "--n", "5", "--p", "1", "--samples", str(2**63)],
     f"got {2**63}"),
    (["simulate", "--rule", "r1", "--n", "5", "--p", "1", "--samples", str(2**66)],
     f"got {2**66}"),
    (["--out", "d", "figure", "r1", "--n", "5", "--p-grid", "1", "--samples", str(2**63)],
     f"got {2**63}"),
    (["exact", "--rule", "r1", "--n", "4", "--p", "-0"], "p is -0.0"),
    (["exact", "--rule", "r3", "--n", "4", "--p", "0.5", "--q", "-0.0"], "q is -0.0"),
    (["--out", "d", "figure", "r1", "--n", "3", "--p-grid=-0,0"], "p is -0.0"),
    (["sweep", "--p-grid=-0"], "p is -0.0"),
    # one file per grid value: a repeat, also one spelled differently, is refused
    (["--out", "d", "figure", "r1", "--n", "5", "--p-grid", "0.5,0.5"],
     "--p-grid lists 0.5 more than once"),
    (["--out", "d", "figure", "r1", "--n", "5", "--p-grid", "0.5,0.50"],
     "--p-grid lists 0.5 more than once"),
    (["--out", "d", "figure", "r3", "--n", "5", "--p-grid", "0.5", "--q-grid", "0.25,0.25"],
     "--q-grid lists 0.25 more than once"),
    (["--out", "d", "decay", "--unbiased", "--n-max", "51"], "--n-max >= 52"),
], ids=["n_range_one_number", "n_range_not_ints", "n_range_reversed",
        "decay_neither", "decay_both", "figure_without_out", "sweep_n_2",
        "sweep_empty_n_list", "sweep_empty_p_grid", "figure_p_grid_comma",
        "figure_empty_p_grid", "figure_r3_empty_q_grid", "simulate_samples_2_63",
        "simulate_samples_2_66", "figure_samples_2_63", "exact_p_negative_zero",
        "r3_q_negative_zero", "figure_p_grid_negative_zero", "sweep_p_grid_negative_zero",
        "figure_p_grid_repeat", "figure_p_grid_repeat_respelled", "figure_r3_q_grid_repeat",
        "decay_unbiased_n_max_51"])
def test_cli_refusal(argv, named, tmp_path, monkeypatch, capsys):
    # a refusal writes nothing: no table, no manifest, no --out directory
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and named in err
    assert list(tmp_path.iterdir()) == []
