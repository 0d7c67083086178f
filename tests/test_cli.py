"""Command-line surface: schemas, exit codes, manifests, reproducibility."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from josephus import analysis, deterministic, dp, io
from josephus.cli import _command_of, main
from josephus.distributions import SurvivalDistribution
from josephus.io import config_hash, file_sha256


def run_ok(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def digest(**params):
    """The first 12 hex digits of the sha256 of the parsed parameters, as file names carry them."""
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]


def sweep_file(p_grid, n_list, delta=0.02):
    """The file a sweep writes: named by the sha256 of its parsed parameters."""
    return f"sweep_{digest(p_grid=p_grid, n_list=n_list, delta=delta)}.jsonl"


def figure_stem(variant, n, **params):
    """The stem of a figure's manifest and .gp script: its variant, N and parsed grids."""
    return f"figure_{variant}_n{n}_{digest(**params)}"


def test_det_single_value(capsys):
    assert run_ok(["det", "--n", "41"], capsys).strip() == "19"


def test_det_range_csv(capsys):
    out = run_ok(["det", "--n-range", "1:6"], capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "N,b_N"
    assert lines[1] == "1,1"
    assert lines[6] == "6,5"


def test_det_series_check(capsys):
    out = run_ok(["det", "--series-check", "128"], capsys)
    assert "OK" in out


def test_det_series_check_exits_3_when_a_coefficient_differs(monkeypatch, capsys):
    real = deterministic.generating_series_coefficients

    def one_off(max_degree):
        coeffs = real(max_degree)
        coeffs[5] += 1
        return coeffs

    monkeypatch.setattr(deterministic, "generating_series_coefficients", one_off)
    assert main(["det", "--series-check", "16"]) == 3
    assert "series coefficients differ from survivors at N=[5]" in capsys.readouterr().err


def test_det_requires_a_mode():
    assert main(["det"]) == 2


@pytest.mark.parametrize("modes", [
    ["--n", "41", "--series-check", "8"],
    ["--n", "41", "--n-range", "1:3"],
    ["--n-range", "1:3", "--series-check", "8"],
    ["--n", "41", "--n-range", "1:3", "--series-check", "8"],
], ids=["n-series", "n-range", "range-series", "all"])
def test_det_refuses_more_than_one_mode(modes, tmp_path, capsys):
    assert main(["--out", str(tmp_path), "det", *modes]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_det_method_option_is_gone(tmp_path):
    # the recurrence, closed form and binary rotation stay library functions
    # that criterion C01 cross-checks; det prints the recurrence's value
    assert main(["--out", str(tmp_path), "det", "--n-range", "1:5",
                 "--method", "rotation"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_exact_csv_schema(capsys):
    out = run_ok(["exact", "--rule", "r1", "--n", "4", "--p", "0.5"], capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "n,prob"
    assert lines[1:] == ["0,0.5", "1,0.25", "2,0", "3,0.25"]


def test_exact_seventeen_digit_floats(capsys):
    out = run_ok(["exact", "--rule", "r1", "--n", "3", "--p", str(1 / 3)], capsys)
    value = out.strip().splitlines()[-1].split(",")[1]
    assert float(value) == 1 / 3
    assert len(value) >= 17


def test_exact_r1u_matches_explicit_half(tmp_path, capsys):
    for n in (3, 4, 9, 1000, 10000):
        run_ok(["--out", str(tmp_path), "exact", "--rule", "r1u", "--n", str(n)], capsys)
        run_ok(["--out", str(tmp_path), "exact", "--rule", "r1", "--n", str(n),
                "--p", "0.5"], capsys)
        r1u = (tmp_path / f"exact_r1u_n{n}.csv").read_bytes()
        assert r1u == (tmp_path / f"exact_r1_n{n}_p0.5.csv").read_bytes()


def test_exact_domain_error_exit_code():
    assert main(["exact", "--rule", "r1", "--n", "2", "--p", "0.5"]) == 2
    assert main(["exact", "--rule", "r1", "--n", "5", "--p", "1.5"]) == 2
    assert main(["exact", "--rule", "r3", "--n", "5", "--p", "0.5"]) == 2


def test_exact_literal_recursion_refused():
    assert main(["exact", "--rule", "r2", "--n", "5", "--p", "0.4",
                 "--literal-recursion"]) == 2


@pytest.mark.parametrize("argv,filename", [
    (["det", "--n-range", "1:300"], "det_1_300.csv"),
    (["--format", "jsonl", "exact", "--rule", "r2", "--n", "50", "--p", "0.3"],
     "exact_r2_n50_p0.3.jsonl"),
    (["sweep", "--n-list", "60"],
     sweep_file([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], [60])),
])
def test_stdout_matches_file_bytes(tmp_path, argv, filename, capsys):
    printed = run_ok(argv, capsys)
    run_ok(["--out", str(tmp_path), *argv], capsys)
    assert (tmp_path / filename).read_bytes() == printed.encode()


def test_oracle_rational_csv(capsys):
    out = run_ok(["oracle", "--rule", "r1", "--n", "3", "--p-num", "3", "--p-den", "10"],
                 capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "n,num,den"
    assert lines[1:] == ["0,0,1", "1,7,10", "2,3,10"]


def test_oracle_r1u_is_r1_at_one_half(capsys):
    # every rule command offers the same rule names; r1u is r1 at p = 1/2
    alias = run_ok(["oracle", "--rule", "r1u", "--n", "9"], capsys)
    assert alias == run_ok(["oracle", "--rule", "r1", "--n", "9", "--p-num", "1", "--p-den", "2"],
                           capsys)
    assert alias.splitlines()[2] == "1,7,64"


@pytest.mark.parametrize("argv", [
    ["exact", "--rule", "r1", "--n", "5", "--p", "0.3", "--q", "0.5"],
    ["exact", "--rule", "deterministic", "--n", "5", "--p", "0.3"],
    ["exact", "--rule", "r1u", "--n", "5", "--q", "0.3"],
    ["oracle", "--rule", "deterministic", "--n", "5", "--p-num", "1", "--p-den", "3"],
    ["figure", "r1", "--n", "20", "--q-grid", "0.3"],
    # a mode refuses what it ignores, even a value equal to the default
    ["decay", "--p", "0.5", "--alpha", "2.0"],
    ["decay", "--p", "0.5", "--epsilon", "9"],
    ["decay", "--p", "0.5", "--alpha", "1.008"],
], ids=["r1-q", "deterministic-p", "r1u-q", "oracle-deterministic-p", "figure-r1-q-grid",
        "decay-p-alpha", "decay-p-epsilon", "decay-p-default-alpha"])
def test_parameters_a_rule_does_not_take_are_refused(tmp_path, argv, capsys):
    assert main(["--out", str(tmp_path), *argv]) == 2
    assert capsys.readouterr().err.startswith("domain error:")
    assert list(tmp_path.iterdir()) == []


def test_fixed_p_aliases_accept_their_own_p(capsys):
    assert (run_ok(["exact", "--rule", "deterministic", "--n", "41", "--p", "1"], capsys)
            == run_ok(["exact", "--rule", "r1", "--n", "41", "--p", "1"], capsys))
    assert (run_ok(["exact", "--rule", "r1u", "--n", "41", "--p", "0.5"], capsys)
            == run_ok(["exact", "--rule", "r1u", "--n", "41"], capsys))


@pytest.mark.parametrize("fraction", [["--p-num", "1", "--p-den", "0"],
                                      ["--p-num", "1", "--p-den", "2",
                                       "--q-num", "1", "--q-den", "0"]])
def test_oracle_zero_denominator_is_domain_error(fraction, capsys):
    assert main(["oracle", "--rule", "r3", "--n", "5", *fraction]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "Traceback" not in err


def test_oracle_cap_is_domain_error():
    assert main(["oracle", "--rule", "r1", "--n", "30", "--p-num", "1", "--p-den", "2"]) == 2


def test_simulate_counts(tmp_path, capsys):
    out = run_ok(["--out", str(tmp_path), "--seed", "5", "simulate", "--rule", "r2",
                  "--n", "12", "--p", "0.4", "--samples", "400"], capsys)
    path = tmp_path / "simulate_r2_n12_s400_seed5.csv"
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "n,count,freq"
    counts = [int(r.split(",")[1]) for r in rows[1:]]
    assert sum(counts) == 400


def test_moments_csv(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "moments", "--rule", "r1u", "--n-max", "50"], capsys)
    rows = (tmp_path / "moments_r1u_n3_50.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[:4] == ["n", "mean", "phi1", "phi2"]
    assert len(rows) == 49


def test_moments_names_keep_every_parameter(tmp_path, capsys):
    # runs that differ only in p write two tables and two manifests
    for p in ("0.3", "0.4"):
        run_ok(["--out", str(tmp_path), "moments", "--rule", "r1", "--p", p, "--n-max", "12"],
               capsys)
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"moments_r1_n3_12_p{p}.{ext}" for p in ("0.3", "0.4") for ext in ("csv", "manifest.json")]


def test_rerun_of_a_moments_manifest_naming_the_file_without_p(tmp_path, capsys):
    # moments tables used to drop p; the rerun writes the p-named file, so an
    # older manifest fails as a check naming the file it lists
    run_ok(["--out", str(tmp_path), "moments", "--rule", "r1", "--p", "0.3", "--n-max", "12"],
           capsys)
    stem, old = "moments_r1_n3_12_p0.3", "moments_r1_n3_12"
    (tmp_path / f"{stem}.csv").rename(tmp_path / f"{old}.csv")
    data = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    data["files"][0]["name"] = f"{old}.csv"
    manifest = tmp_path / f"{old}.manifest.json"
    manifest.write_text(json.dumps(data))
    (tmp_path / f"{stem}.manifest.json").unlink()
    before = sorted(tmp_path.iterdir())
    assert main(["rerun", str(manifest)]) == 3
    assert f"does not reproduce {old}.csv" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_decay_command(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "decay", "--p", "0.5", "--n-max", "200"], capsys)
    rec = json.loads((tmp_path / "decay.jsonl").read_text())
    assert rec["gamma"] > 1
    assert rec["k"] >= 1


def test_decay_p_with_no_feasible_gamma_is_domain_error(tmp_path, capsys):
    # inside (1/3, 2/3), yet so near 1/3 that no decay rate gamma > 1 is feasible
    assert main(["--out", str(tmp_path), "decay", "--p", "0.3333333343"]) == 2
    assert "no gamma > 1 is feasible at p=0.3333333343" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_decay_unbiased_infeasible_alpha_is_domain_error():
    assert main(["decay", "--unbiased", "--epsilon", "0.05", "--alpha", "1.2",
                 "--n-max", "50"]) == 2


@pytest.mark.parametrize("mode", [["--unbiased"], ["--p", "0.5"]])
@pytest.mark.parametrize("n_max", ["0", "5"])
def test_decay_short_n_max_is_domain_error(mode, n_max, capsys):
    # an explicit --n-max 0 is not replaced by the default
    assert main(["decay", *mode, "--n-max", n_max]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "Traceback" not in err


def test_decay_unbiased_short_fit_window_is_domain_error(capsys):
    # refused before any DP: the g_N(0) fit window [50, 40] would be empty
    assert main(["decay", "--unbiased", "--n-max", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "Traceback" not in err


def test_decay_unbiased_shortest_n_max_runs(tmp_path, capsys):
    # N = 50 and 52 are the two usable points of the g_N(0) fit window [50, 52]
    run_ok(["--out", str(tmp_path), "decay", "--unbiased", "--n-max", "52"], capsys)
    assert json.loads((tmp_path / "decay.jsonl").read_text())["n_max"] == 52


def test_decay_unstabilized_fit_exits_three(tmp_path):
    # over a range this short the fitted constant is still growing
    assert main(["--out", str(tmp_path), "decay", "--p", "0.5", "--n-max", "6"]) == 3


@pytest.mark.parametrize("mode,n_max,p", [(["--unbiased"], 1000, 0.5),
                                         (["--p", "0.45"], 500, 0.45)])
def test_decay_default_n_max_is_recorded(tmp_path, mode, n_max, p, capsys):
    run_ok(["--out", str(tmp_path), "decay", *mode], capsys)
    rec = json.loads((tmp_path / "decay.jsonl").read_text())
    assert (rec["n_max"], rec["p"]) == (n_max, p)
    config = json.loads((tmp_path / "decay.manifest.json").read_text())["config"]
    assert config["n_max"] == n_max


def test_clt_command(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "--seed", "3", "clt", "--l-max", "200",
            "--trials", "1000"], capsys)
    lines = (tmp_path / "clt_L200_T1000.jsonl").read_text().strip().splitlines()
    ensemble = json.loads(lines[-1])
    assert ensemble["trials"] == 1000
    assert len(ensemble["normalized_sums"]) == 1000
    per_l = [json.loads(l) for l in lines[:-1]]
    b = [r["b_l"] for r in per_l]
    assert b == sorted(b)


@pytest.mark.parametrize("excess, code", [(1e-9, 3), (-1e-9, 0)], ids=["above", "below"])
@pytest.mark.parametrize("field", ["ks_distance", "ks_distance_midpoint"])
def test_clt_checks_ks_against_the_berry_esseen_bound(tmp_path, field, excess, code,
                                                      capsys, monkeypatch):
    # the bound (plus |mean_shift|/sqrt(2 pi) for the midpoint centering)
    # plus the DKW-Massart margin at false-alarm rate 1e-6
    real = analysis.clt_experiment

    def at_the_bound(l_max, trials, seed):
        report = real(l_max, trials, seed)
        bound = {"ks_distance": report.berry_esseen_bound,
                 "ks_distance_midpoint": report.midpoint_bound}[field]
        return dataclasses.replace(report, **{field: bound + report.dkw_margin + excess})

    monkeypatch.setattr(analysis, "clt_experiment", at_the_bound)
    assert main(["--out", str(tmp_path), "clt", "--l-max", "100", "--trials", "1000"]) == code
    err = capsys.readouterr().err
    assert ("Berry-Esseen" in err) == (code == 3)
    assert (tmp_path / "clt_L100_T1000.jsonl").is_file()


@pytest.mark.parametrize("field, message", [
    ("b_l", "B_L is not strictly increasing"),
    ("lyapunov_ratio", "Lyapunov ratio did not decrease over the L grid"),
])
def test_clt_exits_3_after_writing_a_failed_trend(tmp_path, field, message, capsys,
                                                   monkeypatch):
    # reversed, B_L decreases and the Lyapunov ratio grows; the records hold what failed
    real = analysis.clt_experiment

    def reversed_field(l_max, trials, seed):
        report = real(l_max, trials, seed)
        return dataclasses.replace(report, **{field: getattr(report, field)[::-1]})

    monkeypatch.setattr(analysis, "clt_experiment", reversed_field)
    assert main(["--out", str(tmp_path), "clt", "--l-max", "100", "--trials", "1000"]) == 3
    assert message in capsys.readouterr().err
    lines = (tmp_path / "clt_L100_T1000.jsonl").read_text().splitlines()
    values = [json.loads(line)[field] for line in lines[:-1]]
    assert values == getattr(real(100, 1000, 0), field)[::-1].tolist()


@pytest.mark.parametrize("l_max", [10, 99, 100])
def test_clt_small_l_max_grid(tmp_path, l_max, capsys):
    # for l_max <= 100 the L grid starts at 3, so the Lyapunov ratio has
    # more than one point to decrease over
    run_ok(["--out", str(tmp_path), "clt", "--l-max", str(l_max), "--trials", "1000"],
           capsys)
    lines = (tmp_path / f"clt_L{l_max}_T1000.jsonl").read_text().strip().splitlines()
    per_l = [json.loads(l) for l in lines[:-1]]
    assert per_l[0]["l"] == 3 and per_l[-1]["l"] == l_max
    assert per_l[-1]["lyapunov_ratio"] < per_l[0]["lyapunov_ratio"]


def test_figure_r1_and_manifest(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "figure", "r1", "--n", "40",
            "--p-grid", "0.5,1"], capsys)
    stem = figure_stem("r1", 40, p_grid=[0.5, 1.0])
    manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    assert manifest["config"]["command"] == "figure"
    assert len(manifest["files"]) == 2
    assert manifest["hash"]
    point_mass = (tmp_path / "fig_r1_n40_p1.csv").read_text()
    assert point_mass.startswith("n,prob\n")
    probs = [float(r.split(",")[1]) for r in point_mass.strip().splitlines()[1:]]
    assert max(probs) == 1.0 and sum(probs) == 1.0


def test_figure_r2_exits_3_on_a_stray_argmax(tmp_path, monkeypatch, capsys):
    # at N >= 1000 and p in [0.4, 0.5] the exact argmax stays within 0.03N of (3p-1)N
    real = dp.distribution_for_rule
    monkeypatch.setattr(dp, "distribution_for_rule",
                        lambda spec, n: SurvivalDistribution(np.roll(real(spec, n).probs, 500)))
    assert main(["--out", str(tmp_path), "figure", "r2", "--n", "1000", "--p-grid", "0.4"]) == 3
    assert "strays from (3p-1)N = 200 at p=0.4" in capsys.readouterr().err


def test_figure_samples_writes_what_simulate_draws(tmp_path, capsys):
    # one CSV per point holding simulate's freq column at the same seed, byte for byte
    out = tmp_path / "fig"
    run_ok(["--out", str(out), "--seed", "7", "figure", "r1", "--n", "30",
            "--p-grid", "0.4,0.5", "--samples", "1000"], capsys)
    for p in ("0.4", "0.5"):
        table = run_ok(["--seed", "7", "simulate", "--rule", "r1", "--n", "30", "--p", p,
                        "--samples", "1000"], capsys)
        figure = (out / f"fig_r1_n30_p{p}_s1000_seed7.csv").read_text()
        assert ([line.split(",")[1] for line in figure.splitlines()[1:]]
                == [line.split(",")[2] for line in table.splitlines()[1:]])
    stem = figure_stem("r1", 30, p_grid=[0.4, 0.5], samples=1000, seed=7)
    manifest = out / f"{stem}.manifest.json"
    config = json.loads(manifest.read_text())["config"]
    assert (config["samples"], config["seed"]) == (1000, 7) and "montecarlo" not in config
    written = {path.name: path.read_bytes() for path in out.glob("*.csv")}
    for name in written:
        (out / name).unlink()
    run_ok(["rerun", str(manifest)], capsys)
    assert {path.name: path.read_bytes() for path in out.glob("*.csv")} == written


def test_figures_differing_in_n_or_sampling_keep_every_file(tmp_path, capsys):
    # manifests and scripts are named by N and the grids, sampled CSVs by S and the seed
    base = ["--out", str(tmp_path), "figure", "r1", "--p-grid", "0.3", "--gnuplot"]
    run_ok([*base, "--n", "20"], capsys)
    run_ok([*base, "--n", "30"], capsys)
    run_ok([*base, "--n", "20", "--samples", "100"], capsys)
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == [
        "fig_r1_n20_p0.3.csv", "fig_r1_n20_p0.3_s100_seed0.csv", "fig_r1_n30_p0.3.csv"]
    stems = [figure_stem("r1", 20, p_grid=[0.3]), figure_stem("r1", 30, p_grid=[0.3]),
             figure_stem("r1", 20, p_grid=[0.3], samples=100, seed=0)]
    for ext in ("gp", "manifest.json"):
        assert (sorted(path.name for path in tmp_path.glob(f"*.{ext}"))
                == sorted(f"{stem}.{ext}" for stem in stems))
    for stem in stems:
        run_ok(["rerun", str(tmp_path / f"{stem}.manifest.json")], capsys)


def test_rerun_of_a_figure_manifest_named_by_its_variant(tmp_path, capsys):
    # older figure manifests, figure_{variant}.manifest.json, record "montecarlo";
    # the CSV names they list are unchanged, so they still rerun
    run_ok(["--out", str(tmp_path), "figure", "r1", "--n", "20", "--p-grid", "0.3,0.6"], capsys)
    new = tmp_path / f"{figure_stem('r1', 20, p_grid=[0.3, 0.6])}.manifest.json"
    data = json.loads(new.read_text())
    data["config"]["montecarlo"] = False
    data["hash"] = config_hash(data["config"], data["version"])
    manifest = tmp_path / "figure_r1.manifest.json"
    manifest.write_text(json.dumps(data))
    new.unlink()
    written = {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")}
    for name in written:
        (tmp_path / name).unlink()
    run_ok(["rerun", str(manifest)], capsys)
    assert {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")} == written


def test_figure_r2_unbiased_file_matches_r1(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "figure", "r1", "--n", "60", "--p-grid", "0.5"], capsys)
    run_ok(["--out", str(tmp_path), "figure", "r2", "--n", "60", "--p-grid", "0.5"], capsys)
    a = np.loadtxt(tmp_path / "fig_r1_n60_p0.5.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(tmp_path / "fig_r2_n60_p0.5.csv", delimiter=",", skiprows=1)
    assert np.abs(a[:, 1] - b[:, 1]).max() <= 1e-12


def test_figure_r3_grid(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "figure", "r3", "--n", "30",
            "--p-grid", "0.5,1", "--q-grid", "1"], capsys)
    stem = figure_stem("r3", 30, p_grid=[0.5, 1.0], q_grid=[1.0])
    manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    assert len(manifest["files"]) == 2
    probs = np.loadtxt(tmp_path / "fig_r3_n30_p1_q1.csv", delimiter=",", skiprows=1)[:, 1]
    assert probs.max() == 1.0


def test_threads_option_is_gone(tmp_path):
    assert main(["--out", str(tmp_path), "--threads", "2", "figure", "r1",
                 "--n", "20", "--p-grid", "0.5"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_montecarlo_option_is_gone(tmp_path, capsys):
    # figure samples exactly when --samples is given
    assert main(["--out", str(tmp_path), "figure", "r1", "--n", "20", "--p-grid", "0.5",
                 "--montecarlo", "--samples", "50"]) == 2
    assert "--montecarlo" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_global_format_jsonl_for_tabular_commands(tmp_path, capsys):
    out = run_ok(["--format", "jsonl", "exact", "--rule", "r1", "--n", "4",
                  "--p", "0.5"], capsys)
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert records[0] == {"n": 0, "prob": 0.5}
    assert [r["prob"] for r in records] == [0.5, 0.25, 0.0, 0.25]
    run_ok(["--out", str(tmp_path), "--format", "jsonl", "det", "--n-range", "1:4"],
           capsys)
    rows = [json.loads(l) for l in (tmp_path / "det_1_4.jsonl").read_text().splitlines()]
    assert rows == [{"N": 1, "b_N": 1}, {"N": 2, "b_N": 1},
                    {"N": 3, "b_N": 3}, {"N": 4, "b_N": 1}]


@pytest.mark.parametrize("argv", [
    [], ["--gnuplot"], ["--samples", "50"],
], ids=["exact", "gnuplot", "montecarlo"])
def test_figure_refuses_jsonl_before_writing(argv, tmp_path, capsys):
    # figure writes CSV only, so an explicit --format jsonl is refused, not dropped
    assert main(["--out", str(tmp_path), "--format", "jsonl", "figure", "r1",
                 "--n", "10", "--p-grid", "0.5", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and "--format jsonl" in err
    assert list(tmp_path.iterdir()) == []
    run_ok(["--out", str(tmp_path), "--format", "csv", "figure", "r1",
            "--n", "10", "--p-grid", "0.5"], capsys)
    assert (tmp_path / "fig_r1_n10_p0.5.csv").is_file()


@pytest.mark.parametrize("argv, refused, accepted", [
    (["det", "--n", "41"], "csv", []),
    (["det", "--n", "41"], "jsonl", []),
    (["det", "--series-check", "64"], "jsonl", []),
    (["decay", "--p", "0.4", "--n-max", "20"], "csv", ["--format", "jsonl"]),
    (["clt", "--l-max", "20", "--trials", "1000"], "csv", ["--format", "jsonl"]),
    (["sweep", "--p-grid", "0.5", "--n-list", "10"], "csv", ["--format", "jsonl"]),
    (["figure", "r1", "--n", "10", "--p-grid", "0.5"], "jsonl", ["--format", "csv"]),
], ids=["det_n_csv", "det_n_jsonl", "det_series_check", "decay", "clt", "sweep", "figure"])
def test_command_refuses_a_format_it_does_not_write(argv, refused, accepted, tmp_path, capsys):
    # refused before any file is written; the format the command writes is accepted
    assert main(["--out", str(tmp_path), "--format", refused, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and f"--format {refused}" in err
    assert list(tmp_path.iterdir()) == []
    run_ok(["--out", str(tmp_path), *accepted, *argv], capsys)


@pytest.mark.parametrize("n_list", ["40,10,40", "12,3,7,12,5"])
def test_sweep_reads_every_n_from_one_dp_in_the_given_order(n_list, capsys):
    # one DP per p, records in --n-list order: the bytes of one DP per (p, N)
    ns, records = [int(n) for n in n_list.split(",")], []
    for p in (0.3, 0.5):
        for n in ns:
            near_zero, near_half = analysis.near_masses(dp.r1_distribution(n, p), 0.02)
            records.append({"p": p, "n": n, "delta": 0.02, "mass_near_zero": near_zero,
                            "mass_near_half": near_half, "assertive": False})
    out = run_ok(["sweep", "--p-grid", "0.3,0.5", "--n-list", n_list], capsys)
    assert out == io.jsonl_text(records)


@pytest.mark.parametrize("argv, types", [
    (["det", "--n-range", "3:40"], [int, int]),
    (["exact", "--rule", "r3", "--n", "30", "--p", "0.4", "--q", "0.75"], [int, float]),
    (["oracle", "--rule", "r2", "--n", "8", "--p-num", "3", "--p-den", "10"], [int, int, int]),
    (["simulate", "--rule", "r1", "--n", "20", "--p", "0.4", "--samples", "500"],
     [int, int, float]),
    (["moments", "--rule", "r2", "--p", "0.3", "--n-max", "12"], [int] + [float] * 9),
], ids=["det", "exact", "oracle", "simulate", "moments"])
def test_jsonl_records_are_the_csv_rows(argv, types, capsys):
    # both formats render the same plain Python values, one record per CSV row
    lines = run_ok(argv, capsys).splitlines()
    records = [json.loads(l) for l in run_ok(["--format", "jsonl", *argv], capsys).splitlines()]
    header = lines[0].split(",")
    assert len(records) == len(lines) - 1
    for line, rec in zip(lines[1:], records):
        assert list(rec) == sorted(header)
        assert [type(rec[h]) for h in header] == types
        assert line == ",".join(
            format(rec[h], ".17g") if isinstance(rec[h], float) else str(rec[h]) for h in header)


def test_figure_gnuplot_script(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "figure", "r1", "--n", "30",
            "--p-grid", "0.4,0.6", "--gnuplot"], capsys)
    stem = figure_stem("r1", 30, p_grid=[0.4, 0.6])
    script = (tmp_path / f"{stem}.gp").read_text()
    assert "fig_r1_n30_p0.4.csv" in script and "plot" in script
    manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    assert any(f["name"].endswith(".gp") for f in manifest["files"])


def test_sweep_refuses_non_integer_n(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sweep", "--p-grid", "0.5",
                 "--n-list", "500.7"]) == 2
    assert capsys.readouterr().err.startswith("domain error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", [["--p-grid", " , "], ["--n-list", ","]])
def test_sweep_refuses_an_empty_grid_before_writing(tmp_path, grid, capsys):
    # a sweep over no (p, N) pair checks nothing, so it must not look like a success
    assert main(["--out", str(tmp_path), "sweep", *grid]) == 2
    assert "got none" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("delta", ["-1", "0", "0.7"])
def test_sweep_refuses_delta_outside_quarter(tmp_path, delta, capsys):
    # the near-0 and near-1/2 windows are disjoint and nonempty only for 0 < delta <= 1/4
    assert main(["--out", str(tmp_path), "sweep", "--p-grid", "0.5",
                 "--n-list", "100", "--delta", delta]) == 2
    assert capsys.readouterr().err.startswith("domain error:")
    assert list(tmp_path.iterdir()) == []


def test_sweep_jsonl_non_assertive(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "sweep", "--p-grid", "0.5",
            "--n-list", "100,200", "--delta", "0.02"], capsys)
    text = (tmp_path / sweep_file([0.5], [100, 200])).read_text()
    records = [json.loads(l) for l in text.splitlines()]
    assert all(rec["assertive"] is False for rec in records)
    by_n = {rec["n"]: rec["mass_near_half"] for rec in records}
    assert by_n[200] >= by_n[100] * 0.9  # trend is reported, not asserted


def test_sweeps_differing_only_in_delta_write_two_files(tmp_path, capsys):
    # the name hashes the parsed values, so --p-grid 0.50 names the 0.5 file
    base = ["--out", str(tmp_path), "sweep", "--n-list", "20"]
    run_ok([*base, "--p-grid", "0.5", "--delta", "0.02"], capsys)
    run_ok([*base, "--p-grid", "0.5", "--delta", "0.03"], capsys)
    run_ok([*base, "--p-grid", "0.50", "--delta", "0.02"], capsys)
    tables = sorted(p.name for p in tmp_path.glob("sweep_*.jsonl"))
    assert tables == sorted([sweep_file([0.5], [20]), sweep_file([0.5], [20], 0.03)])
    assert len(list(tmp_path.glob("sweep_*.manifest.json"))) == 2


def test_rerun_of_a_sweep_manifest_naming_sweep_jsonl(tmp_path, capsys):
    # sweeps used to write sweep.jsonl; the rerun now writes the parameter-named
    # file, so an older manifest fails as a check naming the file it lists
    run_ok(["--out", str(tmp_path), "sweep", "--p-grid", "0.5", "--n-list", "20"], capsys)
    name = sweep_file([0.5], [20])
    (tmp_path / name).rename(tmp_path / "sweep.jsonl")
    data = json.loads((tmp_path / f"{name[:-6]}.manifest.json").read_text())
    data["files"][0]["name"] = "sweep.jsonl"
    manifest = tmp_path / "sweep.manifest.json"
    manifest.write_text(json.dumps(data))
    (tmp_path / f"{name[:-6]}.manifest.json").unlink()
    before = sorted(tmp_path.iterdir())
    assert main(["rerun", str(manifest)]) == 3
    assert "does not reproduce sweep.jsonl" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_rerun_reproduces_byte_identical_output(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "--seed", "11", "figure", "r1", "--n", "45",
            "--p-grid", "0.3,0.7"], capsys)
    files = ["fig_r1_n45_p0.3.csv", "fig_r1_n45_p0.7.csv"]
    before = {f: file_sha256(tmp_path / f) for f in files}
    for f in files:
        (tmp_path / f).unlink()
    run_ok(["rerun", str(tmp_path / f"{figure_stem('r1', 45, p_grid=[0.3, 0.7])}.manifest.json")],
           capsys)
    after = {f: file_sha256(tmp_path / f) for f in files}
    assert before == after


def test_rerun_reproduces_monte_carlo_counts(tmp_path, capsys):
    args = ["--out", str(tmp_path), "--seed", "21", "simulate", "--rule", "r1",
            "--n", "25", "--p", "0.5", "--samples", "300"]
    run_ok(args, capsys)
    name = "simulate_r1_n25_s300_seed21.csv"
    first = (tmp_path / name).read_bytes()
    (tmp_path / name).unlink()
    run_ok(["rerun", str(tmp_path / f"{name[:-4]}.manifest.json")], capsys)
    assert (tmp_path / name).read_bytes() == first


@pytest.mark.parametrize("argv", [
    ["det", "--n-range", "1:20"],
    ["exact", "--rule", "r1", "--n", "10", "--p", "0.3"],
    ["oracle", "--rule", "r3", "--n", "6", "--p-num", "1", "--p-den", "2",
     "--q-num", "1", "--q-den", "3"],
    ["--seed", "4", "simulate", "--rule", "r3", "--n", "9", "--p", "0.4", "--q", "0.7",
     "--samples", "50"],
    ["--format", "jsonl", "moments", "--rule", "r2", "--p", "0.3", "--n-max", "12"],
    ["decay", "--p", "0.5", "--n-max", "20"],
    ["decay", "--unbiased", "--n-max", "60"],
    ["--seed", "2", "clt", "--l-max", "10", "--trials", "1000"],
    ["figure", "r3", "--n", "12", "--p-grid", "0.5", "--q-grid", "0.25,1", "--gnuplot"],
    ["sweep", "--p-grid", "0.4", "--n-list", "10,20"],
], ids=["det", "exact", "oracle", "simulate", "moments-jsonl", "decay-p", "decay-unbiased",
        "clt", "figure-gnuplot", "sweep"])
def test_rerun_round_trip_of_every_writing_command(tmp_path, argv, capsys):
    # writing under --out prints nothing, and rerun prints one status line
    assert run_ok(["--out", str(tmp_path), *argv], capsys) == ""
    [manifest] = tmp_path.glob("*.manifest.json")
    assert json.loads(manifest.read_text())["config"]["command"] == _command_of(argv)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != manifest}
    assert sorted(written) == sorted(f["name"] for f in json.loads(manifest.read_text())["files"])
    for name in written:
        (tmp_path / name).unlink()
    out = run_ok(["rerun", str(manifest)], capsys)
    assert out == f"reproduced {len(written)} files under {tmp_path}\n"
    assert {name: (tmp_path / name).read_bytes() for name in written} == written


def test_rerun_of_det_manifest_recording_method(tmp_path, capsys):
    # det manifests written while det had --method carry "method" in their config
    run_ok(["--out", str(tmp_path), "det", "--n-range", "1:9"], capsys)
    manifest = tmp_path / "det_1_9.manifest.json"
    data = json.loads(manifest.read_text())
    data["config"]["method"] = "recurrence"
    data["hash"] = config_hash(data["config"], data["version"])
    manifest.write_text(json.dumps(data))
    target = tmp_path / "det_1_9.csv"
    first = target.read_bytes()
    target.unlink()
    run_ok(["rerun", str(manifest)], capsys)
    assert target.read_bytes() == first


def test_rerun_refuses_method_in_recorded_argv(tmp_path, capsys):
    # the recorded sha256 is that of the table, so only the refused option fails
    table = run_ok(["det", "--n-range", "1:5"], capsys).encode()
    argv = ["--out", str(tmp_path), "det", "--n-range", "1:5", "--method", "rotation"]
    manifest = tmp_path / "det_1_5.manifest.json"
    manifest.write_text(json.dumps({
        "config": {"schema": 1, "argv": argv, "command": "det", "n_range": [1, 5],
                   "method": "rotation"},
        "files": [{"name": "det_1_5.csv", "sha256": hashlib.sha256(table).hexdigest()}],
        "hash": "", "version": "0.1.0",
    }))
    assert main(["rerun", str(manifest)]) == 3
    assert list(tmp_path.iterdir()) == [manifest]


def test_rerun_refuses_output_it_does_not_reproduce(tmp_path, capsys):
    run_ok(["--out", str(tmp_path), "figure", "r1", "--n", "30", "--p-grid", "0.3,0.7"],
           capsys)
    manifest = tmp_path / f"{figure_stem('r1', 30, p_grid=[0.3, 0.7])}.manifest.json"
    target = tmp_path / "fig_r1_n30_p0.3.csv"
    # a tampered CSV under an intact manifest is regenerated and restored
    original = target.read_bytes()
    target.write_bytes(b"tampered\n")
    run_ok(["rerun", str(manifest)], capsys)
    assert target.read_bytes() == original
    # a manifest that records bytes the run does not produce fails the rerun
    target.write_bytes(b"tampered\n")
    data = json.loads(manifest.read_text())
    for entry in data["files"]:
        if entry["name"] == target.name:
            entry["sha256"] = file_sha256(target)
    manifest.write_text(json.dumps(data))
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["rerun", str(manifest)]) == 3
    assert target.name in capsys.readouterr().err
    assert target.read_bytes() == b"tampered\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_rerun_handles_out_equals_form(tmp_path, capsys):
    run_ok([f"--out={tmp_path}", "det", "--n-range", "1:5"], capsys)
    target = tmp_path / "det_1_5.csv"
    first = target.read_bytes()
    target.unlink()
    run_ok(["rerun", str(tmp_path / "det_1_5.manifest.json")], capsys)
    assert target.read_bytes() == first


@pytest.mark.parametrize("prefix", [[], ["--seed", "3"], ["--format", "csv"]],
                         ids=["bare", "seed", "format"])
def test_rerun_refuses_a_manifest_that_reruns(tmp_path, prefix, capsys):
    # a manifest recording a rerun of itself would recurse without end
    manifest = tmp_path / "loop.manifest.json"
    manifest.write_text(json.dumps({
        "config": {"schema": 1, "argv": [*prefix, "rerun", str(manifest)]},
        "files": [{"name": "det_1_5.csv", "sha256": "0" * 64}], "hash": "", "version": "0.1.0",
    }))
    assert main(["rerun", str(manifest)]) == 2
    assert "records a rerun" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [manifest]


@pytest.mark.parametrize("argv", [None, [], "det --n 5", ["det", "--n", 5]],
                         ids=["missing", "empty", "string", "number"])
def test_rerun_refuses_argv_that_is_not_strings(tmp_path, argv, capsys):
    manifest = tmp_path / "det.manifest.json"
    manifest.write_text(json.dumps({
        "config": {"schema": 1, "argv": argv},
        "files": [{"name": "det.csv", "sha256": "0" * 64}], "hash": "", "version": "0.1.0",
    }))
    assert main(["rerun", str(manifest)]) == 2
    assert "arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [manifest]


def test_rerun_rejects_unknown_config_keys(tmp_path):
    manifest = tmp_path / "bad.manifest.json"
    manifest.write_text(json.dumps({
        "config": {"schema": 1, "argv": ["det", "--n", "5"], "surprise": 1},
        "files": [], "hash": "", "version": "0.1.0",
    }))
    assert main(["rerun", str(manifest)]) == 2


def test_rerun_refuses_manifest_without_files(tmp_path, capsys):
    # a manifest that lists no files verifies nothing
    manifest = tmp_path / "det_1_5.manifest.json"
    manifest.write_text(json.dumps({
        "config": {"schema": 1, "argv": ["det", "--n-range", "1:5"], "command": "det",
                   "n_range": [1, 5]},
        "files": [], "hash": "", "version": "0.1.0",
    }))
    assert main(["rerun", str(manifest)]) == 2
    assert capsys.readouterr().err.startswith("domain error:")
    assert list(tmp_path.iterdir()) == [manifest]


@pytest.mark.parametrize("entry", [
    {"name": "det_1_5.csv"},
    {"name": "../det_1_5.csv", "sha256": "0" * 64},
    {"name": "/etc/hostname", "sha256": "0" * 64},
], ids=["no-sha256", "parent-dir", "absolute"])
def test_rerun_rejects_malformed_file_entries(tmp_path, entry, capsys):
    manifest = tmp_path / "det_1_5.manifest.json"
    manifest.write_text(json.dumps({
        "config": {"schema": 1, "argv": ["det", "--n-range", "1:5"]},
        "files": [entry], "hash": "", "version": "0.1.0",
    }))
    assert main(["rerun", str(manifest)]) == 2
    assert capsys.readouterr().err.startswith("domain error:")
    assert list(tmp_path.iterdir()) == [manifest]


def test_rerun_refuses_montecarlo_in_recorded_argv(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "figure", "r1", "--n", "20", "--p-grid", "0.5",
            "--montecarlo", "--samples", "50"]
    manifest = tmp_path / "figure_r1.manifest.json"
    manifest.write_text(json.dumps({
        "config": {"schema": 1, "argv": argv, "command": "figure", "variant": "r1",
                   "n": 20, "p_grid": [0.5], "montecarlo": True, "samples": 50, "seed": 0},
        "files": [], "hash": "", "version": "0.1.0",
    }))
    assert main(["rerun", str(manifest)]) == 3
    assert list(tmp_path.iterdir()) == [manifest]


def test_rerun_refuses_threads_in_recorded_argv(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "--threads", "2", "figure", "r1", "--n", "20",
            "--p-grid", "0.5"]
    manifest = tmp_path / "figure_r1.manifest.json"
    manifest.write_text(json.dumps({
        "config": {"schema": 1, "argv": argv, "command": "figure", "variant": "r1",
                   "n": 20, "p_grid": [0.5], "montecarlo": False},
        "files": [], "hash": "", "version": "0.1.0",
    }))
    assert main(["rerun", str(manifest)]) == 3
    assert list(tmp_path.iterdir()) == [manifest]


@pytest.mark.parametrize("text", [
    "not json {", "[1, 2]", '{"config": [], "files": []}',
    '{"config": {"schema": 1, "argv": ["det", "--n-range", "1:5"]}, "files": 5}',
], ids=["not-json", "list", "config-list", "files-number"])
def test_rerun_refuses_a_malformed_manifest(tmp_path, text, capsys):
    manifest = tmp_path / "det_1_5.manifest.json"
    manifest.write_text(text)
    assert main(["rerun", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [manifest]


@pytest.mark.parametrize("flags", [["--out", "elsewhere"], ["--format", "jsonl"],
                                   ["--format", "csv"]], ids=["out", "jsonl", "csv"])
def test_rerun_refuses_global_flags_it_ignores(tmp_path, flags, capsys, monkeypatch):
    # rerun writes beside its manifest in the recorded format; --seed stays accepted
    run_ok(["--out", str(tmp_path), "det", "--n-range", "1:5"], capsys)
    manifest = tmp_path / "det_1_5.manifest.json"
    before = sorted(tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    assert main([*flags, "rerun", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and " ".join(flags) in err
    assert sorted(tmp_path.iterdir()) == before
    run_ok(["--seed", "3", "rerun", str(manifest)], capsys)


def test_rerun_of_a_manifest_recording_a_refused_format(tmp_path, capsys):
    # an older decay manifest recording --format csv no longer runs: a failed check
    run_ok(["--out", str(tmp_path), "decay", "--p", "0.4", "--n-max", "20"], capsys)
    manifest = tmp_path / "decay.manifest.json"
    data = json.loads(manifest.read_text())
    data["config"]["argv"] = ["--out", str(tmp_path), "--format", "csv", "decay",
                              "--p", "0.4", "--n-max", "20"]
    manifest.write_text(json.dumps(data))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["rerun", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert "domain error: decay does not use --format csv" in err
    assert "check failed: rerun exited with code 2" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_exact_names_keep_every_parameter(tmp_path, capsys):
    # :g keeps six significant digits; a value it would round is named by repr
    for p in ("0.3", "0.3000001"):
        run_ok(["--out", str(tmp_path), "exact", "--rule", "r1", "--n", "5", "--p", p], capsys)
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "exact_r1_n5_p0.3.csv", "exact_r1_n5_p0.3000001.csv"]
    run_ok(["--out", str(tmp_path), "figure", "r3", "--n", "5", "--p-grid", "0.1234567",
            "--q-grid", "0.75"], capsys)
    assert (tmp_path / "fig_r3_n5_p0.1234567_q0.75.csv").is_file()


def test_out_that_cannot_be_created_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    assert main(["--out", str(out), "det", "--n-range", "1:5"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(out) in err


def test_bad_flag_is_usage_error():
    assert main(["exact", "--rule", "bogus", "--n", "5"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_every_exported_name_resolves():
    # catches an export left behind by a deleted name
    import importlib
    import pkgutil

    import josephus

    modules = [josephus, *(importlib.import_module(f"josephus.{m.name}")
                           for m in pkgutil.iter_modules(josephus.__path__))]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
