"""Command-line interface: exact distributions, simulation, checks, figures.

The CLI parses arguments and writes output: every exit-3 condition but
``rerun``'s is a library function that returns its failure messages, such as
``analysis.CltReport.failures``.  Exit codes: 0 success, 2 domain error (bad
arguments or infeasible parameters), 3 failed check.  Every file-writing run
also writes a manifest (``io.write_manifest``) embedding the full config and
seed, so any output is self-describing; ``josephus rerun MANIFEST`` replays
it and keeps the new files only if every sha256 matches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import click

from . import __version__, analysis, deterministic, dp, io, simulate
from .distributions import SurvivalDistribution
from .errors import CheckFailure, DomainError, KernelBuildError
from .rules import RuleKind, RuleSpec

# rule name -> (kind, fixed p); the aliases are named points of r1
_RULES = {
    "deterministic": (RuleKind.R1, 1),  # the classical game
    "r1": (RuleKind.R1, None),
    "r1u": (RuleKind.R1, 0.5),  # the unbiased game
    "r2": (RuleKind.R2, None),
    "r3": (RuleKind.R3, None),
}


def _build_rule(rule: str, p, q) -> RuleSpec:
    """The rule a CLI name and its parameters denote; ``RuleSpec`` checks p and q."""
    kind, fixed = _RULES[rule]
    if fixed is not None:
        if p not in (None, fixed):
            raise DomainError(f"rule {rule} is r1 at p={fixed}; omit --p or pass {fixed}")
        p = fixed
    return RuleSpec(kind, p=p, q=q)


def _ratio(num, den, name: str) -> Fraction | None:
    """The exact value of --NAME-num/--NAME-den, or None when both are absent."""
    if (num is None) != (den is None) or den == 0:
        raise DomainError(f"--{name}-num and --{name}-den go together, with --{name}-den != 0")
    return None if num is None else Fraction(num, den)


def _parse_grid(text: str, flag: str, kind=float) -> list:
    """The comma-separated values of ``text``, each parsed by ``kind``; at least one.

    A grid of no value would run nothing and still look like a success.
    """
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"cannot parse {flag} {text!r}: {exc}") from None
    if not values:
        raise DomainError(f"need at least one value in {flag}, got none")
    return values


def _label(x: float) -> str:
    """``x`` in a file name: by ``:g`` when that gives back the float, else by ``repr``."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _emit(ctx, name: str, header, columns, config) -> Path | None:
    """Print a table, given by columns, to stdout, or write it under --out.

    Tabular commands honour the global --format: csv (default) or one
    JSON record per row.  The columns are checked before anything is
    printed or written.
    """
    ext = ctx.obj["format"]
    return _sink(ctx, name, ext, io._table_blocks(ext, header, columns), config)


def _sink(ctx, name: str, ext: str, text: str | Iterable[str],
          config: dict | None = None) -> Path | None:
    """Echo ``text``, one string or its blocks in order, or write it as ``name.ext`` under --out.

    Blocks are echoed or written as they come, so only one is held at a
    time.  The file is written atomically; a ``config`` also writes the run
    manifest ``name.manifest.json``.
    """
    out = ctx.obj.get("out")
    if out is None:
        for chunk in [text] if isinstance(text, str) else text:
            click.echo(chunk, nl=False)
        return None
    path = Path(out) / f"{name}.{ext}"
    io.atomic_write_text(path, text)
    if config is not None:
        _write_run_manifest(ctx, name, [path], config)
    return path


def _write_run_manifest(ctx, name: str, paths: list[Path], config: dict) -> None:
    config = {"argv": ctx.obj.get("argv", []), "command": ctx.info_name, **config}
    io.write_manifest(Path(ctx.obj["out"]) / f"{name}.manifest.json", config, __version__, paths)


@click.group()
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Output directory; files are written atomically.")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Master 64-bit seed for seeded commands.")
@click.version_option(version=__version__)
@click.pass_context
def cli(ctx, out, fmt, seed):
    """Probabilistic Josephus laboratory: exact DP, simulation, limit checks."""
    ctx.ensure_object(dict)
    ctx.obj.update(out=out, format=fmt, seed=seed)


@cli.command()
@click.option("--n", type=int, default=None, help="Single participant count.")
@click.option("--n-range", default=None, help="Inclusive range A:B; emits CSV N,b_N.")
@click.option("--series-check", type=int, default=None, metavar="D",
              help="Verify the generating-series coefficients up to degree D.")
@click.pass_context
def det(ctx, n, n_range, series_check):
    """Survivor of the classical deterministic game, by the halving recurrence."""
    modes = _given(n=n, n_range=n_range, series_check=series_check)
    if len(modes) != 1:
        raise DomainError("det takes exactly one of --n, --n-range, --series-check, got "
                          f"{len(modes)}")
    if n_range is None:
        _refuse(ctx, "det --n" if n is not None else "det --series-check", "fmt")
    if series_check is not None:
        _check(deterministic.series_failures(series_check))
        click.echo(f"series check OK up to degree {series_check}")
        return
    if n_range is not None:
        try:
            a, b = (int(tok) for tok in n_range.split(":"))
        except ValueError:
            raise DomainError(f"--n-range expects A:B, got {n_range!r}") from None
        if not 1 <= a <= b:
            raise DomainError(f"need 1 <= A <= B in --n-range, got {n_range!r}")
        seq = deterministic.survivor_sequence(b)
        _emit(ctx, f"det_{a}_{b}", ["N", "b_N"], [range(a, b + 1), seq[a - 1:]],
              {"n_range": [a, b]})
        return
    click.echo(str(deterministic.survivor_recurrence(n)))


def _refuse(ctx, mode: str, *names: str, reads=()) -> None:
    """Refuse each option ``names`` passed explicitly with a value ``mode`` ignores.

    ``out`` and ``fmt`` are the group's options, the rest the command's;
    ``reads`` holds the values that ``mode`` does read.
    """
    for name in names:
        owner = ctx.find_root() if name in ("out", "fmt") else ctx
        value = owner.params[name]
        if (owner.get_parameter_source(name) is not click.core.ParameterSource.DEFAULT
                and value not in reads):
            [flag] = (param.opts[0] for param in owner.command.params if param.name == name)
            raise DomainError(f"{mode} does not use {flag} {value}; omit it")


def _check(failures: list[str]) -> None:
    if failures:  # exit 3 naming every failed condition, in the order given
        raise CheckFailure("; ".join(failures))


def _given(**params) -> dict:
    """The parameters that were passed, for file names and manifests."""
    return {k: v for k, v in params.items() if v is not None}


def _suffix(**params) -> str:
    """``_{name}{value}`` for each parameter passed, in order, as file names carry them."""
    return "".join(f"_{k}{_label(v)}" for k, v in _given(**params).items())


def _digest(params: dict) -> str:
    """The first 12 hex digits of the sha256 of ``params``, for a file name."""
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]


@cli.command()
@click.option("--rule", type=click.Choice(sorted(_RULES)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, default=None)
@click.option("--q", type=float, default=None)
@click.pass_context
def exact(ctx, rule, n, p, q):
    """Exact DP survival distribution; CSV schema n,prob."""
    dist = dp.distribution_for_rule(_build_rule(rule, p, q), n)
    _emit(ctx, f"exact_{rule}_n{n}" + _suffix(p=p, q=q), ["n", "prob"], [range(n), dist.probs],
          {"n": n, "rule": rule, **_given(p=p, q=q)})


@cli.command()
@click.option("--rule", type=click.Choice(sorted(_RULES)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p-num", type=int, default=None)
@click.option("--p-den", type=int, default=None)
@click.option("--q-num", type=int, default=None)
@click.option("--q-den", type=int, default=None)
@click.pass_context
def oracle(ctx, rule, n, p_num, p_den, q_num, q_den):
    """Exhaustive-enumeration oracle; emits exact rationals n,num,den."""
    p, q = _ratio(p_num, p_den, "p"), _ratio(q_num, q_den, "q")
    spec = _build_rule(rule, p, q)
    dist = simulate.oracle_distribution(spec, n)
    columns = [range(n), [f.numerator for f in dist.exact], [f.denominator for f in dist.exact]]
    cfg = {"rule": rule, "n": n,
           **_given(p_num=p_num, p_den=p_den, q_num=q_num, q_den=q_den)}
    _emit(ctx, f"oracle_{rule}_n{n}", ["n", "num", "den"], columns, cfg)


@cli.command("simulate")
@click.option("--rule", type=click.Choice(sorted(_RULES)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, default=None)
@click.option("--q", type=float, default=None)
@click.option("--samples", type=int, required=True)
@click.pass_context
def simulate_cmd(ctx, rule, n, p, q, samples):
    """Seeded Monte Carlo; CSV schema n,count,freq."""
    spec = _build_rule(rule, p, q)
    seed = ctx.obj["seed"]
    dist = simulate.empirical_distribution(spec, n, samples, seed)
    name = f"simulate_{rule}_n{n}_s{samples}_seed{seed}"
    _emit(ctx, name, ["n", "count", "freq"], [range(n), dist.counts, dist.probs],
          {"n": n, "samples": samples, "seed": seed, "rule": rule, **_given(p=p, q=q)})


@cli.command()
@click.option("--rule", type=click.Choice(sorted(_RULES)), default="r1u", show_default=True)
@click.option("--n-min", type=int, default=3, show_default=True)
@click.option("--n-max", type=int, required=True)
@click.option("--p", type=float, default=None)
@click.option("--q", type=float, default=None)
@click.pass_context
def moments(ctx, rule, n_min, n_max, p, q):
    """Per-N moment sweep (mean, phi_k moments, variance, eta, g0)."""
    table = analysis.moment_report(_build_rule(rule, p, q), n_min, n_max)
    header = [f.name for f in dataclasses.fields(table)]
    _emit(ctx, f"moments_{rule}_n{n_min}_{n_max}" + _suffix(p=p, q=q), header,
          [getattr(table, h) for h in header],
          {"n_min": n_min, "n_max": n_max, "rule": rule, **_given(p=p, q=q)})


@cli.command()
@click.option("--p", type=float, default=None, help="Middle-range bound for this p.")
@click.option("--unbiased", is_flag=True, help="Fit the unbiased-rule bound instead.")
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--alpha", type=float, default=1.008, show_default=True)
@click.option("--n-max", type=int, default=None, help="Default 500 (middle) / 1000 (unbiased).")
@click.pass_context
def decay(ctx, p, unbiased, epsilon, alpha, n_max):
    """Fit exponential survival-decay constants; exit 3 if K has not stabilised."""
    _refuse(ctx, "decay", "fmt", reads={"jsonl"})
    if unbiased == (p is not None):
        raise DomainError("pass exactly one of --p or --unbiased")
    if n_max is None:
        n_max = 1000 if unbiased else 500
    if unbiased:
        if n_max < 52:  # N = 50, 52 are the window's first two N not divisible by 3
            raise DomainError(f"decay --unbiased needs --n-max >= 52, so that its g_N(0) fit "
                              f"window [50, min(n_max, 1000)] holds two usable N; got {n_max}")
        p = 0.5
        fit = analysis.unbiased_decay_check(n_max, epsilon, alpha)
        slope, r2 = analysis.g0_exponential_fit(50, min(n_max, 1000))
        extra = {"epsilon": epsilon, "alpha": alpha, "g0_log_slope": slope, "g0_log_r2": r2}
        cfg = {"unbiased": True, "epsilon": epsilon, "alpha": alpha, "n_max": n_max}
    else:
        _refuse(ctx, "decay --p", "epsilon", "alpha")
        fit = analysis.decay_bound_check(p, n_max)
        extra = {}
        cfg = {"p": p, "n_max": n_max}
    record = {"p": p, **dataclasses.asdict(fit), "stabilization_ratio": fit.stabilization_ratio,
              "n_max": n_max, **extra}
    _sink(ctx, "decay", "jsonl", io.jsonl_text([record]), cfg)
    _check(fit.failures(n_max))


@cli.command()
@click.option("--l-max", type=int, default=10000, show_default=True)
@click.option("--trials", type=int, default=10000, show_default=True)
@click.pass_context
def clt(ctx, l_max, trials):
    """Unbiased CLT experiment: B_L, Lyapunov ratio, trial ensemble, KS distance."""
    _refuse(ctx, "clt", "fmt", reads={"jsonl"})
    report = analysis.clt_experiment(l_max, trials, ctx.obj["seed"])
    records = [
        {"l": int(l), "b_l": float(b), "lyapunov_ratio": float(r)}
        for l, b, r in zip(report.l_values, report.b_l, report.lyapunov_ratio)
    ]
    records.append({
        "ensemble": True, "l_max": l_max, "trials": trials,
        "seed": ctx.obj["seed"], "ks_distance": report.ks_distance,
        "ks_distance_midpoint": report.ks_distance_midpoint,
        "mean_shift": report.mean_shift,
        "normalized_sums": report.normalized_sums.tolist(),
        "normalized_sums_midpoint": report.normalized_sums_midpoint.tolist(),
    })
    _sink(ctx, f"clt_L{l_max}_T{trials}", "jsonl", io.jsonl_text(records),
          {"l_max": l_max, "trials": trials, "seed": ctx.obj["seed"]})
    _check(report.failures())


_R3_DEFAULT_AXIS = [0.25, 0.5, 0.75]
_FIGURE_DEFAULTS = {
    "r1": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "r2": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
    "r3": _R3_DEFAULT_AXIS,
}


def _figure_one(ctx, variant, n, spec, samples, failures: list[str]) -> Path:
    """Write one grid point's CSV; a failed r2 argmax check adds its message to ``failures``."""
    p, q = spec.p, spec.q
    name = f"fig_{variant}_n{n}" + _suffix(p=p, q=q)
    if samples is None:
        dist = dp.distribution_for_rule(spec, n)
    else:
        seed = ctx.obj["seed"]
        dist = simulate.empirical_distribution(spec, n, samples, seed)
        name += f"_s{samples}_seed{seed}"
    path = _emit(ctx, name, ["n", "prob"], [range(n), dist.probs], None)
    if variant == "r2" and samples is None:  # a sampled row is not held to (3p-1)N
        failures += analysis.r2_argmax_failures(p, dist.probs)
    return path


@cli.command()
@click.argument("variant", type=click.Choice(["r1", "r2", "r3"]))
@click.option("--n", type=int, default=2000, show_default=True)
@click.option("--p-grid", default=None, help="Comma-separated p values.")
@click.option("--q-grid", default=None, help="Comma-separated q values (r3).")
@click.option("--samples", type=int, default=None,
              help="Sample this many runs per point instead of the exact DP.")
@click.option("--gnuplot", is_flag=True, help="Also write a gnuplot script for the CSVs.")
@click.pass_context
def figure(ctx, variant, n, p_grid, q_grid, samples, gnuplot):
    """Reproduce one figure set: one CSV per grid point plus a manifest."""
    if ctx.obj.get("out") is None:
        raise DomainError("figure requires --out DIR")
    _refuse(ctx, "figure", "fmt", reads={"csv"})
    ps = _FIGURE_DEFAULTS[variant] if p_grid is None else _parse_grid(p_grid, "--p-grid")
    qs = ((_R3_DEFAULT_AXIS if variant == "r3" else [None]) if q_grid is None
          else _parse_grid(q_grid, "--q-grid"))
    # every point is checked before the first file is written
    specs = [_build_rule(variant, p, q) for p in ps for q in qs]
    for flag, grid in (("--p-grid", ps), ("--q-grid", qs)):
        if len(set(grid)) < len(grid):  # a repeat would write one file twice
            raise DomainError(f"{flag} lists {max(grid, key=grid.count)} more than once")
    failures: list[str] = []
    paths = sorted(_figure_one(ctx, variant, n, spec, samples, failures) for spec in specs)
    # named by the parsed grids and the sampling, as sweep names its file
    params = {"p_grid": ps}
    if variant == "r3":
        params["q_grid"] = qs
    if samples is not None:
        params.update(samples=samples, seed=ctx.obj["seed"])
    name = f"figure_{variant}_n{n}_{_digest(params)}"
    if gnuplot:
        paths.append(_write_gnuplot_script(ctx, name, paths))
    _write_run_manifest(ctx, name, paths, {"variant": variant, "n": n, **params})
    _check(failures)  # as decay and clt: every file and the manifest are written first


def _write_gnuplot_script(ctx, name: str, csv_paths: list[Path]) -> Path:
    plots = ",\\\n    ".join(
        f"'{p.name}' using 1:2 with lines title '{p.stem.split('_', 2)[-1]}'"
        for p in csv_paths
    )
    text = (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'participant'\nset ylabel 'survival probability'\n"
        f"plot {plots}\n"
        "pause -1\n"
    )
    return _sink(ctx, name, "gp", text)


@cli.command()
@click.option("--p-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
@click.option("--n-list", default="500,1000,2000", show_default=True)
@click.option("--delta", type=float, default=0.02, show_default=True)
@click.pass_context
def sweep(ctx, p_grid, n_list, delta):
    """Exact-DP near-0 vs near-1/2 masses across p (exploratory, non-assertive)."""
    _refuse(ctx, "sweep", "fmt", reads={"jsonl"})
    ps = _parse_grid(p_grid, "--p-grid")
    ns = _parse_grid(n_list, "--n-list", int)
    dp._check_n(min(ns))
    wanted = set(ns)
    records = []
    for p in ps:
        # one DP per p: every requested N is a row of the same triangle
        masses = {n: analysis.near_masses(SurvivalDistribution(row), delta)
                  for n, row in dp.r1_rows(max(ns), p) if n in wanted}
        for n in ns:
            near_zero, near_half = masses[n]
            records.append({
                "p": p, "n": n, "delta": delta,
                "mass_near_zero": near_zero, "mass_near_half": near_half,
                "assertive": False,
            })
    # named by the parsed parameters alone, so --p-grid 0.5 and 0.50 write one file
    params = {"p_grid": ps, "n_list": ns, "delta": delta}
    _sink(ctx, f"sweep_{_digest(params)}", "jsonl", io.jsonl_text(records), params)


# manifests written by earlier versions record det's "method" and figure's
# "montecarlo"; they must still rerun
_CONFIG_KEYS = {
    "argv", "command", "variant", "n", "n_min", "n_max", "n_range", "n_list",
    "p", "q", "p_grid", "q_grid", "montecarlo", "samples", "seed",
    "rule", "method", "delta", "l_max", "trials", "unbiased",
    "epsilon", "alpha", "p_num", "p_den", "q_num", "q_den",
}


def _override_out(argv: list[str], out_dir: str) -> list[str]:
    """``argv`` writing under ``out_dir``, whether it gave ``--out DIR`` or ``--out=DIR``."""
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2 :]
    return ["--out", out_dir, *(a for a in argv if not a.startswith("--out="))]


def _command_of(argv: list[str]) -> str | None:
    """The command ``argv`` runs: its first token past the global options and their values."""
    valued = {opt for param in cli.params if not param.is_flag for opt in param.opts}
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 2 if argv[i] in valued else 1
    return argv[i] if i < len(argv) else None


@cli.command()
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def rerun(ctx, manifest):
    """Re-execute the run in MANIFEST beside it; keep it only if every sha256 matches."""
    _refuse(ctx, "rerun", "out", "fmt")
    out = Path(manifest).parent
    argv, files = io.read_manifest(manifest, _CONFIG_KEYS)
    if _command_of(argv) == "rerun":
        raise DomainError("manifest records a rerun, which writes no files of its own")
    with tempfile.TemporaryDirectory(dir=out, prefix=".rerun-") as tmp:
        code = main(_override_out(argv, tmp))
        if code != 0:
            raise CheckFailure(f"rerun exited with code {code}")
        # after the run, so that a recorded run which no longer runs fails as a check
        if not files:
            raise DomainError("manifest lists no files, so the rerun verified nothing")
        bad = [name for name, sha in files
               if not Path(tmp, name).is_file() or io.file_sha256(Path(tmp, name)) != sha]
        if bad:
            raise CheckFailure(f"rerun does not reproduce {', '.join(bad)}")
        for name, _ in files:
            os.replace(Path(tmp, name), out / name)
    click.echo(f"reproduced {len(files)} files under {out}")


def main(argv=None) -> int:
    """Entry point returning the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        cli(args=argv, standalone_mode=False, obj={"argv": argv})
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.Abort:
        return 1
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        return 2
    except CheckFailure as exc:
        click.echo(f"check failed: {exc}", err=True)
        return 3
    except (KernelBuildError, OSError) as exc:  # OSError: say, an --out it cannot create
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
