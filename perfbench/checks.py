"""Correctness checks on the files one pass wrote.

They run after the timed passes, outside every timing.  An operation fails
when it exited non-zero, when a data file's sha256 differs from the digest
recorded for it, when a manifest lists a hash its file does not have, or
when one of the independent checks below fails.  The independent checks
hold for any seed:

* DP rows sum to 1 within 1e-12;
* ``fig_r1_..._p1`` is a point mass at the closed-form survivor;
* each Monte Carlo histogram is within 5 standard errors of the ``exact``
  DP at the same N, bin by bin over ten bins of one tenth of the exact
  mass each, and never hits a position the DP gives probability 0;
* oracle rationals sum to exactly 1 and match ``exact`` within 1e-15;
* the ``det --n-range`` table equals 2(N - 2^floor(log2 N)) + 1.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, Op, reference_exact

DATA_SUFFIXES = (".csv", ".jsonl")
MASS_TOL = 1e-12
ORACLE_TOL = 1e-15
MC_SE = 5.0
MC_BINS = 10


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def data_files(op_dir: Path) -> list[Path]:
    """The CSV and JSONL outputs of one operation; manifests embed --out, so not them."""
    if not Path(op_dir).is_dir():
        return []
    return sorted(p for p in Path(op_dir).iterdir()
                  if p.suffix in DATA_SUFFIXES and not p.name.startswith("."))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_probs(path: Path) -> list[float]:
    header, rows = read_csv(path)
    if header != ["n", "prob"]:
        raise ValueError(f"{path.name}: header {header}, expected n,prob")
    return [float(r[1]) for r in rows]


def closed_form_survivor(n: int) -> int:
    """One-based survivor of the classical game: 2(N - 2^floor(log2 N)) + 1."""
    return 2 * (n - (1 << (n.bit_length() - 1))) + 1


class Checker:
    """Checks one workload's operations; ``run_exact(op, out_dir)`` runs a reference op."""

    def __init__(self, seed: int, digests: dict | None, run_exact, ref_dir: Path):
        """``digests`` is None only while digests are being recorded."""
        self.seed = seed
        self.digests = digests
        self.run_exact = run_exact
        self.ref_dir = Path(ref_dir)

    def check(self, op: Op, op_dir: Path) -> list[str]:
        """Failure messages for one operation's outputs; empty when it passes."""
        problems = self._digests(op, op_dir) + self._manifests(op_dir)
        independent = getattr(self, f"_check_{op.command}", None)
        if independent is not None:
            try:
                problems += independent(op, Path(op_dir))
            except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems

    # --- recorded bytes --------------------------------------------------

    def _digests(self, op: Op, op_dir: Path) -> list[str]:
        if self.digests is None or (op.seeded and self.seed != DEFAULT_SEED):
            return []
        table = self.digests["portable" if op.portable else "platform_bound"]
        if table is None:  # recorded on another platform; see run.py
            return []
        expected = {k.split("/", 1)[1]: v for k, v in table.items()
                    if k.split("/", 1)[0] == op.id}
        got = {p.name: sha256(p) for p in data_files(op_dir)}
        problems = [f"{name}: sha256 differs from the recorded digest"
                    for name in sorted(expected) if got.get(name, expected[name]) != expected[name]]
        problems += [f"{name}: missing" for name in sorted(set(expected) - set(got))]
        problems += [f"{name}: no recorded digest" for name in sorted(set(got) - set(expected))]
        return problems

    @staticmethod
    def _manifests(op_dir: Path) -> list[str]:
        problems = []
        for manifest in sorted(Path(op_dir).glob("*.manifest.json")):
            for entry in json.loads(manifest.read_text())["files"]:
                path = Path(op_dir) / entry["name"]
                if not path.is_file() or sha256(path) != entry["sha256"]:
                    problems.append(f"{manifest.name}: hash of {entry['name']} does not match")
        return problems

    # --- independent checks ---------------------------------------------

    def _reference(self, op: Op) -> list[float]:
        """Exact DP vector at the op's rule and N, from the ``exact`` command."""
        ref = reference_exact(op.params)
        out = self.ref_dir / op.id
        code = self.run_exact(ref, out)
        if code != 0:
            raise ValueError(f"reference {' '.join(ref.argv)} exited {code}")
        (path,) = data_files(out)
        return read_probs(path)

    @staticmethod
    def _mass(path: Path) -> list[str]:
        drift = abs(math.fsum(read_probs(path)) - 1.0)
        return [f"{path.name}: mass off by {drift:.3g}"] if drift > MASS_TOL else []

    def _check_exact(self, op: Op, op_dir: Path) -> list[str]:
        return [msg for p in data_files(op_dir) for msg in self._mass(p)]

    def _check_figure(self, op: Op, op_dir: Path) -> list[str]:
        files = data_files(op_dir)
        problems = [msg for p in files for msg in self._mass(p)]
        if not files:
            problems.append("no figure files written")
        if op.params["variant"] == "r1":
            n = op.params["n"]
            probs = read_probs(op_dir / f"fig_r1_n{n}_p1.csv")
            mass_at = closed_form_survivor(n) - 1
            if probs[mass_at] != 1.0 or math.fsum(probs) != 1.0:
                problems.append(f"fig_r1_n{n}_p1 is not a point mass at label {mass_at}")
        return problems

    def _check_simulate(self, op: Op, op_dir: Path) -> list[str]:
        (path,) = data_files(op_dir)
        header, rows = read_csv(path)
        if header != ["n", "count", "freq"]:
            raise ValueError(f"{path.name}: header {header}")
        counts = [int(r[1]) for r in rows]
        samples = op.params["samples"]
        if sum(counts) != samples:
            return [f"{path.name}: {sum(counts)} samples counted, {samples} drawn"]
        exact = self._reference(op)
        problems = [f"{path.name}: position {i} sampled but has probability 0"
                    for i, (c, g) in enumerate(zip(counts, exact)) if c and g == 0.0]
        # contiguous bins holding about a tenth of the exact mass each
        cut, acc, start = 1, 0.0, 0
        for i, g in enumerate(exact):
            acc += g
            if acc >= cut / MC_BINS or i == len(exact) - 1:
                mass = math.fsum(exact[start : i + 1])
                freq = sum(counts[start : i + 1]) / samples
                se = math.sqrt(mass * (1.0 - mass) / samples)
                if abs(freq - mass) > MC_SE * se:
                    problems.append(f"{path.name}: positions {start}..{i} hold {freq:.5f}, "
                                    f"exact {mass:.5f}, more than {MC_SE:g} standard errors")
                start = i + 1
                while acc >= cut / MC_BINS:
                    cut += 1
        return problems

    def _check_oracle(self, op: Op, op_dir: Path) -> list[str]:
        (path,) = data_files(op_dir)
        header, rows = read_csv(path)
        if header != ["n", "num", "den"]:
            raise ValueError(f"{path.name}: header {header}")
        exact = [Fraction(int(r[1]), int(r[2])) for r in rows]
        problems = [] if sum(exact) == 1 else [f"{path.name}: rationals sum to {sum(exact)}"]
        floats = self._reference(op)
        worst = max(abs(float(x) - f) for x, f in zip(exact, floats))
        if len(floats) != len(exact) or worst > ORACLE_TOL:
            problems.append(f"{path.name}: differs from exact DP by {worst:.3g}")
        return problems

    def _check_det(self, op: Op, op_dir: Path) -> list[str]:
        if op.id == "det_series":
            return []  # the command checks the series itself; its exit code is checked
        (path,) = data_files(op_dir)
        lines = path.read_text().splitlines()
        a, b = op.params["a"], op.params["b"]
        ok = lines[0] == "N,b_N" and len(lines) == b - a + 2 and all(
            line == f"{n},{closed_form_survivor(n)}" for n, line in zip(range(a, b + 1), lines[1:])
        )
        return [] if ok else [f"{path.name}: table differs from 2(N - 2^floor(log2 N)) + 1"]

    def _check_moments(self, op: Op, op_dir: Path) -> list[str]:
        (path,) = data_files(op_dir)
        _, rows = read_csv(path)
        want = op.params["n_max"] - op.params["n_min"] + 1
        return [] if len(rows) == want else [f"{path.name}: {len(rows)} rows, expected {want}"]

    def _check_clt(self, op: Op, op_dir: Path) -> list[str]:
        (path,) = data_files(op_dir)
        ensemble = json.loads(path.read_text().splitlines()[-1])
        trials = op.params["trials"]
        if len(ensemble.get("normalized_sums", ())) != trials:
            return [f"{path.name}: ensemble does not hold {trials} normalised sums"]
        return []
