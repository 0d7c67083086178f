"""The benchmark's workloads: which CLI operations each one runs.

Every operation is one ``josephus.cli.main`` invocation, exactly as a user
types it after ``josephus --out DIR``.  Only ``simulate`` and ``clt`` take
the benchmark seed; every other operation has fixed inputs, so its output
bytes are the same for every seed.  ``--threads`` is never passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("dp_exact", "mc_sampler", "clt_limit", "exact_tables")
SCALES = ("full", "tiny")

# Problem sizes per scale.  "tiny" keeps every operation and check but runs
# in well under a second; only the smoke test uses it.
_SIZES = {
    "full": {
        "fig_n": 2000, "exact_n": 10_000, "moments_n": 4000,
        "sim": (("r2", 2000, 0.4, None, 8192), ("r1", 500, 0.5, None, 20_000),
                ("r3", 500, 0.5, 0.75, 20_000)),
        "clt": (4000, 10_000), "decay_unbiased_n": 2000, "decay_p_n": 1000,
        "oracle_n": 16, "oracle_r3_n": 12, "series": 2048, "det_range": 500_000,
    },
    "tiny": {
        "fig_n": 60, "exact_n": 300, "moments_n": 200,
        "sim": (("r2", 200, 0.4, None, 2048), ("r1", 100, 0.5, None, 2000),
                ("r3", 100, 0.5, 0.75, 2000)),
        "clt": (300, 1000), "decay_unbiased_n": 300, "decay_p_n": 200,
        "oracle_n": 9, "oracle_r3_n": 7, "series": 128, "det_range": 5000,
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``params`` carries the inputs the correctness checks need.  ``seeded``
    marks output that depends on the benchmark seed.  ``portable`` marks
    output whose bytes come from elementwise float arithmetic, counting or
    exact integers, and so repeat on any machine; the other outputs go
    through BLAS reductions or SIMD ``log`` and repeat only on the platform
    their digests were recorded on.
    """

    id: str
    command: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    seeded: bool = False
    portable: bool = True


def _num(x: float) -> str:
    return repr(float(x))


def _exact(op_id: str, rule: str, n: int, p=None, q=None) -> Op:
    argv = ["exact", "--rule", rule, "--n", str(n)]
    if p is not None:
        argv += ["--p", _num(p)]
    if q is not None:
        argv += ["--q", _num(q)]
    return Op(op_id, "exact", tuple(argv), {"rule": rule, "n": n, "p": p, "q": q})


def _oracle(op_id: str, rule: str, n: int, p: Fraction, q: Fraction | None = None) -> Op:
    argv = ["oracle", "--rule", rule, "--n", str(n),
            "--p-num", str(p.numerator), "--p-den", str(p.denominator)]
    if q is not None:
        argv += ["--q-num", str(q.numerator), "--q-den", str(q.denominator)]
    return Op(op_id, "oracle", tuple(argv), {"rule": rule, "n": n, "p": p, "q": q})


def reference_exact(params: dict) -> Op:
    """The ``exact`` DP operation at the same rule, N and parameters."""
    p, q = params.get("p"), params.get("q")
    return _exact("ref", params["rule"], params["n"],
                  None if p is None else float(p), None if q is None else float(q))


def ops(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The operations of ``workload``, in the order one pass runs them."""
    z = _SIZES[scale]
    if workload == "dp_exact":
        n = z["exact_n"]
        return [
            *(Op(f"figure_{v}", "figure", ("figure", v, "--n", str(z["fig_n"])),
                 {"variant": v, "n": z["fig_n"]}) for v in ("r1", "r2", "r3")),
            _exact("exact_r1", "r1", n, 0.4),
            _exact("exact_r2", "r2", n, 0.4),
            _exact("exact_r3", "r3", n, 0.4, 0.75),
            _exact("exact_r1u", "r1u", n),
            Op("moments_r1u", "moments",
               ("moments", "--rule", "r1u", "--n-max", str(z["moments_n"])),
               {"n_min": 3, "n_max": z["moments_n"]}, portable=False),
        ]
    if workload == "mc_sampler":
        out = []
        for rule, n, p, q, samples in z["sim"]:
            argv = ["--seed", str(seed), "simulate", "--rule", rule, "--n", str(n),
                    "--p", _num(p)]
            if q is not None:
                argv += ["--q", _num(q)]
            argv += ["--samples", str(samples)]
            out.append(Op(f"simulate_{rule}", "simulate", tuple(argv),
                          {"rule": rule, "n": n, "p": p, "q": q, "samples": samples},
                          seeded=True))
        return out
    if workload == "clt_limit":
        l_max, trials = z["clt"]
        return [
            Op("clt", "clt", ("--seed", str(seed), "clt", "--l-max", str(l_max),
                              "--trials", str(trials)),
               {"trials": trials}, seeded=True, portable=False),
            Op("decay_unbiased", "decay",
               ("decay", "--unbiased", "--n-max", str(z["decay_unbiased_n"])),
               portable=False),
            Op("decay_p05", "decay", ("decay", "--p", "0.5", "--n-max", str(z["decay_p_n"])),
               portable=False),
        ]
    if workload == "exact_tables":
        n, n3 = z["oracle_n"], z["oracle_r3_n"]
        return [
            _oracle("oracle_r1", "r1", n, Fraction(2, 5)),
            _oracle("oracle_r2", "r2", n, Fraction(3, 10)),
            _oracle("oracle_r3_a", "r3", n3, Fraction(1, 2), Fraction(3, 4)),
            _oracle("oracle_r3_b", "r3", n3, Fraction(1, 3), Fraction(1, 2)),
            Op("det_series", "det", ("det", "--series-check", str(z["series"]))),
            Op("det_range", "det", ("det", "--n-range", f"1:{z['det_range']}"),
               {"a": 1, "b": z["det_range"]}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def all_op_ids() -> list[str]:
    """Every operation id of every workload, in workload order."""
    return [op.id for w in WORKLOADS for op in ops(w, DEFAULT_SEED)]
