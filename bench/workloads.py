"""The benchmark workloads: op generation and per-op correctness checks.

An op is one or more ``levychaos.cli.main(argv)`` calls, each writing its
artifact with ``--out`` into the run's work directory.  Every op gets its own
model parameters and seeds, drawn from the workload seed before timing
starts, so no expansion can be reused across ops.

Each check returns ``None`` when the op's artifacts are correct and a short
reason otherwise.  The checks use routes independent of the ones the command
took where the package has them: C^(k) by the partition sum
(``c_poly_closed``) against the CLI's recursion, the moments and
multinomials in closed form here.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# fig3-grid: the left-endpoint scheme's error has an absolute floor, so
# max|diff| / max|direct| alone blows up on paths whose increment is small
# (it reached 2.7 on one of 200 draws).  The scale is therefore
# max(max|direct|, mu^n) with mu = E[X_t - X_t0] = (a/b)(t - t0).  On 200
# draws at dt = 1e-4 the scaled error read median 7.0e-4, max 2.7e-3.
GRID_REL_BOUND = 0.02
# taylor-exact: the order-8 error is the Taylor remainder, about
# y^9/9! e^y for a path increment y.  On 300 draws the largest y was 0.93,
# the order-8 max error 1.5e-6 and its ratio to the order-2 error 8.9e-6.
# 1e-4 is the remainder at y = 1.3; the ratio y^6 3!/9! reaches 1e-3 at y = 2.
TAYLOR_ORDER8_BOUND = 1e-4
TAYLOR_ORDER8_TO_2 = 1e-3
PI_SAMPLES = 32

FIG3_N, FIG3_T0, FIG3_T, FIG3_DT = 9, 0.0099, 1.0, 1e-4
FIG3_ROWS = round((FIG3_T - FIG3_T0) / FIG3_DT) + 1
EXACT_N, EXACT_COUNT = 6, 5
TABLE_N, EXPAND_N, ORTHO_N = 12, 8, 8
# Models per tables-rational op.  The host's speed switches within a second,
# so an op of one model (0.15 s) runs at one speed or the other and the
# median op time of a run jumps between the two; an op of five models (about
# 0.7 s) averages over the switches.
TABLE_MODELS = 5
TAYLOR_GRID, TAYLOR_ORDERS, TAYLOR_PATHS = (0.25, 0.5), (2, 4, 6, 8), 2


@dataclass
class Op:
    argvs: list
    info: dict = field(default_factory=dict)


def _gamma_float(rng: random.Random) -> tuple:
    return round(rng.uniform(8.0, 12.0), 3), round(rng.uniform(16.0, 24.0), 3)


# --------------------------------------------------------------------------
# generators: (rng, count, work directory) -> list[Op]
# --------------------------------------------------------------------------


def fig3_ops(rng, count, work):
    out = os.path.join(work, "fig3.csv")
    ops = []
    for _ in range(count):
        a, b = _gamma_float(rng)
        seed = rng.randrange(2**31)
        argv = ["verify", "--model", f"gamma:a={a},b={b}", "--n", str(FIG3_N), "--t0", str(FIG3_T0),
                "--t", str(FIG3_T), "--dt", str(FIG3_DT), "--seed", str(seed), "--out", out]
        ops.append(Op([argv], {"out": out, "mu": a / b * (FIG3_T - FIG3_T0)}))
    return ops


def exact_ops(rng, count, work):
    out = os.path.join(work, "exact.json")
    ops = []
    for _ in range(count):
        seed = rng.randrange(2**31)
        argv = ["exact-verify", "--mode", "rational", "--n", str(EXACT_N), "--count", str(EXACT_COUNT),
                "--seed", str(seed), "--out", out]
        ops.append(Op([argv], {"out": out, "seed": seed}))
    return ops


def _table_model(rng, outs):
    """The coeffs, expand and ortho calls for one drawn model, and what its check needs."""
    a = Fraction(rng.randint(10, 99), rng.randint(2, 9))
    b = Fraction(rng.randint(10, 99), rng.randint(2, 9))
    sigma = Fraction(rng.randint(1, 9), rng.randint(10, 99))
    model = f"gamma:a={a.numerator}/{a.denominator},b={b.numerator}/{b.denominator}" \
            f"+brownian:sigma={sigma.numerator}/{sigma.denominator}"
    common = ["--mode", "rational", "--format", "json", "--model", model]
    argvs = [
        ["coeffs", "--n", str(TABLE_N), *common, "--out", outs[0]],
        ["expand", "--n", str(EXPAND_N), "--basis", "h", *common, "--out", outs[1]],
        ["ortho", "--order", str(ORTHO_N), *common, "--out", outs[2]],
    ]
    info = {"outs": outs, "model": model, "a": a, "b": b, "sigma2": sigma * sigma,
            "check_seed": rng.randrange(2**31)}
    return argvs, info


def tables_ops(rng, count, work):
    outs = [[os.path.join(work, f"{name}-{j}.json") for name in ("coeffs", "expand", "ortho")]
            for j in range(TABLE_MODELS)]
    ops = []
    for _ in range(count):
        models = [_table_model(rng, outs[j]) for j in range(TABLE_MODELS)]
        ops.append(Op([argv for argvs, _ in models for argv in argvs], {"models": [info for _, info in models]}))
    return ops


def taylor_ops(rng, count, work):
    spec = os.path.join(work, "exp_spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"kind": "exp", "order": 2, "grid": list(TAYLOR_GRID)}, fh)
    out = os.path.join(work, "taylor.csv")
    ops = []
    for _ in range(count):
        a, b = _gamma_float(rng)
        seed = rng.randrange(2**31)
        argv = ["taylor", "--spec", spec, "--model", f"gamma:a={a},b={b}",
                "--orders", ",".join(map(str, TAYLOR_ORDERS)), "--paths", str(TAYLOR_PATHS),
                "--seed", str(seed), "--out", out]
        ops.append(Op([argv], {"out": out}))
    return ops


def fig3_taylor_ops(rng, count, work):
    """A Fig. 3 verify and then a taylor study, each with its own draws, as one op."""
    pairs = zip(fig3_ops(rng, count, work), taylor_ops(rng, count, work))
    return [Op(grid.argvs + taylor.argvs, {"parts": (grid, taylor)}) for grid, taylor in pairs]


# --------------------------------------------------------------------------
# checks: (op, [(exit code, stdout text)], levychaos module) -> reason | None
# --------------------------------------------------------------------------


def _read(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def check_fig3(op, results, lc):
    report = json.loads(results[0][1])
    rows = list(csv.reader(_read(op.info["out"]).splitlines()))
    if rows[0] != ["step", "t", "direct", "reconstructed", "diff"]:
        return f"bad header {rows[0]}"
    if len(rows) - 1 != FIG3_ROWS or report["n"] != FIG3_N:
        return f"{len(rows) - 1} rows, n={report['n']}"
    max_direct = max_diff = 0.0
    for row in rows[1:]:
        direct, recon, diff = float(row[2]), float(row[3]), float(row[4])
        if diff != recon - direct or not math.isfinite(diff):
            return f"row {row[0]}: diff {diff} != {recon} - {direct}"
        max_direct, max_diff = max(max_direct, abs(direct)), max(max_diff, abs(diff))
    if max_diff != report["max_abs_diff"]:
        return f"report max_abs_diff {report['max_abs_diff']} != CSV {max_diff}"
    scale = max(max_direct, op.info["mu"] ** FIG3_N)
    if not max_diff <= GRID_REL_BOUND * scale:
        return f"discretization error {max_diff / scale} above {GRID_REL_BOUND}"
    return None


def check_exact(op, results, lc):
    r = json.loads(_read(op.info["out"]))
    if r["all_exact_zero"] is not True or r["max_abs_terminal_diff"] != 0:
        return f"identity not exact: {r['max_abs_terminal_diff']}"
    if r["checks"] != EXACT_COUNT * EXACT_N or r["seed"] != op.info["seed"]:
        return f"checks={r['checks']} seed={r['seed']}"
    return None


def _poly(values) -> tuple:
    coeffs = [Fraction(v) for v in values]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _multinomial(parts) -> int:
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


def pi_sample(info) -> list:
    """The Pi entries a tables-rational check compares, drawn per model."""
    return random.Random(info["check_seed"]).sample(range(2**TABLE_N - 1), PI_SAMPLES)


def check_tables(op, results, lc):
    for info in op.info["models"]:
        reason = _check_table(info, lc)
        if reason is not None:
            return f"{info['model']}: {reason}"
    return None


def _check_table(info, lc):
    a, b, sigma2 = info["a"], info["b"], info["sigma2"]
    m = [a / b] + [a * math.factorial(i - 1) / b**i for i in range(2, TABLE_N + 1)]
    m[1] += sigma2
    mv = lc.MomentVector(tuple(m), sigma2, adjusted=True)
    closed = [_poly(lc.c_poly_closed(k, mv).coeffs) for k in range(TABLE_N + 1)]

    coeffs = json.loads(_read(info["outs"][0]))
    if coeffs["order"] != TABLE_N or coeffs["model"] != info["model"] or len(coeffs["c"]) != TABLE_N + 1:
        return "coeffs header"
    for k, c in enumerate(coeffs["c"]):
        if _poly(c) != closed[k]:
            return f"C^({k}) differs from the partition sum"
    pi = coeffs["pi"]
    tuples = {tuple(e["tuple"]) for e in pi}
    if len(pi) != 2**TABLE_N - 1 or len(tuples) != len(pi):
        return f"{len(pi)} Pi entries"
    if any(min(t) < 1 or sum(t) > TABLE_N for t in tuples):
        return "Pi tuple outside the index set"
    for idx in pi_sample(info):
        theta = tuple(pi[idx]["tuple"])
        rest = TABLE_N - sum(theta)
        want = tuple(_multinomial(theta + (rest,)) * c for c in closed[rest])
        if _poly(pi[idx]["poly"]) != want:
            return f"Pi{theta} != multinomial * C^({rest})"

    exp = json.loads(_read(info["outs"][1]))
    if exp["basis"] != "H" or exp["order"] != EXPAND_N or len(exp["terms"]) != 2**EXPAND_N - 1:
        return "expand header"
    if tuple(Fraction(x) for x in exp["moments"]) != tuple(m[:EXPAND_N]) or Fraction(exp["sigma2"]) != sigma2:
        return "expand moments"
    if _poly(exp["constant"]) != closed[EXPAND_N]:
        return "expand constant differs from C^(n)"

    ortho = json.loads(_read(info["outs"][2]))
    A = [[Fraction(x) for x in row] for row in ortho["a"]]
    B = [[Fraction(x) for x in row] for row in ortho["b"]]
    if ortho["order"] != ORTHO_N or len(A) != ORTHO_N or len(B) != ORTHO_N:
        return "ortho header"
    for i in range(ORTHO_N):
        for k in range(ORTHO_N):
            s = sum(A[i][j] * B[j][k] for j in range(k, i + 1) if j < len(A[i]) and k < len(B[j]))
            if s != (1 if i == k else 0) or len(A[i]) != i + 1 or len(B[i]) != i + 1:
                return f"(a b)[{i + 1},{k + 1}] = {s}"
    return None


def check_taylor(op, results, lc):
    rows = list(csv.reader(_read(op.info["out"]).splitlines()))
    if rows[0] != ["order", "paths", "substrate", "mean_abs_error", "max_abs_error"]:
        return f"bad header {rows[0]}"
    if [int(r[0]) for r in rows[1:]] != list(TAYLOR_ORDERS):
        return "orders"
    errs = {}
    for order, paths, substrate, mean_err, max_err in rows[1:]:
        mean_err, max_err = float(mean_err), float(max_err)
        if paths != str(TAYLOR_PATHS) or substrate != "exact":
            return f"row {order}: {paths} paths on {substrate}"
        if not (math.isfinite(mean_err) and math.isfinite(max_err) and 0 <= mean_err <= max_err):
            return f"order {order}: errors {mean_err}, {max_err}"
        errs[int(order)] = max_err
    top, low = TAYLOR_ORDERS[-1], TAYLOR_ORDERS[0]
    if not errs[top] < TAYLOR_ORDER8_BOUND or not errs[top] <= TAYLOR_ORDER8_TO_2 * errs[low]:
        return f"order-{top} error {errs[top]}, order-{low} error {errs[low]}"
    return None


def check_fig3_taylor(op, results, lc):
    grid, taylor = op.info["parts"]
    return check_fig3(grid, results[:1], lc) or check_taylor(taylor, results[1:], lc)


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: object
    check: object
    max_rate: float  # ops/s the op pool is sized for, at least 10x the baseline rate
    trace_ops: int  # ops in a traced run; fixed so the trace's counts repeat exactly


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig3-grid", fig3_ops, check_fig3, 25.0, 20),
        Workload("exact-rational", exact_ops, check_exact, 40.0, 30),
        Workload("tables-rational", tables_ops, check_tables, 20.0, 16),
        Workload("taylor-exact", taylor_ops, check_taylor, 25.0, 16),
        Workload("fig3-taylor", fig3_taylor_ops, check_fig3_taylor, 25.0, 12),
    )
}
