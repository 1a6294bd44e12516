"""Command-line front end: calculators, solvers, curve emission, verification.

Every subcommand emits one self-describing record; --format json prints it
as JSON whose parse reproduces the record, --format plain prints the same
values as key: value text. main builds each record from the options its
subcommand parsed; a handler returns only result, flags and provenance.
Identical invocations produce byte-identical output: no timestamps, no
hidden entropy, all randomness behind --seed.

Exit codes: 0 success/PASS, 1 usage error, 2 verification FAIL (the
record is flagged mismatch), 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

from .bounds import (
    DEFAULT_CEILING,
    NoBracketError,
    delta_bound,
    emit_epsilon_curve,
    solve_max_eps,
    solve_min_n_trace,
)
from .oracle import verify_formula
from .shattering import HypothesisSpec, _float, is_saturated, shatter_log, shatter_multi

__all__ = ["OutputRecord", "main", "entrypoint"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_NO_CONVERGENCE = 3

_LN10 = math.log(10.0)


class UsageError(ValueError):
    """A bad command line: main reports it like any other bad value, exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is exit 1
    def error(self, message):
        raise UsageError(message)


@dataclass
class OutputRecord:
    """One machine-readable result; JSON serialization round-trips."""

    command: str
    inputs: dict
    result: object
    flags: list
    provenance: dict

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)  # asdict deep-copies every leaf

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        return cls(**json.loads(text))


def sci_from_log(log_value: float) -> str:
    """Six-significant-digit scientific notation for exp(log_value), no
    matter how extreme."""
    if log_value == float("-inf"):
        return "0"
    l10 = log_value / _LN10
    exp10 = math.floor(l10)
    mant = round(10.0 ** (l10 - exp10), 5)
    if mant >= 10.0:
        mant /= 10.0
        exp10 += 1
    return f"{mant:.5f}e{exp10:+03d}"


def _int_list(text: str) -> list[int]:
    # argparse reports these errors with the option's name
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from exc
    # a repeated h or p would repeat its family's rows
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(
            f"expected distinct integers, got {text!r}")
    return values


def log_spaced_grid(n_start: int, n_end: int, n_points: int) -> list[int]:
    """Ascending integers, logarithmically spaced; duplicates collapse."""
    ratio = n_end / n_start
    grid: list[int] = []
    for i in range(n_points):
        # clamp, then round: near the float maximum the product can be inf
        v = max(n_start, round(min(n_start * ratio ** (i / (n_points - 1)), n_end)))
        if not grid or v > grid[-1]:
            grid.append(v)
    return grid


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def cmd_coef(args) -> dict:
    spec = HypothesisSpec(args.h, args.p)
    log = shatter_log(args.n, spec).log_value
    # str() rejects an int of more than `limit` digits, and N has more once
    # log10 N >= limit; refuse before building N, or a huge p runs out of
    # memory first. The 1e-6 band holds the float log's error; inside it,
    # and with no limit (0), the exact count decides.
    limit = sys.get_int_max_str_digits()
    if limit and log / _LN10 > limit * (1 + 1e-6):
        raise UsageError(f"the count has about {log / _LN10:.3g} digits, past the "
                         f"limit ({limit} digits) for integer string conversion; "
                         "PYTHONINTMAXSTRDIGITS raises it")
    return dict(
        result={"count": shatter_multi(args.n, spec), "log": log},
        flags=["saturated"] if is_saturated(args.n, spec.h) else [],
        provenance={"path": "exact"},
    )


def cmd_bound(args) -> dict:
    spec = HypothesisSpec(args.h, args.p)
    delta_log = delta_bound(args.n, args.eps, spec).log_value
    flags = ["vacuous"] if delta_log > 0.0 else []
    if args.clamp and delta_log > 0.0:
        delta_log = 0.0
        flags.append("clamped")
    return dict(
        result={"delta": sci_from_log(delta_log), "delta_log": delta_log},
        flags=flags,
        provenance={"path": "log"},
    )


def cmd_solve_n(args) -> dict:
    spec = HypothesisSpec(args.h, args.p)
    n_star, trace = solve_min_n_trace(args.delta, args.eps, spec, ceiling=args.ceiling)
    # the BracketTrace as returned (json writes its tuples as lists), with
    # the log-bound at n* moved up next to n
    trace = dict(vars(trace))
    return dict(
        result={"n": n_star, "delta_log_at_n": trace.pop("delta_log_at_n"),
                "trace": trace},
        flags=["saturated"] if is_saturated(n_star, spec.h) else [],
        provenance={"path": "log"},
    )


def cmd_solve_eps(args) -> dict:
    spec = HypothesisSpec(args.h, args.p)
    eps = solve_max_eps(args.n, args.delta, spec)
    flags = ["vacuous"] if eps >= 1.0 else []
    if is_saturated(args.n, spec.h):
        flags.append("saturated")
    return dict(
        result={"epsilon": eps, "delta_log_target": math.log(args.delta)},
        flags=flags,
        provenance={"path": "log"},
    )


def cmd_curve(args) -> dict:
    # not a repeat of emit_epsilon_curve's n >= 2 check: log_spaced_grid runs
    # first and fails on n_start <= 0 (division by zero, negative ratio)
    _require(args.n_start >= 2, f"--n-start must be >= 2, got {args.n_start}")
    _require(args.n_end > args.n_start, "--n-end must exceed --n-start")
    # log_spaced_grid divides n_end by n_start in floats
    _require(_float(args.n_end) < math.inf, f"--n-end must fit a float, got {args.n_end}")
    _require(args.n_points >= 2, f"--n-points must be >= 2, got {args.n_points}")
    # log_spaced_grid takes n_points steps, whatever the distinct points
    span = args.n_end - args.n_start + 1
    _require(args.n_points <= span,
             f"--n-points must not exceed the {span} integers from --n-start "
             f"to --n-end, got {args.n_points}")
    _require(bool(args.h_list) and bool(args.p_list),
             "--h-list and --p-list must be nonempty")
    specs = [HypothesisSpec(h=h, p=p) for h in args.h_list for p in args.p_list]
    grid = log_spaced_grid(args.n_start, args.n_end, args.n_points)
    rows = emit_epsilon_curve(grid, specs)
    csv_lines = ["n,h,p,epsilon"]
    csv_lines += [f"{r.n},{r.h},{r.p},{r.epsilon:.10g}" for r in rows]
    csv_text = "\n".join(csv_lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    if args.format == "csv":
        sys.stdout.write(csv_text)
    return dict(
        result={"rows": len(rows), "families": len(specs),
                "grid_points": len(grid), "out": args.out},
        flags=[],
        provenance={"path": "log"},
    )


def cmd_verify(args) -> dict:
    rep = verify_formula(args.n, args.h, args.trials, args.seed, workers=args.workers)
    return dict(
        result={
            "formula_count": rep.formula_count,
            "trials": [vars(t) for t in rep.results],
            "passed": rep.passed,
        },
        flags=[] if rep.passed else ["mismatch"],
        provenance={"path": "exact", "seed": args.seed, "prng": rep.prng},
    )


def _plain_lines(record: OutputRecord) -> list[str]:
    # str() of a float is its repr, so plain text carries the JSON values
    lines = [f"command: {record.command}"]
    lines += [f"{k}: {v}" for k, v in record.inputs.items()]
    res = record.result
    if record.command == "verify":
        for i, t in enumerate(res["trials"], start=1):
            lines.append(f"trial {i}: " + " ".join(f"{k}={v}" for k, v in t.items()))
        lines.append(f"formula: {res['formula_count']}")
        lines.append("result: PASS" if res["passed"] else "result: FAIL")
    else:
        lines += [f"{k}: {v}" for k, v in res.items() if k != "trace"]
    if "trace" in res:
        tr = res["trace"]
        lines.append(f"bracket: {tr['bracket'][0]}..{tr['bracket'][1]}")
        lines.append(f"bisection_steps: {tr['bisection_steps']}")
        for key in ("expansion", "tail_probes"):
            lines.append(f"{key}: " + " ".join(f"{n}:{v:.6g}" for n, v in tr[key]))
    if record.flags:
        lines.append("flags: " + ",".join(record.flags))
    prov = record.provenance
    lines.append("provenance: " + " ".join(f"{k}={prov[k]}" for k in sorted(prov)))
    return lines


def _render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        return record.to_json() + "\n"
    if fmt == "plain":
        return "\n".join(_plain_lines(record)) + "\n"
    return ""  # csv handled inside cmd_curve, the only command carrying a table


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built on first use and shared by every later call;
    parsing only reads it, so no state passes from one call to the next."""
    # the docstring's first paragraph: the rest is notes for maintainers
    parser = _Parser(prog="shatterbound", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)  # main calls args.run(args)
        return p

    def add_format(p, csv_ok=False):
        choices = ["plain", "json"] + (["csv"] if csv_ok else [])
        p.add_argument("--format", choices=choices, default="plain")

    def add_family(p):
        p.add_argument("--h", type=int, required=True)
        p.add_argument("--p", type=int, default=1)

    p = add_command("coef", cmd_coef, "shattering count for (n, h, p)")
    p.add_argument("--n", type=int, required=True)
    add_family(p)
    add_format(p)

    p = add_command("bound", cmd_bound, "divergence probability bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    add_family(p)
    p.add_argument("--clamp", action="store_true",
                   help="report 1.0 instead of a vacuous value above 1")
    add_format(p)

    p = add_command("solve-n", cmd_solve_n, "minimal sample size for (delta, eps)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    add_family(p)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    add_format(p)

    p = add_command("solve-eps", cmd_solve_eps, "maximal divergence for (n, delta)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    add_family(p)
    add_format(p)

    p = add_command("curve", cmd_curve, "divergence-vs-n table for (h, p) families")
    p.add_argument("--n-start", type=int, required=True)
    p.add_argument("--n-end", type=int, required=True)
    p.add_argument("--n-points", type=int, required=True)
    p.add_argument("--h-list", type=_int_list, required=True)
    p.add_argument("--p-list", type=_int_list, required=True)
    p.add_argument("--out", type=str, required=True)
    add_format(p, csv_ok=True)

    p = add_command("verify", cmd_verify,
                    "separable labelings of random sets vs the formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="must be positive; echoed in the record, the count "
                        "runs in one process")
    add_format(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse sets the options in declaration order, then `run`
        inputs = {k: v for k, v in vars(args).items()
                  if k not in ("command", "format", "run")}
        record = OutputRecord(args.command, inputs, **args.run(args))
        # a count past CPython's int-to-str digit limit is a ValueError here
        text = _render(record, args.format)
    except NoBracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    # an n past the float range overflows converting to float
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return EXIT_VERIFY_FAIL if "mismatch" in record.flags else EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())
