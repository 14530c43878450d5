"""Command line front end: series computation, verification, evaluation.

Commands
--------
series      compute one statistic's expansion and print it (text/latex/json)
verify      run the registered reference checks, exit non-zero on hard failure
eval        evaluate a statistic numerically in several regimes and compare
conjecture  run the conjectured-pattern validators and print a report

Exit codes: 0 success, 1 hard verification failure, 2 usage or input error.
The `delaymoments` command enters through `run()`, which ends the process
with os._exit once the atexit callbacks have run and the streams are flushed.
Timing goes to stderr so stdout stays byte-for-byte deterministic.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
import time
from fractions import Fraction

from .algebra import (
    _LATEX_SYMBOL,
    PoleError,
    RationalFunction,
    TruncatedSeries,
    VAR_GAMMA,
    VAR_INV_GAMMA,
    VAR_INV_M,
    VARIABLE_SYMBOL,
    expansion_value,
)
from .partitions import Partition
from .stats import (
    SCOPES,
    STATISTICS,
    RegimeRequest,
    StatisticRequest,
    compute_statistic,
    validate_conjectures,
)

SCHEMA_VERSION = 1
MAX_ORDER = 64  # caps every order, index, partition weight and --n-max

_REGIME_TOKENS = {"inv-m": VAR_INV_M, "gamma": VAR_GAMMA, "inv-gamma": VAR_INV_GAMMA}
_REGIME_NAMES = {v: k for k, v in _REGIME_TOKENS.items()}


class UsageError(Exception):
    pass


def _partition_arg(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


# argparse options per kind of STATISTICS argument.  A flag without an
# argument stores True, else None, so "was this flag given" is `is not None`
# for every flag (an index of 0 is given, and then refused).
_ARGUMENT_OPTIONS = {
    "partition": {"type": _partition_arg, "metavar": "PARTITION"},
    "n": {"type": int, "metavar": "N"},
    None: {"action": "store_const", "const": True},
}


def _add_statistic_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    for kind, stat in STATISTICS.items():
        group.add_argument(f"--{stat.selector}", dest=kind, help=stat.help,
                           **_ARGUMENT_OPTIONS[stat.argument])


def _statistic_request(args, regime: str, order: int) -> StatisticRequest:
    kind = next(k for k in STATISTICS if getattr(args, k) is not None)
    argument = STATISTICS[kind].argument
    values = {argument: getattr(args, kind)} if argument else {}
    if argument == "partition":
        _check_size("partition weight", values["partition"].weight)
    elif argument == "n":
        _check_size("index", values["n"])
    return StatisticRequest(kind, RegimeRequest(regime, order), **values)


def _request_label(sreq: StatisticRequest) -> dict:
    return {
        "kind": STATISTICS[sreq.kind].selector,
        "partition": str(sreq.partition) if sreq.partition is not None else None,
        "n": sreq.n,
        "regime": _REGIME_NAMES[sreq.request.regime],
        "order": sreq.request.order,
    }


def _coeff_payload(coeff: RationalFunction) -> dict:
    num, den = coeff.integer_form()
    return {
        "num": [str(c) for c in num],
        "den": [str(c) for c in den],
        "symbol": coeff.symbol,
        "factored": str(coeff),
    }


def document_for_series(sreq: StatisticRequest, series: TruncatedSeries) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "request": _request_label(sreq),
        "terms": [{"power": p, "coeff": _coeff_payload(c)}
                  for p, c in series.terms()],
        "guarantee_order": series.order,
    }


def render_json(document: dict) -> str:
    # Imported here so that text, latex and eval requests skip loading json.
    import json

    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _statistic_title(sreq: StatisticRequest) -> str:
    return STATISTICS[sreq.kind].title.format(partition=sreq.partition, n=sreq.n)


def _text_power(variable: str, p: int) -> str:
    symbol, e = VARIABLE_SYMBOL[variable]
    return f"{symbol}^{p}" if e > 0 else f"(1/{symbol})^{p}"


def render_text(sreq: StatisticRequest, series: TruncatedSeries) -> str:
    lines = [
        f"statistic: {_statistic_title(sreq)}",
        f"regime: {_REGIME_NAMES[series.variable]}   "
        f"guaranteed order: {series.order}   coefficients in: {series.coefficient_symbol}",
    ]
    terms = series.terms()
    if not terms:
        lines.append("  (no non-zero coefficients up to the guaranteed order)")
    for p, c in terms:
        lines.append(f"  {_text_power(series.variable, p)}: {c}")
    return "\n".join(lines) + "\n"


def _latex_power(variable: str, p: int) -> str:
    symbol, e = VARIABLE_SYMBOL[variable]
    exponent = e * p
    if not exponent:
        return ""
    base = _LATEX_SYMBOL[symbol]
    if abs(exponent) > 1:
        base = rf"{base}^{{{abs(exponent)}}}"
    return base if exponent > 0 else rf"\frac{{1}}{{{base}}}"


def render_latex(sreq: StatisticRequest, series: TruncatedSeries) -> str:
    body = ""
    for p, c in series.terms():
        coeff = c.latex()
        negative = coeff.startswith("-")
        if negative:
            coeff = coeff[1:]
        if coeff == "1" and p != 0:
            coeff = ""
        power = _latex_power(series.variable, p)
        piece = coeff if not power else (rf"{coeff}\,{power}" if coeff else power)
        if not body:
            body = ("-" if negative else "") + piece
        else:
            body += (" - " if negative else " + ") + piece
    if not body:
        body = "0"
    symbol, e = VARIABLE_SYMBOL[series.variable]
    return f"{body} + O({_LATEX_SYMBOL[symbol]}^{{{e * (series.order + 1)}}})\n"


def _check_size(name: str, size: int) -> None:
    if size > MAX_ORDER:
        raise UsageError(f"{name} {size} exceeds the cap {MAX_ORDER}")


def _check_order(order: int) -> None:
    if order < 0:
        raise UsageError("order must be non-negative")
    _check_size("order", order)


def cmd_series(args) -> int:
    _check_order(args.order)
    sreq = _statistic_request(args, _REGIME_TOKENS[args.regime], args.order)
    start = time.perf_counter()
    series = compute_statistic(sreq)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        output = render_json(document_for_series(sreq, series))
    elif args.format == "latex":
        output = render_latex(sreq, series)
    else:
        output = render_text(sreq, series)
    sys.stdout.write(output)
    print(f"# computed in {elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    # Imported here so that the other commands skip loading the registry.
    from .reference import all_checks

    results = [c.execute() for c in all_checks(args.scope)]
    hard_failures = 0
    soft_failures = 0
    for res in results:
        print(res.line())
        if not res.passed:
            if res.hard:
                hard_failures += 1
            else:
                soft_failures += 1
    print(f"summary: {len(results)} checks, {hard_failures} hard failures, "
          f"{soft_failures} soft findings")
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "scope": args.scope,
            "strict": bool(args.strict),
            "results": [{"key": r.key, "scope": r.scope, "hard": r.hard,
                         "passed": r.passed, "detail": r.detail}
                        for r in results],
        }
        sys.stdout.write(render_json(payload))
    if hard_failures or (args.strict and soft_failures):
        return 1
    return 0


def _first_omitted(series_hi: TruncatedSeries, order_lo: int,
                   m_value: Fraction, gamma_value: Fraction) -> Fraction | None:
    """Magnitude of the first non-zero term beyond order_lo, from a series
    computed at a higher order."""
    x = expansion_value(series_hi.variable, m_value, gamma_value)
    for p in range(order_lo + 1, series_hi.order + 1):
        c = series_hi.coefficient(p)
        if not c.is_zero:
            return abs(c.evaluate(m_value)) * abs(x) ** p
    return None


def _scientific(value: Fraction, digits: int) -> str:
    """`value` in `.{digits}e` form: through float whenever that is finite,
    else exactly, for magnitudes beyond the float range."""
    try:
        return f"{float(value):.{digits}e}"
    except OverflowError:
        # Imported here: the float path serves every value in range.
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = digits + 1
            quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return f"{quotient:.{digits}e}"


def cmd_eval(args) -> int:
    orders = {VAR_INV_M: args.order_inv_m, VAR_GAMMA: args.order_gamma,
              VAR_INV_GAMMA: args.order_inv_gamma}
    requested = {regime: order for regime, order in orders.items()
                 if order is not None}
    if not requested:
        raise UsageError("give at least one of --order-inv-m / --order-gamma "
                         "/ --order-inv-gamma")
    for order in requested.values():
        _check_order(order)
    if args.gamma_value <= 0:
        raise UsageError("the absorption strength must be positive")
    if args.m_value <= 0:
        raise UsageError("the channel number M must be positive")
    values: dict[str, Fraction] = {}
    omitted: dict[str, Fraction | None] = {}
    for regime, order in requested.items():
        # Series are exact through their order, so one computation two powers
        # beyond the requested order serves both the value and the estimate.
        series_hi = compute_statistic(_statistic_request(args, regime, order + 2))
        series = series_hi.truncate(order)
        values[regime] = series.evaluate(args.m_value, args.gamma_value)
        omitted[regime] = _first_omitted(series_hi, order,
                                         args.m_value, args.gamma_value)
    print(f"point: M = {args.m_value}, absorption strength = {args.gamma_value}")
    for regime in requested:
        v = values[regime]
        est = omitted[regime]
        est_text = _scientific(est, 6) if est is not None else "0 (exhausted)"
        print(f"  {_REGIME_NAMES[regime]:9s} order {requested[regime]:3d}: "
              f"{_scientific(v, 12)}  (exact {v};  first omitted term ~ {est_text})")
    regimes = list(requested)
    for i in range(len(regimes)):
        for j in range(i + 1, len(regimes)):
            a, b = regimes[i], regimes[j]
            diff = abs(values[a] - values[b])
            print(f"  |{_REGIME_NAMES[a]} - {_REGIME_NAMES[b]}| = {_scientific(diff, 6)}")
    return 0


def cmd_conjecture(args) -> int:
    _check_size("max_n", args.n_max)
    results = validate_conjectures(args.n_max)
    for res in results:
        line = f"{'PASS' if res.passed else 'FAIL'} {res.key}: {res.description}"
        print(line + (f" [{res.detail}]" if res.detail and not res.passed else ""))
    all_passed = all(res.passed for res in results)
    sys.stdout.write(render_json({
        "schema_version": SCHEMA_VERSION,
        "max_n": args.n_max,
        "all_passed": all_passed,
        "items": [{"id": res.key, "description": res.description,
                   "passed": res.passed, "detail": res.detail}
                  for res in results],
    }))
    if args.strict and not all_passed:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaymoments",
        description="Exact asymptotic series for time-delay statistics of "
                    "absorbing chaotic cavities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="compute one statistic's expansion")
    _add_statistic_flags(p_series)
    p_series.add_argument("--regime", required=True, choices=sorted(_REGIME_TOKENS))
    p_series.add_argument("--order", required=True, type=int)
    p_series.add_argument("--format", choices=("text", "latex", "json"),
                          default="text")
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", help="run the reference checks")
    p_verify.add_argument("--scope", default="all", choices=("all", *SCOPES))
    p_verify.add_argument("--strict", action="store_true",
                          help="soft findings also fail the run")
    p_verify.add_argument("--json", action="store_true",
                          help="append a machine-readable result block")
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate a statistic numerically")
    _add_statistic_flags(p_eval)
    p_eval.add_argument("--m-value", required=True, type=_rational_arg)
    p_eval.add_argument("--gamma-value", required=True, type=_rational_arg)
    p_eval.add_argument("--order-inv-m", type=int)
    p_eval.add_argument("--order-gamma", type=int)
    p_eval.add_argument("--order-inv-gamma", type=int)
    p_eval.set_defaults(func=cmd_eval)

    p_conj = sub.add_parser("conjecture", help="validate the conjectured patterns")
    p_conj.add_argument("--n-max", type=int, default=4)
    p_conj.add_argument("--strict", action="store_true")
    p_conj.set_defaults(func=cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (UsageError, PoleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return _closed_stdout()
    return code


def _closed_stdout() -> int:
    """Stdout's reader has gone: point fd 1 at the null device, so that a
    later flush of what is still buffered succeeds, and report it."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), 1)
    print("error: standard output was closed", file=sys.stderr)
    return 2


def run() -> None:
    """Entry point of the `delaymoments` command; never returns.  Runs
    `main()` and ends the process without the interpreter's teardown, which
    only frees memory (the caches, the modules) that the exiting process
    gives back anyway.  As the teardown would, it first runs the atexit
    callbacks and then flushes the standard streams."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, or a usage error (2)
        code = exc.code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _closed_stdout()
    sys.stderr.flush()
    # os._exit neither flushes nor closes anything: every file a command
    # opens (a future `--trace FILE` too) must be closed before main returns.
    os._exit(code)


if __name__ == "__main__":
    run()
