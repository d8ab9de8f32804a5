"""Command-line front end.

Subcommands
    gaps      three-gap structure of a Kronecker prefix + identity checks
    analyze   fill distance, separation radius, mesh ratio for one n
    sweep     metrics over an n range (CSV by default)
    classify  badly-approximable verdict from the digit expansion
    points    dump a generated point set

Exit codes: 0 success; 1 usage or parse error; 2 unsupported input class
(e.g. rational alpha where the three-gap form needs an irrational); 3
precision unresolved at the configured ceiling; 4 infinite mesh ratio.
`points` refuses --n above 10**6 (MAX_POINTS) with exit 1 before it builds
any point, and `sweep` refuses a --n or --m range of more than 10**6 rows
(MAX_ROWS), or an --n-at nm range whose last n_m has more than 2048 bits
(MAX_NM_BITS), with exit 1 before it evaluates any row.  --bits and
--max-bits above 65536 (MAX_BITS) exit 1 before any work, and a surd whose
digit period does not close in 10**4 digits (contfrac.MAX_PERIOD_WALK) exits
3 in classify and the bound columns.  A bare KronmeshError (a broken internal
invariant) exits 1 with an error line.

Output is deterministic: the same arguments produce byte-identical output.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import List, Optional, Tuple

from .contfrac import (
    CFExpansion,
    PrecisionContext,
    is_badly_approximable,
    parse_alpha,
)
from .errors import KronmeshError, PrecisionUnresolvedError, UnsupportedAlphaError
from .metrics import (
    Segment,
    kronecker_bounds,
    mesh_ratio_structural,
    metrics_to_json,
    sweep,
    sweep_segments,
    sweep_to_csv,
    sweep_to_json,
)
from .sequences import (
    GreedyGen,
    KroneckerGen,
    VdcGen,
    generate,
    points_to_csv,
    points_to_json,
)
from .threegap import gap_structure, gap_structure_json, lengths_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED = 2
EXIT_PRECISION = 3
EXIT_INFINITE = 4

# the largest n a points dump builds: each point is a list entry and an
# output line, so the cap bounds memory before anything is allocated
MAX_POINTS = 10 ** 6

# the most rows one sweep writes: the per-n work is one line of text (a run
# of n with the same cells is evaluated once); checked before any evaluation
MAX_ROWS = 10 ** 6

# the largest n_m, in bits, an --n-at nm sweep evaluates: n_m grows
# exponentially in m, so the row cap alone does not bound its time (the
# slowest sweep admitted, golden --m 1..2949, takes about 4 s)
MAX_NM_BITS = 2048

# the largest --bits and --max-bits: at 65536 a golden analyze at n = 1000
# peaks near 240 MB (its alpha_m window holds about 49k convergents, whose
# sizes grow linearly, so memory is quadratic in the digits)
MAX_BITS = 65536


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the exit-code contract
    # reserves 2 for unsupported input classes, so route through exceptions
    def error(self, message):
        raise _UsageError(message)


def _add_precision(sp) -> None:
    sp.add_argument("--bits", type=int, default=192,
                    help="working precision in bits (default 192)")
    sp.add_argument("--max-bits", type=int, default=MAX_BITS,
                    help=f"escalation ceiling in bits (default and cap {MAX_BITS})")


def _add_output(sp, fmt_default: str, fmt_choices=("csv", "json")) -> None:
    sp.add_argument("--format", choices=list(fmt_choices), default=fmt_default,
                    help=f"output format (default {fmt_default})")
    sp.add_argument("--digits", type=int, default=40,
                    help="significant decimal digits in output (default 40)")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _add_generator(sp) -> None:
    sp.add_argument("--alpha", default=None,
                    help="alpha spec: golden | sqrt:D | quad:P,D,Q | rat:p/q "
                         "| cf:a0;a1,...[(period)]")
    sp.add_argument("--gen", choices=["kronecker", "vdc", "greedy"], default=None,
                    help="generator (default kronecker when --alpha is given)")
    sp.add_argument("--base", type=int, default=2,
                    help="van der Corput base (default 2)")
    sp.add_argument("--tie-break", choices=["leftmost", "rightmost"],
                    default="leftmost", help="greedy packing tie rule")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kronmesh", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gaps", help="three-gap structure for one n")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--n", required=True)
    _add_precision(sp)
    _add_output(sp, "json", fmt_choices=("json",))

    sp = sub.add_parser("analyze", help="quasi-uniformity metrics for one n")
    _add_generator(sp)
    sp.add_argument("--n", required=True)
    _add_precision(sp)
    _add_output(sp, "json", fmt_choices=("json",))

    sp = sub.add_parser("sweep", help="metrics over an n range")
    _add_generator(sp)
    sp.add_argument("--n", default=None, help="range a..b")
    sp.add_argument("--n-range", default=None, help="range a..b (alias of --n)")
    sp.add_argument("--n-at", choices=["nm"], default=None,
                    help="evaluate at n = n_m instead of a contiguous range")
    sp.add_argument("--m", default=None, help="m range a..b for --n-at nm")
    sp.add_argument("--no-bounds", action="store_true",
                    help="skip closed-form bound columns")
    _add_precision(sp)
    _add_output(sp, "csv")

    sp = sub.add_parser("classify", help="badly-approximable verdict")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--probe", type=int, default=64,
                    help="digit probe depth for non-periodic specs")
    _add_output(sp, "json", fmt_choices=("json",))

    sp = sub.add_parser("points", help="dump generated points")
    _add_generator(sp)
    sp.add_argument("--n", required=True)
    _add_precision(sp)
    _add_output(sp, "csv")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing never mutates the parser (defaults are immutable, no append
    # actions, and errors raise _UsageError), so main shares one
    return build_parser()


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{what} must be an integer, got {text!r}")


def _parse_range(text: str, what: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise _UsageError(f"{what} must be a range a..b, got {text!r}")
    a = _parse_int(lo, what)
    b = _parse_int(hi, what)
    if a > b:
        raise _UsageError(f"{what} range is reversed: {text!r}")
    return a, b


def _context(args) -> PrecisionContext:
    for flag, bits in (("--bits", args.bits), ("--max-bits", args.max_bits)):
        if bits > MAX_BITS:
            raise _UsageError(f"{flag} {bits} exceeds the precision cap of {MAX_BITS} bits")
    return PrecisionContext(args.bits, args.max_bits)


def _generator(args):
    gen = args.gen
    if gen is None:
        if args.alpha is None:
            raise _UsageError("need --alpha or --gen")
        gen = "kronecker"
    if gen == "kronecker":
        if args.alpha is None:
            raise _UsageError("--gen kronecker needs --alpha")
        return KroneckerGen(parse_alpha(args.alpha))
    if args.alpha is not None:
        raise _UsageError(f"--alpha does not apply to --gen {gen}")
    if gen == "vdc":
        return VdcGen(args.base)
    return GreedyGen(args.tie_break)


def _cmd_gaps(args) -> Tuple[str, int]:
    ctx = _context(args)
    n = _parse_int(args.n, "--n")
    exp = CFExpansion(parse_alpha(args.alpha))
    gs = gap_structure(exp, n)
    report = lengths_check(gs)
    payload = gap_structure_json(gs, exp, ctx, args.digits)
    payload["checks"] = [dataclasses.asdict(c) for c in report.checks]
    payload["all_passed"] = report.all_passed
    code = EXIT_OK if report.all_passed else EXIT_PRECISION
    return _dumps(payload), code


def _cmd_analyze(args) -> Tuple[str, int]:
    ctx = _context(args)
    n = _parse_int(args.n, "--n")
    gen = _generator(args)
    (row,) = sweep(gen, n, n, ctx)
    payload = metrics_to_json(row.metrics, row.bounds, args.digits)
    return _dumps(payload), EXIT_INFINITE if row.metrics.is_infinite else EXIT_OK


def _check_rows(lo: int, hi: int, what: str) -> None:
    if hi - lo + 1 > MAX_ROWS:
        raise _UsageError(
            f"{what} range of {hi - lo + 1} rows exceeds the sweep cap of {MAX_ROWS}"
        )


def _check_nm(exp: CFExpansion, m_hi: int) -> None:
    """Refuse n_{m_hi} above MAX_NM_BITS, extending digits only until n_m
    passes it (a prefix that ends first is reported by the row loop)."""
    m = min(exp.depth, m_hi)
    while exp.n_at(m).bit_length() <= MAX_NM_BITS:
        if m == m_hi or not exp.ensure(m + 1):
            return
        m += 1
    raise _UsageError(f"--m reaches n_{m} of {exp.n_at(m).bit_length()} bits, "
                      f"above the n_m cap of {MAX_NM_BITS} bits")


def _sweep_segments(args, ctx) -> List[Segment]:
    gen = _generator(args)
    want_bounds = not args.no_bounds
    if args.n_at is not None:
        if args.m is None:
            raise _UsageError("--n-at nm needs --m a..b")
        if not isinstance(gen, KroneckerGen):
            raise _UsageError("--n-at nm applies to Kronecker sequences only")
        exp = CFExpansion(gen.alpha)
        if exp.is_rational:
            raise UnsupportedAlphaError("n_m sweep needs irrational alpha")
        m_lo, m_hi = _parse_range(args.m, "--m")
        if m_lo < 1:
            raise _UsageError("--m range must start at m >= 1")
        _check_rows(m_lo, m_hi, "--m")
        _check_nm(exp, m_hi)
        segments = []
        for m in range(m_lo, m_hi + 1):
            if not exp.ensure(m):
                raise _UsageError(f"--m reaches m={m} but the expansion ends at a_{exp.depth}")
            n = exp.n_at(m)
            segments.append(Segment(n, n, mesh_ratio_structural(exp, n, ctx),
                                    kronecker_bounds(exp, n, ctx) if want_bounds else None))
        return segments
    spec = args.n if args.n is not None else args.n_range
    if spec is None:
        raise _UsageError("sweep needs --n a..b (or --n-at nm --m a..b)")
    lo, hi = _parse_range(spec, "--n")
    _check_rows(lo, hi, "--n")
    return sweep_segments(gen, lo, hi, ctx, with_bounds=want_bounds)


def _cmd_sweep(args) -> Tuple[str, int]:
    ctx = _context(args)
    segments = _sweep_segments(args, ctx)
    write = sweep_to_csv if args.format == "csv" else sweep_to_json
    return write(segments, args.digits), EXIT_OK


def _cmd_classify(args) -> Tuple[str, int]:
    if args.probe < 1:
        raise _UsageError("--probe must be >= 1")
    # the JSON keys are the Classification fields, in order
    verdict = is_badly_approximable(parse_alpha(args.alpha), args.probe)
    return _dumps(dataclasses.asdict(verdict)), EXIT_OK


def _cmd_points(args) -> Tuple[str, int]:
    ctx = _context(args)
    n = _parse_int(args.n, "--n")
    gen = _generator(args)
    if n > MAX_POINTS:
        raise _UsageError(f"--n {n} exceeds the points cap of {MAX_POINTS}")
    ps = generate(gen, n, ctx)
    if args.format == "csv":
        return points_to_csv(ps, args.digits), EXIT_OK
    return _points_json(points_to_json(ps, args.digits)), EXIT_OK


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _points_json(payload: dict) -> str:
    # byte-identical to _dumps(payload): with indent set, json.dumps runs
    # its pure-Python encoder on every point string, so join the array
    # here.  The points are str(Decimal) text (no character needs
    # escaping), the list is never empty (n >= 1), and it is the last key.
    points = payload.pop("points")
    head = json.dumps(payload, indent=2)[:-2]  # drop the closing "\n}"
    body = '",\n    "'.join(points)
    return f'{head},\n  "points": [\n    "{body}"\n  ]\n}}\n'


_COMMANDS = {
    "gaps": _cmd_gaps,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "points": _cmd_points,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and return its exit code.  Safe to call repeatedly
    in one process: every call parses with the same parser."""
    try:
        args = _parser().parse_args(argv)
        text, code = _COMMANDS[args.command](args)
    except (_UsageError, KronmeshError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        # UnsupportedAlphaError is also a ValueError, so it is tested first.
        # A bare KronmeshError is a broken invariant; exit 1 as an uncaught
        # exception would, but with one error line instead of a traceback
        if isinstance(e, UnsupportedAlphaError):
            return EXIT_UNSUPPORTED
        return EXIT_PRECISION if isinstance(e, PrecisionUnresolvedError) else EXIT_USAGE
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
