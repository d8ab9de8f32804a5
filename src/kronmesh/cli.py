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
--max-bits above 65536 (MAX_BITS) and --digits above 1000 (MAX_DIGITS) exit
1 before any work, and a surd whose digit period does not close in 10**6
digits (contfrac.MAX_PERIOD_WALK) exits 3 in classify and the bound
columns.  A bare KronmeshError (a broken internal invariant) exits 1 with an
error line, and so does a write that fails: an --out path that cannot be
written (a missing directory, a directory, a full disk) or a closed stdout
pipe.  Every value is decided before the first byte; `sweep` and `points`
then write their text in chunks as it is rendered (bounded memory), so a
write that fails partway leaves a partial --out file.

Output is deterministic: the same arguments produce byte-identical output.
"""
from __future__ import annotations

import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .contfrac import CFExpansion, PrecisionContext, _too_long, is_badly_approximable, parse_alpha
from .errors import KronmeshError, PrecisionUnresolvedError, UnsupportedAlphaError
from .metrics import (
    Segment,
    _bounds,
    _csv_chunks,
    _json_chunks,
    _pair_json,
    _row_document,
    _structural,
    metrics_to_json,
    sweep_segments,
)
from .sequences import (
    GreedyGen,
    KroneckerGen,
    VdcGen,
    _csv_point_chunks,
    _json_point_chunks,
    generate,
)
from .threegap import (Decomposition, _gap_structure, gap_structure, gap_structure_json,
                       lengths_check)

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
# exponentially in m, so the row cap alone does not bound its time (golden
# --m 1..2949, the longest sweep admitted, takes about 0.2 s)
MAX_NM_BITS = 2048

# the largest --bits and --max-bits: at 65536 an analyze at n = 1000 of a
# 47000-digit cf: prefix peaks near 220 MB (its alpha_m bracket holds 47k
# convergents, whose sizes grow linearly, so memory is quadratic in digits)
MAX_BITS = 65536

# the most significant digits a printed value gets: each value is rendered
# by a Decimal division at this precision, so the cap bounds the size of
# every cell (with MAX_POINTS and MAX_ROWS, of the output) before any work
MAX_DIGITS = 1000


class _UsageError(Exception):
    pass


class _Opt(NamedTuple):
    # one option of a subcommand; `type` is int, str, or bool for a switch
    flag: str
    default: object = None
    type: type = str
    choices: Optional[Tuple[str, ...]] = None
    required: bool = False
    help: Optional[str] = None


_GENERATOR = (
    _Opt("--alpha", help="alpha spec: golden | sqrt:D | quad:P,D,Q | rat:p/q "
                         "| cf:a0;a1,...[(period)]"),
    _Opt("--gen", choices=("kronecker", "vdc", "greedy"),
         help="generator (default kronecker when --alpha is given)"),
    _Opt("--base", 2, int, help="van der Corput base (default 2)"),
    _Opt("--tie-break", "leftmost", choices=("leftmost", "rightmost"),
         help="greedy packing tie rule"),
)
_PRECISION = (
    _Opt("--bits", 192, int, help="working precision in bits (default 192) of digit-prefix "
                                  "enclosures and point lattices; a quadratic surd's "
                                  "metrics, bounds and gaps are exact"),
    _Opt("--max-bits", MAX_BITS, int,
         help=f"escalation ceiling in bits (default and cap {MAX_BITS}) of the same"),
)


def _output(fmt_default: str, fmt_choices=("csv", "json")) -> Tuple[_Opt, ...]:
    return (_Opt("--format", fmt_default, choices=fmt_choices,
                 help=f"output format (default {fmt_default})"),
            _Opt("--digits", 40, int,
                 help=f"significant decimal digits in output (default 40, cap {MAX_DIGITS})"),
            _Opt("--out", help="output path (default stdout)"))


_ALPHA, _N = _Opt("--alpha", required=True), _Opt("--n", required=True)
_JSON = _output("json", ("json",))
# command -> (help, options in --help order), declared to argparse by
# build_parser and read without argparse by _walk
_TABLE = {
    "gaps": ("three-gap structure for one n", (_ALPHA, _N, *_PRECISION, *_JSON)),
    "analyze": ("quasi-uniformity metrics for one n", (*_GENERATOR, _N, *_PRECISION, *_JSON)),
    "sweep": ("metrics over an n range", (
        *_GENERATOR, _Opt("--n", help="range a..b"),
        _Opt("--n-range", help="range a..b (alias of --n)"),
        _Opt("--n-at", choices=("nm",), help="evaluate at n = n_m instead of a contiguous range"),
        _Opt("--m", help="m range a..b for --n-at nm"),
        _Opt("--no-bounds", False, bool, help="skip closed-form bound columns"),
        *_PRECISION, *_output("csv"))),
    "classify": ("badly-approximable verdict", (
        _ALPHA, _Opt("--probe", 64, int, help="digit probe depth for non-periodic specs"), *_JSON)),
    "points": ("dump generated points", (*_GENERATOR, _N, *_PRECISION, *_output("csv"))),
}
_FLAGS = {name: {o.flag: o for o in opts} for name, (_, opts) in _TABLE.items()}


def build_parser():
    # argparse is imported here: main needs it only for an argv _walk declines
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad usage; the exit-code contract
        # reserves 2 for unsupported input classes, so route through exceptions
        def error(self, message):
            raise _UsageError(message)

    p = _Parser(prog="kronmesh", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, opts) in _TABLE.items():
        sp = sub.add_parser(name, help=help_text)
        for o in opts:
            kw = (dict(action="store_true") if o.type is bool else
                  dict(type=_int_type(o.flag) if o.type is int else None, choices=o.choices,
                       default=o.default, required=o.required))
            sp.add_argument(o.flag, help=o.help, **kw)
    return p


def _int_type(flag: str):
    """int for an argparse flag, but integer text past int()'s digit limit
    is refused with one line naming the flag, as _parse_int does, instead of
    argparse's "invalid int value" quoting every digit."""
    def parse(text: str) -> int:
        message = _too_long(text, flag)
        if message:
            raise _UsageError(message)  # argparse lets it through to main
        return int(text)
    parse.__name__ = "int"  # argparse names the type in its other errors
    return parse


@functools.cache
def _parser():
    # parsing never mutates the parser (defaults are immutable, no append
    # actions, and errors raise _UsageError), so main shares one
    return build_parser()


def _walk(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives a well-formed argv: a known command, then
    only exact `--flag value`, `--flag=value` and switch tokens, valid ints
    and choices, and every required flag.  Any other argv (help, abbreviations,
    values starting with "-", unknown, missing or bad flags) gives None."""
    opts = _FLAGS.get(argv[0]) if argv else None
    if opts is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        opt = opts.get(flag)
        if opt is None or (eq and opt.type is bool):
            return None
        if opt.type is not bool and not eq:
            value = next(tokens, "-")  # no value at all is declined like "-..."
            if value.startswith("-"):
                return None
        try:
            given[flag] = True if opt.type is bool else opt.type(value)
        except ValueError:
            return None
        if opt.choices and given[flag] not in opt.choices:
            return None
    if any(o.required and o.flag not in given for o in opts.values()):
        return None
    args = {o.flag[2:].replace("-", "_"): given.get(o.flag, o.default) for o in opts.values()}
    return SimpleNamespace(command=argv[0], **args)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(_too_long(text, what) or f"{what} must be an integer, got {text!r}")


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


def _cmd_gaps(args) -> Tuple[Iterable[str], int]:
    ctx = _context(args)
    n = _parse_int(args.n, "--n")
    exp = CFExpansion(parse_alpha(args.alpha))
    gs = gap_structure(exp, n)
    report = lengths_check(gs)
    payload = gap_structure_json(gs, exp, ctx, args.digits)
    payload["checks"] = [c._asdict() for c in report.checks]
    payload["all_passed"] = report.all_passed
    code = EXIT_OK if report.all_passed else EXIT_PRECISION
    return (_gaps_document(payload),), code


def _cmd_analyze(args) -> Tuple[Iterable[str], int]:
    ctx = _context(args)
    n = _parse_int(args.n, "--n")
    gen = _generator(args)
    if n < 2:
        raise _UsageError(f"analyze needs --n >= 2 (a mesh ratio needs two points), got {n}")
    (seg,) = sweep_segments(gen, n, n, ctx)
    payload = metrics_to_json(seg.metrics, seg.bounds, args.digits)
    return (_row_document(payload),), EXIT_INFINITE if seg.metrics.is_infinite else EXIT_OK


def _check_rows(lo: int, hi: int, what: str) -> None:
    if hi - lo + 1 > MAX_ROWS:
        raise _UsageError(
            f"{what} range of {hi - lo + 1} rows exceeds the sweep cap of {MAX_ROWS}"
        )


def _check_nm(exp: CFExpansion, m_hi: int) -> None:
    """Refuse n_{m_hi} above MAX_NM_BITS, drawing the digits of a fresh
    expansion only until q_m passes it (a prefix that ends first is reported
    by the row loop).  n_{m-1} <= q_m, so the first n_m over the cap is at
    one of the last two depths."""
    cap = 1 << MAX_NM_BITS
    exp.ensure_q(cap, m_hi)
    top = min(exp.depth, m_hi)
    for m in (max(top - 1, 0), top):
        if exp.n_at(m) >= cap:
            raise _UsageError(f"--m reaches n_{m} of {exp.n_at(m).bit_length()} bits, "
                              f"above the n_m cap of {MAX_NM_BITS} bits")


def _sweep_segments(args, ctx) -> List[Segment]:
    given = {"--n": args.n, "--n-range": args.n_range, "--m": args.m}
    ranges = [flag for flag, spec in given.items() if spec is not None]
    if len(ranges) > 1:
        raise _UsageError(f"{' and '.join(ranges)} conflict: give one range")
    if args.m is not None and args.n_at is None:
        raise _UsageError("--m applies to --n-at nm only")
    gen = _generator(args)
    want_bounds = not args.no_bounds
    if args.n_at is not None:
        if args.m is None:
            raise _UsageError("--n-at nm needs --m a..b")
        if not isinstance(gen, KroneckerGen):
            raise _UsageError("--n-at nm applies to Kronecker sequences only")
        exp = CFExpansion(gen.alpha)
        if exp.finite:
            raise UnsupportedAlphaError("n_m sweep needs irrational alpha")
        m_lo, m_hi = _parse_range(args.m, "--m")
        if m_lo < 1:
            raise _UsageError("--m range must start at m >= 1")
        _check_rows(m_lo, m_hi, "--m")
        _check_nm(exp, m_hi)
        exp.ensure(m_hi + 1 + want_bounds)  # each row's a_{m+1}, and a_{m+2} for its digit form
        segments, cv = [], exp.convergents
        for m in range(m_lo, m_hi + 1):
            if not exp.ensure(m):
                raise _UsageError(f"--m reaches m={m} but the expansion ends at a_{exp.depth}")
            # n_m = q_m + q_{m-1} is (m, 0, 0) once a_{m+1} bounds h; a
            # prefix ending at a_m leaves gap_structure to refuse it
            n = cv[m][1] + cv[m - 1][1]
            gs = (_gap_structure(exp, n, Decomposition(m, 0, 0)) if exp.ensure(m + 1)
                  else gap_structure(exp, n))
            segments.append(Segment(gs.n, gs.n, _structural(exp, gs, ctx),
                                    _bounds(exp, gs.n, gs.decomposition, ctx)
                                    if want_bounds else None))
        return segments
    spec = args.n if args.n is not None else args.n_range
    if spec is None:
        raise _UsageError("sweep needs --n a..b (or --n-at nm --m a..b)")
    lo, hi = _parse_range(spec, "--n")
    _check_rows(lo, hi, "--n")
    return sweep_segments(gen, lo, hi, ctx, with_bounds=want_bounds)


def _cmd_sweep(args) -> Tuple[Iterable[str], int]:
    ctx = _context(args)
    segments = _sweep_segments(args, ctx)
    _check_digits(args.digits)
    write = _csv_chunks if args.format == "csv" else _json_chunks
    return write(segments, args.digits), EXIT_OK


def _cmd_classify(args) -> Tuple[Iterable[str], int]:
    if args.probe < 1:
        raise _UsageError("--probe must be >= 1")
    # the JSON keys are the Classification fields, in order
    verdict = is_badly_approximable(parse_alpha(args.alpha), args.probe)
    return (_classify_document(verdict._asdict()),), EXIT_OK


def _cmd_points(args) -> Tuple[Iterable[str], int]:
    ctx = _context(args)
    n = _parse_int(args.n, "--n")
    gen = _generator(args)
    if n > MAX_POINTS:
        raise _UsageError(f"--n {n} exceeds the points cap of {MAX_POINTS}")
    ps = generate(gen, n, ctx)
    _check_digits(args.digits)
    write = _csv_point_chunks if args.format == "csv" else _json_point_chunks
    return write(ps, args.digits), EXIT_OK


def _check_digits(digits: int) -> None:
    # the renderers refuse --digits below 1, but the chunk writers render
    # while main writes, where nothing may raise: refuse it here, after the
    # evaluation, whose errors come first
    if digits < 1:
        raise _UsageError("digits must be >= 1")


# the documents below are json.dumps(doc, indent=2) + "\n" of their dicts,
# written from templates of their fixed shapes; strings go through json's
# own escaper, so the text is the same for any value


def _gaps_document(doc: dict) -> str:
    """The gaps document: gap_structure_json with "checks" and "all_passed"."""
    s = encode_basestring_ascii
    entries = ",\n".join([
        f'    {{\n      "u": {e["u"]},\n      "v": {e["v"]},\n'
        f'      "multiplicity": {e["multiplicity"]},\n'
        f'      "interval": {_pair_json(e["interval"], "      ")}\n    }}'
        for e in doc["entries"]])
    checks = ",\n".join([
        f'    {{\n      "name": {s(c["name"])},\n      "passed": {_bool(c["passed"])},\n'
        f'      "detail": {s(c["detail"])}\n    }}'
        for c in doc["checks"]])
    return (f'{{\n  "n": {doc["n"]},\n  "m": {doc["m"]},\n  "h": {doc["h"]},\n'
            f'  "k": {doc["k"]},\n  "entries": [\n{entries}\n  ],\n'
            f'  "checks": [\n{checks}\n  ],\n  "all_passed": {_bool(doc["all_passed"])}\n}}\n')


def _classify_document(doc: dict) -> str:
    """The classify document: the Classification fields, in order."""
    s, c_bound = encode_basestring_ascii, doc["c_bound"]
    return (f'{{\n  "verdict": {s(doc["verdict"])},\n  "digit_sup": {doc["digit_sup"]},\n'
            f'  "certainty": {s(doc["certainty"])},\n'
            f'  "c_bound": {"null" if c_bound is None else c_bound}\n}}\n')


def _bool(value: bool) -> str:
    return "true" if value else "false"


_COMMANDS = {
    "gaps": _cmd_gaps,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "points": _cmd_points,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and return its exit code.  Safe to call repeatedly
    in one process: a well-formed argv is read off the option table, and
    any other is parsed by one argparse parser, built on first need."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _walk(argv) or _parser().parse_args(argv)
        if args.digits > MAX_DIGITS:
            raise _UsageError(f"--digits {args.digits} exceeds the output cap of {MAX_DIGITS}")
        chunks, code = _COMMANDS[args.command](args)
    except (_UsageError, KronmeshError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        # UnsupportedAlphaError is also a ValueError, so it is tested first.
        # A bare KronmeshError is a broken invariant; exit 1 as an uncaught
        # exception would, but with one error line instead of a traceback
        if isinstance(e, UnsupportedAlphaError):
            return EXIT_UNSUPPORTED
        return EXIT_PRECISION if isinstance(e, PrecisionUnresolvedError) else EXIT_USAGE
    # every value is decided by now: the chunks only format and join, so
    # the exit code is settled before the first byte
    out_path = getattr(args, "out", None)
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as e:  # a missing directory, a directory, a full disk, a closed pipe
        if isinstance(e, BrokenPipeError) and not out_path:
            _discard_stdout()
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _discard_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so that the flush at
    interpreter exit does not fail again on the closed pipe (the recipe in
    the signal module's documentation).  A stream without a descriptor
    (StringIO, a test capture) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
