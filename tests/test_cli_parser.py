"""The option-table walk against argparse.

`cli.main` reads a well-formed argv off the option table and hands every
other argv to the argparse parser that `build_parser` declares from the same
table.  Wherever the walk accepts an argv, it must read it exactly as
argparse does; and `main` must answer every argv as it does with the walk
declining all of them.
"""
import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kronmesh import cli

COMMANDS = tuple(cli._TABLE)
FLAGS = sorted({o.flag for _, opts in cli._TABLE.values() for o in opts})
# abbreviations argparse resolves or finds ambiguous, near misses and
# tokens that are no option of any command
ODD_FLAGS = ("--dig", "--max", "--no", "--n-", "--n-r", "--al", "--fo", "--tie",
             "--b", "--N", "--zzz", "-x", "-n", "-h", "--help", "--", "-",
             "--no-bounds=1", "--no-bounds=")
VALUES = ("golden", "sqrt:2", "rat:1/3", "cf:0;(1,2)", "5", "12", "2..6", "1..3",
          "9..2", "json", "csv", "xml", "nm", "kronecker", "vdc", "greedy",
          "leftmost", "rightmost", "sideways", "0x10", "1_000", " 7 ", "+4", "3",
          "64", "-3", "-5", "-x", "-", "", "a=b", "=", "-1..3", "two words")
# values each kind of option takes when it is well-formed
GOOD_INTS = ("3", "40", "64", "192", " 7 ", "1_000", "+5", "0")
GOOD_STRS = ("golden", "sqrt:2", "rat:1/3", "cf:0;(1,2)", "5", "2..6", "1..3", "")


def _value(draw, opt):
    if opt.choices:
        return draw(st.sampled_from(opt.choices + ("xml",)))
    return draw(st.sampled_from(GOOD_INTS if opt.type is int else GOOD_STRS))


@st.composite
def well_formed(draw):
    """Mostly valid argv for one command: every required flag, some others,
    values in both the separate and the `=` form, sometimes a flag twice,
    and sometimes one stray token inserted."""
    cmd = draw(st.sampled_from(COMMANDS))
    opts = cli._TABLE[cmd][1]
    chosen = [o for o in opts if o.required or draw(st.booleans())]
    chosen += draw(st.lists(st.sampled_from(opts), max_size=2))
    chosen = draw(st.permutations(chosen))
    argv = [cmd]
    for o in chosen:
        if o.type is bool:
            argv.append(o.flag)
        elif draw(st.booleans()):
            argv.append(f"{o.flag}={_value(draw, o)}")
        else:
            argv += [o.flag, _value(draw, o)]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(_token))
    return argv


_token = st.one_of(
    st.sampled_from(FLAGS + list(ODD_FLAGS)),
    st.sampled_from(VALUES),
    st.builds("{}={}".format, st.sampled_from(FLAGS + list(ODD_FLAGS[:9])),
              st.sampled_from(VALUES)),
)
_any = st.builds(lambda cmd, rest: [cmd, *rest],
                 st.sampled_from(COMMANDS + ("nope", "gap", "-h", "--help", "", "--n")),
                 st.lists(_token, max_size=8))
ARGVS = st.one_of(well_formed(), _any, st.just([]))


@pytest.fixture(scope="module", autouse=True)
def _in_scratch_directory(tmp_path_factory):
    # an --out drawn from the value pool writes a file named after it
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("out"))
    yield
    os.chdir(cwd)


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("return", cli.main(list(argv)))
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


_EXAMPLES = [
    [], ["nope"], ["-h"], ["--help"], ["gaps", "-h"], ["sweep", "--help"],
    ["gaps", "--alpha", "golden", "--n", "5"],
    ["sweep", "--alpha", "golden", "--dig", "5", "--n", "2..4"],
    ["analyze", "--gen", "vdc", "--n", "5", "--max", "300"],
    ["sweep", "--alpha", "golden", "--n", "2..4", "--no"],
    ["sweep", "--alpha", "golden", "--n-", "2..4"],
    ["sweep", "--alpha", "golden", "--n", "2..4", "--n-at", "nm", "--n-range", "2..3"],
    ["analyze", "--alpha=golden", "--n="],
    ["analyze", "--alpha=", "--n=5"],
    ["analyze", "--alpha", "golden", "--n", "5", "--bits", "-3"],
    ["analyze", "--alpha", "golden", "--n=-5"],
    ["analyze", "--alpha", "-x", "--n", "5"],
    ["analyze", "--alpha", "golden", "--n", "5", "--n", "7"],
    ["analyze", "--alpha", "golden", "--n", "5", "--digits"],
    ["analyze", "--alpha", "golden", "--n", "5", "--zzz", "1"],
    ["analyze", "--alpha", "golden", "--n", "5", "extra"],
    ["analyze", "--gen", "vdc", "--base", "0x10", "--n", "5"],
    ["analyze", "--gen", "vdc", "--base", "1_000", "--n", "5"],
    ["analyze", "--gen", "vdc", "--base", " 7 ", "--n", "5"],
    ["analyze", "--gen", "sideways", "--n", "5"],
    ["points", "--gen", "greedy", "--tie-break", "middle", "--n", "4"],
    ["sweep", "--alpha", "golden", "--n", "2..4", "--no-bounds=1"],
    ["sweep", "--alpha", "golden", "--n", "2..4", "--no-bounds", "--no-bounds"],
    ["classify", "--alpha", "golden", "--probe", "1_000"],
]


def _with_examples(test):
    for argv in reversed(_EXAMPLES):
        test = example(argv)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(ARGVS)
@_with_examples
def test_walk_reads_argv_as_argparse_does(argv):
    args = cli._walk(argv)
    if args is not None:
        assert vars(args) == vars(cli._parser().parse_args(argv))


@settings(max_examples=250, deadline=None)
@given(ARGVS)
@_with_examples
def test_main_answers_as_without_the_walk(argv):
    want = _outcome(argv)
    with mock.patch.object(cli, "_walk", lambda argv: None):
        assert _outcome(argv) == want


def test_walk_accepts_every_well_formed_fixture_command():
    # every fixture command is written the well-formed way, so none of them
    # needs argparse
    rows = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    for row in rows:
        args = cli._walk(row["argv"])
        assert args is not None, row["argv"]
        assert vars(args) == vars(cli._parser().parse_args(row["argv"])), row["argv"]


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["-h"], ["gaps", "--help"],
    ["analyze", "--alpha", "golden", "--n", "5", "--dig", "5"],
    ["sweep", "--alpha", "golden", "--n", "2..4", "--no"],
    ["analyze", "--alpha", "golden", "--n", "5", "--bits", "-3"],
    ["analyze", "--alpha", "golden", "--n"],
    ["analyze", "--alpha", "golden", "--n", "5", "--base", "0x10"],
    ["analyze", "--alpha", "golden", "--n", "5", "--format", "csv"],
    ["analyze", "--alpha", "golden"],
    ["analyze", "--alpha", "golden", "--n", "5", "stray"],
    ["sweep", "--alpha", "golden", "--n", "2..4", "--no-bounds=1"],
])
def test_walk_declines_what_needs_argparse(argv):
    assert cli._walk(argv) is None
