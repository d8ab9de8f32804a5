"""Replay fixed CLI commands and compare exit code and stdout byte for byte.

tests/data/cli_golden.json holds, for each command, its argv, its exit code
and the sha256 of the exit code and stdout (see `digest`).  The commands
cover all five subcommands, csv and json output, all four generators and
exit codes 0 to 4.  After a deliberate output change, rewrite the fixture
with `PYTHONPATH=src python tests/test_cli_golden.py` and say why in the
commit.
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from kronmesh.cli import main

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _cases():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda c: " ".join(c["argv"]))
def test_cli_output_unchanged(case):
    code, out = run(case["argv"])
    assert code == case["exit"]
    assert digest(code, out) == case["sha256"]


def test_cli_replay_in_one_process():
    # main reuses one parser for the process: replaying every row forward
    # and then in reverse leaks no state from one command into the next
    cases = _cases()
    for case in cases + cases[::-1]:
        code, out = run(case["argv"])
        assert digest(code, out) == case["sha256"], case["argv"]


if __name__ == "__main__":
    cases = []
    for case in _cases():
        code, out = run(case["argv"])
        cases.append({"argv": case["argv"], "exit": code, "sha256": digest(code, out)})
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
    sys.exit(0)
