"""Reproduce the known defect that kron-deep works around (README.md).

    python3 bench/defects.py

At the default --bits 192, `sweep --n-at nm` prints fill, separation and
rho to 40 digits, but past n_m of about 1e10 fewer of them are right.  For
each case below the script prints the row at the default precision and at
the precision kron-deep asks for (workloads.nm_bits), each judged by the
same exact enclosures as the benchmark's oracle check.  It exits 1 while
any default-precision row is wrong, and 0 once the program fixes it.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from workloads import Request, nm_bits, nm_values, spec_digits  # noqa: E402

# (alpha, first m, last m): n_m sweeps of the shape kron-deep sends, whose
# last row is judged
CASES = (
    ("sqrt:213", 1, 23),
    ("sqrt:213", 8, 31),
    ("sqrt:213", 189, 212),
    ("cf:1;7(2)", 46, 69),
)


def row_errors(spec: str, m_lo: int, m: int, bits: int) -> list:
    import kronmesh.cli as cli

    argv = ("sweep", "--alpha", spec, "--n-at", "nm", "--m", f"{m_lo}..{m}",
            "--bits", str(bits), "--format", "json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        return [f"exit code {code}"]
    row = checks.sweep_rows(Request("kron-nm", argv), out.getvalue())[-1]
    alpha = checks.Alpha(spec, 2400)
    return checks._check_enclosed(row, checks._nm_metrics(alpha, m), 40, f"m={m}")


def main() -> int:
    defective = 0
    for spec, m_lo, m in CASES:
        n = nm_values(spec_digits(spec, m + 1)[0])[m]
        for bits in (192, nm_bits(n)):
            errs = row_errors(spec, m_lo, m, bits)
            defective += bool(errs) and bits == 192
            verdict = "wrong: " + "; ".join(errs) if errs else "right"
            print(f"{spec} --m {m_lo}..{m} (n_m ~ {float(n):.3g}) --bits {bits}, "
                  f"last row: {verdict}")
    print(f"{defective} of {len(CASES)} rows wrong at the default precision")
    return 1 if defective else 0


if __name__ == "__main__":
    sys.exit(main())
