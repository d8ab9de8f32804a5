"""The README's library example runs and gives the values its comments state."""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example():
    code = _library_block()
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    # the entries expression is followed by a comment holding its value
    lines = code.splitlines()
    i = next(j for j, line in enumerate(lines) if line.startswith("[("))
    stated = ast.literal_eval(lines[i + 1].lstrip("# "))
    assert stated == [((-12, 5), 8), ((5, -2), 9), ((17, -7), 3)]
    assert eval(lines[i], ns) == stated
    rho, provenance = re.search(r"rho = ([\d.]+?)\.\.\., provenance (\S+)", code).groups()
    assert (rho, provenance) == ("2.414", "oracle-exact")
    qm = ns["qm"]
    assert f"{float(qm.mesh_ratio):.6f}".startswith(rho)  # 1 + sqrt(2) = 2.414213...
    assert qm.provenance == provenance
