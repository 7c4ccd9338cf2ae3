"""The README's Python examples run as written."""
import re
from pathlib import Path

from qpd import Classification
from qpd.oracle import NumericVerdict

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def test_readme_python_example_runs():
    blocks = python_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The comments in the example state these results.
    assert namespace["v"].classification is Classification.POSITIVE_DEFINITE
    assert namespace["r"].verdict is NumericVerdict.PD
