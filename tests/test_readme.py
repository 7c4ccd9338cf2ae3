"""The README's Python examples run as written, and its JSON input example
gives the verdict the README states."""
import json
import re
from pathlib import Path

from qpd import Classification
from qpd.cli import main
from qpd.oracle import NumericVerdict

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def test_readme_python_example_runs():
    python = blocks("python")
    assert python
    namespace = {}
    for block in python:
        exec(compile(block, str(README), "exec"), namespace)
    # The comments in the example state these results.
    assert namespace["v"].classification is Classification.POSITIVE_DEFINITE
    assert namespace["r"].verdict is NumericVerdict.PD


def test_readme_json_example_is_psd_not_pd(tmp_path, capsys):
    [block] = blocks("json")
    path = tmp_path / "example.json"
    path.write_text(block, encoding="utf-8")
    assert main([str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # The README states this verdict and the oracle's agreement with it.
    assert report["analytic"]["class"] == Classification.PSD_NOT_PD.value
    assert report["agreement"] == "agree"
