import json

import pytest

from qpd.cli import main


def write_tensor(tmp_path, name, dim, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": dim, "order": 4, "entries": entries}))
    return str(path)


@pytest.fixture
def binary_pd(tmp_path):
    return write_tensor(tmp_path, "pd.json", 2, {
        "1111": 1, "1112": 1, "1122": 1, "1222": -1, "2222": 1})


@pytest.fixture
def binary_indef(tmp_path):
    return write_tensor(tmp_path, "indef.json", 2, {
        "1111": 1, "1112": 1, "1122": -1, "1222": -1, "2222": 1})


@pytest.fixture
def ternary_class(tmp_path):
    return write_tensor(tmp_path, "t3.json", 3, {
        "1111": 1, "2222": 1, "3333": 1,
        "1222": 1, "2333": 1, "1113": 1,
        "1112": -1, "1333": -1, "2223": -1,
        "1123": -1, "1223": -1, "1233": -1,
        "1122": 2, "1133": 2, "2233": 2})


FAST = ["--grid", "32", "--starts", "8"]


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_binary_pd_report(binary_pd, capsys):
    code, report = run_json(capsys, [binary_pd] + FAST)
    assert code == 0
    assert report["analytic"]["class"] == "PositiveDefinite"
    assert report["numeric"]["verdict"] == "PD"
    assert report["agreement"] == "agree"


def test_binary_indefinite_has_exact_witness(binary_indef, capsys):
    code, report = run_json(capsys, [binary_indef] + FAST)
    assert code == 0
    assert report["analytic"]["class"] == "NotPositiveSemidefinite"
    assert report["witness_exact"] is not None
    value = report["witness_exact"]["value"]
    assert str(value).startswith("-")


def test_ternary_classification(ternary_class, capsys):
    code, report = run_json(capsys, [ternary_class] + FAST)
    assert code == 0
    assert report["analytic"]["class"] == "PositiveDefinite"
    assert report["analytic"]["regime"] == "2"


def test_json_output_roundtrips(binary_pd, capsys):
    code = main([binary_pd, "--format", "json"] + FAST)
    out = capsys.readouterr().out
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_no_oracle(binary_pd, capsys):
    code, report = run_json(capsys, [binary_pd, "--no-oracle"])
    assert code == 0
    assert report["numeric"] is None
    assert report["agreement"] == "n/a"


def test_oracle_only_mode(binary_pd, capsys):
    code, report = run_json(capsys, [binary_pd, "--mode", "oracle-only"] + FAST)
    assert code == 0
    assert report["analytic"] is None
    assert report["numeric"]["verdict"] == "PD"


def test_out_of_class_ternary_downgrades(tmp_path, capsys):
    path = write_tensor(tmp_path, "free.json", 3, {"1111": 1, "2222": 1, "3333": 1})
    code = main([path, "--format", "json"] + FAST)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0
    assert report["analytic"] is None
    assert report["numeric"]["verdict"] == "PD"
    assert "sign class" in captured.err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main([str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["/does/not/exist.json"]) == 1


def test_missing_input_argument(capsys):
    assert main(["--mode", "binary"]) == 1


def test_mode_dimension_mismatch(binary_pd, capsys):
    assert main([binary_pd, "--mode", "ternary"]) == 1


def test_text_format(binary_pd, capsys):
    code = main([binary_pd] + FAST)
    out = capsys.readouterr().out
    assert code == 0
    assert "agreement: agree" in out


def test_inequalities_mode(capsys):
    code, report = run_json(capsys, ["--mode", "inequalities",
                                     "--samples", "20", "--seed", "1"])
    assert code == 0
    assert report["summary"]["violations"] == 0
    assert report["summary"]["checked"] == 20


def test_inequalities_mode_honours_oracle_flags(capsys):
    def oracle_mins(flags):
        code, report = run_json(capsys, ["--mode", "inequalities", "--samples", "1"] + flags)
        assert code == 0
        return [row["oracle_min"] for row in report["results"]]

    default, coarse = oracle_mins([]), oracle_mins(["--grid", "8"])
    assert len(default) == len(coarse) == 20
    assert default != coarse


@pytest.mark.slow
def test_sweep_mode(capsys):
    code, report = run_json(capsys, ["--mode", "sweep", "--grid", "48",
                                     "--starts", "12"])
    assert code == 0
    assert report["summary"]["tensors"] == 256
    assert report["summary"]["conflicts"] == 0
    assert report["summary"]["counts"]["8/3:PositiveDefinite"] == 64


@pytest.mark.parametrize("entries", [
    {"1111": "1e400", "2222": 1, "3333": 1},  # float(Fraction) overflows
    {"1111": "1e308", "1122": "1e308", "2222": 1, "3333": 1},  # 6 * 1e308 overflows
])
def test_overflowing_coefficients_exit_cleanly(tmp_path, capsys, entries):
    path = write_tensor(tmp_path, "huge.json", 3, entries)
    assert main([path, "--mode", "oracle-only"] + FAST) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--grid", "4"],
    ["--tol", "0"],
    ["--tol", "nan"],
    ["--starts", "0"],
    ["--starts", "-3"],
    ["--max-denominator", "0"],
    ["--mode", "inequalities", "--samples", "0"],
])
def test_invalid_oracle_flags_exit_cleanly(binary_indef, capsys, flags):
    assert main([binary_indef] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
