import json
import os
import subprocess
import sys
import time

import pytest

import qpd
from qpd import oracle
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
    assert captured.err == ("notice: tensor outside the analytic sign class "
                            "(t1112 must be +-1, got 0); oracle only\n")


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main([str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"[" * 200_000, b"\xff\xfe"],
                         ids=["deeply-nested", "not-utf8"])
def test_unreadable_file_exits_cleanly(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("key", ["\u0661\u0661\u0661\u0661", "\u00b9\u00b9\u00b9\u00b9"],
                         ids=["arabic-indic", "superscript"])
def test_non_ascii_digit_key_exits_cleanly(tmp_path, capsys, key):
    path = write_tensor(tmp_path, "key.json", 2, {"1111": 1, key: 2, "2222": 1})
    assert main([path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text", [
    '{"dim": 2, "order": 4, "entries": {"1111": 1, "1111": 5, "2222": 1}}',
    '{"dim": 2, "order": 4, "dim": 2, "entries": {"1111": 1, "2222": 1}}',
], ids=["entry", "dim"])
def test_repeated_key_exits_cleanly(tmp_path, capsys, text):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main([str(path), "--no-oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("value, notice, error", [
    ("1e400", "got ~1e+400", "overflow"),
    ("1e-400", "got ~1e-400", "underflow"),  # float64 would see a zero coefficient
])
def test_extreme_coefficients_get_short_messages(tmp_path, capsys, value, notice, error):
    path = write_tensor(tmp_path, "extreme.json", 3, {"1111": value, "2222": 1, "3333": 1})
    assert main([path] + FAST) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and "Traceback" not in captured.err
    assert lines[0] == ("notice: tensor outside the analytic sign class "
                        f"(t1111 must be 1, {notice}); oracle only")
    assert lines[1].startswith("error:") and error in lines[1]


def test_successive_calls_share_no_state(binary_pd, capsys):
    """The parser is built once per process; one call's flags do not carry
    into the next."""
    code, quiet = run_json(capsys, [binary_pd, "--no-oracle"] + FAST)
    assert code == 0 and quiet["numeric"] is None and quiet["agreement"] == "n/a"
    code, checked = run_json(capsys, [binary_pd] + FAST)
    assert code == 0 and checked["numeric"]["verdict"] == "PD"
    assert checked["agreement"] == "agree"
    code, again = run_json(capsys, [binary_pd, "--no-oracle"])
    assert again == quiet


@pytest.mark.parametrize("flags", [
    ["--grid", "4"],
    ["--grid", str(10**12)],  # refused before any seed table is built
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


def test_closed_pipe_exits_cleanly():
    """A reader that closes stdout after one byte (``qpd ... | head -c 1``)
    gets exit code 1 and no traceback.  The report, about 70 kB, overfills the
    pipe, so the write fails."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qpd.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qpd.cli", "--mode", "sweep", "--format", "json"] + FAST,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in stderr


# A coefficient beyond the interpreter's int-to-str limit (4,300 digits by
# default), and a witness value just beyond it although every coefficient is
# within it.
HUGE_FILES = {
    "binary_huge": '{"dim": 2, "order": 4, "entries": {"1111": 1e5000, "2222": 1}}',
    "ternary_huge": '{"dim": 3, "order": 4, "entries": {"1111": 1e5000, "2222": 1, "3333": 1}}',
    "tiny": '{"dim": 2, "order": 4, "entries": {"1111": "1e-5000", "2222": 1}}',
    "long_literal": '{"dim": 2, "order": 4, "entries": {"1111": %s, "2222": 1}}' % ("7" * 5000),
    "witness_value": '{"dim": 2, "order": 4, "entries": '
                     '{"1111": "9e4299", "1122": "-9e4299", "2222": "9e4299"}}',
}


@pytest.mark.parametrize("name", sorted(HUGE_FILES))
@pytest.mark.parametrize("flags", [[], ["--no-oracle"]])
def test_coefficients_beyond_digit_limit_exit_cleanly(tmp_path, capsys, name, flags):
    path = tmp_path / f"{name}.json"
    path.write_text(HUGE_FILES[name])
    assert main([str(path)] + flags + FAST) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["1e10000000", '"1e10000000"', '"-3.5e-10000000"'])
def test_huge_decimal_exponent_exits_fast(tmp_path, capsys, value):
    """The exponent is refused before its power of ten, ten million digits
    long, is built."""
    path = tmp_path / "exponent.json"
    path.write_text('{"dim": 2, "order": 4, "entries": {"1111": %s, "2222": 1}}' % value)
    start = time.perf_counter()
    assert main([str(path)] + FAST) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_degenerate_binary_searches_once(tmp_path, capsys, monkeypatch):
    """The classifier's witness search and the cross-check share one oracle
    search, and the report gives the refinement iterations it ran."""
    refine = oracle._refine
    calls = []
    monkeypatch.setattr(oracle, "_refine", lambda *args: calls.append(1) or refine(*args))
    oracle.min_on_sphere.cache_clear()
    path = write_tensor(tmp_path, "degenerate.json", 2, {
        "1111": 0, "1112": "-3/4", "1122": "11/3", "1222": 2, "2222": 4})
    code, report = run_json(capsys, [path])
    assert code == 0 and report["agreement"] == "agree"
    assert report["analytic"]["branch"] == "degenerate-diagonal"
    assert report["analytic"]["witness"] == report["witness_exact"]["point"]
    assert len(calls) == 1
    assert 0 < report["numeric"]["iterations"] < oracle._REFINE_ITERS


# checked_points, min_residual, equality_points and oracle_exact of every
# variant of `qpd --mode inequalities --samples 200 --seed 3`.  oracle_exact is
# the exact value at the rationalized argmin, so it moves with the argmin.
GOLDEN_INEQUALITIES = [
    ('C32_i', 220, 0, 4,
     '553767804520104876518147390184482509108628101/196743593389708386461844086795278267904320729980135625817945760000'),
    ('C32_i+swap12+swap13+swap23', 220, 0, 4,
     '3244597885236141979044103221566893835304708757/11461949032253985143280987917296602195239384754505026941823274127616'),
    ('C32_ii', 217, '16105560601/144149438750625', 0,
     '28395701857646697496262681134990157674203014742717017689231889851904041/85187105571616157098440586847081394820427174360332545204942268487873121'),
    ('C32_ii+swap12+swap13+swap23', 217, '4966943881/144149438750625', 0,
     '80202491363762617693191461776050067761688985569/240607474090204075966835881640593639340666410000'),
    ('C33_i', 217, '17402232901/144149438750625', 0,
     '25816249388872636742231424518664692852780047391297376483499250678416/145941564742002173651105020740128763963363575212136702031258481400625'),
    ('C33_i+swap12', 217, '17402232901/144149438750625', 0,
     '2936111183948015119536563138414376378908169109023262479156980785723041/16787769581368777750912983910277089901603900766104796128691335976779776'),
    ('C33_i+swap13', 217, '17402232901/144149438750625', 0,
     '571183143852038444970940831141070898475186018007521099286710388730657/3265847376674715845388942279389366312620861006833423480236430802571536'),
    ('C33_i+swap23', 217, '6263616181/144149438750625', 0,
     '571183143852038444970940831141070898475186018007521099286710388730657/3265847376674715845388942279389366312620861006833423480236430802571536'),
    ('C33_ii', 217, '17834457001/144149438750625', 0,
     '628858169703439701493178153928680140581717817530642090514806182866/11365889350095364062579954495900816405641530775914914446025413150625'),
    ('C33_ii+swap12', 217, '17834457001/144149438750625', 0,
     '61160904563053552653333411728135130211117126850704846818609362314273/98329138522697223050438427498273209980862747613517789360093168263696'),
    ('C33_ii+swap13', 217, '17834457001/144149438750625', 0,
     '3520658907985683123205304413169469805087450758851806270192/63631867272898829897793336416260451603807510090925672583761'),
    ('C33_ii+swap23', 217, '6695840281/144149438750625', 0,
     '41506495310167027516738692874193932458971566557028101334718805753/750182244167527336426570421545402141809495564237236098341279605000'),
    ('C33_iii', 217, '17834457001/144149438750625', 0,
     '604063802833976305677218971953876354677118732354130689679448410518587/971160805569115266605594252661779134003043687870933143493450700000000'),
    ('C33_iii+swap12', 217, '17834457001/144149438750625', 0,
     '2160138271808841922845342992009812116404897306374248151911730/39042018949405235455629382179735982302562118375237144482443601'),
    ('C33_iii+swap13', 217, '17834457001/144149438750625', 0,
     '41506495310167027516738692874193932458971566557028101334718805753/750182244167527336426570421545402141809495564237236098341279605000'),
    ('C33_iii+swap23', 217, '6695840281/144149438750625', 0,
     '3520658907985683123205304413169469805087450758851806270192/63631867272898829897793336416260451603807510090925672583761'),
    ('C33_iv', 217, '17402232901/144149438750625', 0,
     '1224954381885335808786250618200043448488261429026841499741549083666021/7003907761789249101777675684269657272353105640655561315405413224650625'),
    ('C33_iv+swap12', 217, '17402232901/144149438750625', 0,
     '10912339674748544904850093260670271255990537401226338125901878262801/61688431310962585445528237135233628942730964347906993127784921760000'),
    ('C33_iv+swap13', 217, '17402232901/144149438750625', 0,
     '185237975728943922161080157062597674438170765853939293554569461915/1059133070732619929957059541775840779598853502544869352106298683392'),
    ('C33_iv+swap23', 217, '6263616181/144149438750625', 0,
     '571183143852038444970940831141070898475186018007521099286710388730657/3265847376674715845388942279389366312620861006833423480236430802571536'),
]


def test_inequalities_report_golden(capsys):
    code, report = run_json(capsys, ["--mode", "inequalities", "--samples", "200",
                                     "--seed", "3"])
    assert code == 0
    got = [(row["inequality"], row["checked_points"], row["min_residual"],
            row["equality_points"], row["oracle_exact"]) for row in report["results"]]
    assert got == GOLDEN_INEQUALITIES
