import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import spinaldim.cli as cli
from spinaldim.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_synth_csv_golden():
    code, out, _ = run_cli("synth", "--alpha", "0.5", "--terms", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# spinaldim ")
    assert lines[1] == "i,l_i,window_lo,window_hi,P_num,P_den,gap_decimal"
    assert lines[2].startswith("0,5,5,27,3,5,")
    assert lines[3].startswith("1,13,13,83,33,65,")
    assert lines[4].startswith("2,133,133,923,4323,8645,")


def test_synth_json():
    code, out, _ = run_cli("synth", "--alpha", "0.5", "--terms", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "spinaldim"
    assert doc["command"] == "synth"
    assert [s["l"] for s in doc["steps"]] == [5, 13]
    assert doc["steps"][1]["P"] == "33/65"


def test_synth_degenerate_target():
    code, out, _ = run_cli("synth", "--alpha", "1", "--terms", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degenerate"] == "H=G"
    assert doc["dimension"] == 1
    assert doc["steps"] == []


def test_verify_match_exit_zero():
    code, out, _ = run_cli("verify", "--seq", "5,5", "--level", "2", "--group", "G")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["expected"] == "46656000000"
    assert doc["certificate"] == "branch"
    assert doc["elapsed_ms"] is None
    # level 1 still runs the chain, certified by the order bound
    code, out, _ = run_cli("verify", "--seq", "5,5", "--level", "1", "--group", "G")
    assert code == 0
    doc = json.loads(out)
    assert (doc["measured"], doc["match"], doc["certificate"]) == ("60", True, "order-bound")


def test_verify_h_group():
    code, out, _ = run_cli("verify", "--seq", "5,5", "--level", "2", "--group", "H")
    assert code == 0
    assert json.loads(out)["expected"] == "81"


@pytest.mark.parametrize("seq, level", [("4,4", "1"), ("5,4", "2")])
def test_verify_h_names_the_given_valency(seq, level):
    code, out, err = run_cli("verify", "--seq", seq, "--level", level, "--group", "H")
    assert code == 2
    assert out == ""
    assert err == "error: valency 4 < 5; the shifted side needs l - 2 >= 3\n"


def test_verify_cap_refusal_exit_four():
    code, _, err = run_cli("verify", "--seq", "5,5,5,5,5", "--level", "5")
    assert code == 4
    assert "cap" in err


def test_verify_digit_budget_refusal_exit_four():
    # without the refusal this would build a 390625-point chain
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "spinaldim.cli", "verify", "--seq", "5,5,5,5,5,5,5,5",
         "--level", "8", "--cap", "400000"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == ("refused: exact order needs about 1.74e+05 digits "
                           "(budget 100000); use the log variant\n")


def test_verify_work_budget_refusal_exit_four():
    # (5,4,5,4) L4 G, degree 400 inside the default cap, would sift about
    # half a million Schreier generators; the pass is charged up front instead
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "spinaldim.cli", "verify", "--seq", "5,4,5,4", "--level", "4"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("refused: Schreier verification ")


def test_verify_fallback_budget_exit_four(monkeypatch):
    import spinaldim.schreier as schreier

    # this H stalls below its closed form, so only the Schreier pass can certify it
    monkeypatch.setattr(schreier, "_VERIFY_WORK_LIMIT", 1 << 10)
    code, out, err = run_cli("verify", "--seq", "5,5,5", "--level", "3", "--group", "H")
    assert code == 4
    assert out == ""
    assert "Schreier verification" in err


def test_verify_mismatch_reports_schreier_certificate():
    code, out, _ = run_cli("verify", "--seq", "5,5,5", "--level", "3", "--group", "H")
    assert code == 3
    doc = json.loads(out)
    assert doc["measured"] == "59049"
    assert doc["certificate"] == "schreier"


# a valency 4 twice below the root: A_4 is not perfect, so G falls short of
# its closed form too, by exactly 1/3
@pytest.mark.parametrize("seq", ["4,4,4", "5,4,4", "7,4,4"])
def test_verify_g_with_a_repeated_valency_4_exits_three(seq):
    code, out, _ = run_cli("verify", "--seq", seq, "--level", "3", "--group", "G")
    assert code == 3
    doc = json.loads(out)
    assert int(doc["measured"]) == int(doc["expected"]) // 3
    assert int(doc["expected"]) % 3 == 0
    assert doc["certificate"] == "schreier"
    assert doc["match"] is False


def test_verify_mismatch_exit_three(monkeypatch):
    import spinaldim.cli as cli_mod
    from spinaldim.wreath import LevelActionReport

    def fake_verify(seq, level, group, seed=0, degree_cap=700):
        return LevelActionReport(
            sequence=seq.valencies, level=level, group=group,
            expected=60, measured=30, match=False, seed=seed, degree=5,
        )

    monkeypatch.setattr(cli_mod, "verify_level_action", fake_verify)
    code, out, _ = run_cli("verify", "--seq", "5,5", "--level", "1")
    assert code == 3
    assert json.loads(out)["match"] is False


def test_usage_errors_exit_two():
    code, _, _ = run_cli("dim", "--alpha", "0.5", "--terms", "1", "--levels", "0")
    assert code == 2
    code, _, _ = run_cli("dim", "--alpha", "0.5", "--terms", "2", "--levels", "3")
    assert code == 2
    code, _, _ = run_cli("verify", "--seq", "5,x", "--level", "1")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2
    code, _, _ = run_cli("synth", "--alpha", "1.5", "--terms", "3")
    assert code == 2
    for argv, digits in (
        (["synth", "--alpha", "1/3", "--terms", "3"], "0"),
        (["synth", "--alpha", "1/3", "--terms", "3"], "-3"),
        (["dim", "--alpha", "1/2", "--terms", "3", "--levels", "3"], "0"),
        (["spectrum", "--alpha", "1/2", "--seq", "5,7,9", "--max-den", "3", "--horizon", "1"],
         "x"),
    ):
        code, out, err = run_cli(*argv, "--digits", digits)
        assert code == 2 and out == ""
        assert f"spinaldim {argv[0]}: error: argument --digits: " in err
    for cap in ("0", "-1"):
        code, out, err = run_cli("verify", "--seq", "5,5", "--level", "1", "--cap", cap)
        assert code == 2 and out == ""
        assert err == f"error: degree cap must be at least 1, got {cap}\n"


def test_dim_precision_below_the_floor_names_precision():
    code, out, err = run_cli("dim", "--alpha", "1/2", "--terms", "3", "--levels", "3",
                             "--precision", "0")
    assert code == 2 and out == ""
    assert err == "error: precision 0 below the 64-bit floor\n"


@pytest.mark.parametrize("argv, flag", [
    ("synth --alpha 1/2 --terms 2", "--out"),
    ("spectrum --alpha 1/2 --seq 5,7,9 --max-den 3 --horizon 1", "--out"),
    ("spectrum --alpha 1/2 --seq 5,7,9 --max-den 3 --horizon 1", "--svg"),
])
def test_unwritable_output_path_exits_two(tmp_path, argv, flag):
    target = tmp_path / "missing" / "doc.txt"
    code, out, err = run_cli(*argv.split(), flag, str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err


# every echoed flag at a value other than its default, in declaration order;
# the routing flags (--format, --out, --svg, --timing) are set too and must not appear
@pytest.mark.parametrize("argv, config", [
    ("synth --alpha 1/3 --terms 4 --strategy prime-rich --digits 9",
     {"alpha": "1/3", "terms": 4, "strategy": "prime-rich", "digits": 9}),
    ("dim --alpha 1/3 --terms 4 --levels 3 --strategy prime-rich --precision 96 --digits 9",
     {"alpha": "1/3", "terms": 4, "levels": 3, "strategy": "prime-rich", "precision": 96,
      "digits": 9}),
    ("verify --seq 7,7 --level 1 --group H --seed 80 --cap 650 --timing",
     {"seq": "7,7", "level": 1, "group": "H", "seed": 80, "cap": 650}),
    ("spectrum --alpha 1/3 --seq 5,7,9 --max-den 7 --horizon 2 --digits 9 --svg SVG",
     {"alpha": "1/3", "seq": "5,7,9", "max_den": 7, "horizon": 2, "digits": 9}),
    ("portrait --gen theta --seq 7,7,7 --depth 2",
     {"gen": "theta", "seq": "7,7,7", "depth": 2}),
])
def test_every_result_flag_is_echoed_in_declaration_order(tmp_path, argv, config):
    argv = argv.replace("SVG", str(tmp_path / "s.svg")).split()
    target = tmp_path / "doc"
    json_argv = argv if argv[0] in ("verify", "spectrum") else [*argv, "--format", "json"]
    code, out, _ = run_cli(*json_argv, "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["command"] == argv[0]
    assert list(doc["config"].items()) == list(config.items())
    if argv[0] in ("verify", "spectrum"):
        return
    code, out, _ = run_cli(*argv, "--out", str(target))
    assert code == 0 and out == ""
    opts = " ".join(f"{k}={v}" for k, v in config.items())
    first = target.read_text(encoding="utf-8").splitlines()[0]
    assert first == f"# spinaldim {cli.__version__} {argv[0]} {opts}"


def test_dim_csv_shape():
    code, out, _ = run_cli("dim", "--alpha", "0.5", "--terms", "6", "--levels", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,alpha_n_num,alpha_n_den,d_n,lower_n,upper_n,T1,T2"
    assert len(lines) == 8
    first = lines[2].split(",")
    assert first[0] == "1" and first[1] == "3" and first[2] == "5"


def test_dim_json_fields():
    code, out, _ = run_cli(
        "dim", "--alpha", "0.5", "--terms", "5", "--levels", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sequence"][:3] == [5, 13, 133]
    assert len(doc["rows"]) == 4
    row = doc["rows"][0]
    assert set(row) == {"n", "alpha_n", "d_n", "lower_n", "upper_n", "ratio_n", "T1", "T2"}
    assert set(doc) == {"tool", "version", "command", "config", "sequence", "rows",
                        "liminf_estimate", "limsup_estimate", "flagged_levels"}


def test_spectrum_json_and_svg(tmp_path):
    svg_path = tmp_path / "spec.svg"
    code, out, _ = run_cli(
        "spectrum", "--alpha", "0.5", "--seq", "5,13,133",
        "--max-den", "5", "--horizon", "3", "--svg", str(svg_path),
    )
    assert code == 0
    doc = json.loads(out)
    values = [e["value"] for e in doc["entries"] if e["provenance"] == "L"]
    assert values == ["0", "1/3", "2/3", "1"]
    witnesses = {e["value"]: e["witness"] for e in doc["entries"] if e["provenance"] == "L"}
    assert witnesses["1/3"] == [0]
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_spectrum_decimal_is_exact_to_thirty_digits():
    code, out, _ = run_cli("spectrum", "--alpha", "1/2", "--seq", "5,7,9", "--max-den", "3",
                           "--horizon", "1", "--digits", "30")
    assert code == 0
    decimals = {e["value"]: e["decimal"] for e in json.loads(out)["entries"]}
    assert decimals["1/3*alpha"] == "0.1" + "6" * 28 + "7"
    assert decimals["2/3"] == "0." + "6" * 29 + "7"


def _significant_digits(q, digits):
    """The first ``digits`` significant digits of 0 < q < 1, rounded with integer arithmetic."""
    shift = digits
    while q * 10 ** shift < 10 ** (digits - 1):
        shift += 1
    return str(round(q * 10 ** shift))


def test_synth_gap_is_exact_to_forty_digits():
    from fractions import Fraction

    code, out, _ = run_cli("synth", "--alpha", "1/3", "--terms", "5", "--digits", "40")
    assert code == 0
    row = out.splitlines()[5].split(",")
    assert row[0] == "3"
    gap = Fraction(int(row[4]), int(row[5])) - Fraction(1, 3)
    printed = row[6].replace(".", "").lstrip("0")
    assert printed == _significant_digits(gap, 40)


def test_dim_refuses_digits_beyond_its_precision():
    argv = ("dim", "--alpha", "1/2", "--terms", "3", "--levels", "2", "--precision", "64")
    code, out, err = run_cli(*argv, "--digits", "20")
    assert code == 2 and out == ""
    assert err == "error: --digits 20 exceeds the 19 digits that --precision 64 carries\n"
    code, out, _ = run_cli(*argv, "--digits", "19")
    assert code == 0
    assert len(out.splitlines()[2].split(",")[3].replace(".", "").lstrip("0")) == 19


def test_portrait_text_golden():
    code, out, _ = run_cli("portrait", "--gen", "zeta", "--seq", "5,5", "--depth", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1 2: (3 4 5)"


def test_portrait_json():
    code, out, _ = run_cli(
        "portrait", "--gen", "psi", "--seq", "5,5,5", "--depth", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == [
        {"level": 2, "path": [1, 2], "cycles": "(1 2 3 4 5)"},
        {"level": 1, "path": [2], "cycles": "(1 2 3 4 5)"},
    ]


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        "synth", "--alpha", "0.5", "--terms", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    body = target.read_text()
    assert "4323,8645" in body
    assert body.startswith("# spinaldim ")


@pytest.mark.parametrize("argv", [
    "verify --seq 5,5 --level 2",
    "spectrum --alpha 1/2 --seq 5,7,9 --max-den 30 --horizon 3",
    "portrait --gen psi --seq 5,5,5 --depth 3 --format json",
    "dim --alpha 1/2 --terms 5 --levels 4 --format json",
])
def test_out_flag_writes_stdout_bytes(tmp_path, argv):
    target = tmp_path / "doc.json"
    code, expected, _ = run_cli(*argv.split())
    assert code == 0
    code, out, _ = run_cli(*argv.split(), "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == expected


def test_verify_timing_flag():
    argv = ("verify", "--seq", "5,5", "--level", "2")
    code, out, _ = run_cli(*argv, "--timing")
    assert code == 0
    elapsed = json.loads(out)["elapsed_ms"]
    assert isinstance(elapsed, float) and elapsed > 0
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert json.loads(out)["elapsed_ms"] is None


@pytest.mark.parametrize("command", [
    "verify --level 1",
    "spectrum --alpha 1/2 --max-den 5 --horizon 1",
    "portrait --gen psi --depth 1",
])
def test_bad_seq_reported_by_argparse(command):
    name = command.split()[0]
    code, out, err = run_cli(*command.split(), "--seq", "5,x")
    assert code == 2
    assert out == ""
    assert err.endswith(f"spinaldim {name}: error: argument --seq: "
                        "invalid literal for int() with base 10: 'x'\n")


def test_repeated_runs_byte_identical():
    for argv in (
        ["verify", "--seq", "5,5", "--level", "2", "--group", "G", "--seed", "7"],
        ["dim", "--alpha", "0.5", "--terms", "6", "--levels", "6"],
        ["spectrum", "--alpha", "0.5", "--seq", "5,13,133", "--max-den", "5",
         "--horizon", "3"],
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0


BITS = cli._INT_TEXT_BITS


@given(st.integers(0, 3 * BITS), st.randoms(use_true_random=False), st.booleans())
@example(0, None, False)
@example(BITS, None, False)
@example(BITS + 1, None, True)
def test_int_text_matches_str(bits, rnd, negative):
    n = rnd.getrandbits(bits) if rnd else 2**bits - 1
    n = -n if negative else n
    assert cli._int_text(n) == str(n)


def test_int_text_edges():
    # powers of ten and their neighbours on both sides of the threshold, and
    # integers far above 100k digits
    edges = [10**k + d for k in (9864, 9865, 9866, 40_000) for d in (-1, 0, 1)]
    edges += [2**BITS, -(2**BITS), 2**(BITS + 1) - 1, -(10**40_000), 7**150_000,
              -(3**250_000) + 1]
    for n in edges:
        assert cli._int_text(n) == str(n)


def test_json_text_matches_json_dumps():
    # 0, 2**15 bits, 2**15 + 1 bits, 60k digits and a negative int, marked by
    # _big, print exactly as json.dumps prints the plain ints
    big = [0, 2**BITS - 1, 2**BITS, 7**71_000, -(10**12_000)]

    def doc(wrap):
        return {"flag": True, "n": 3, "big": wrap(big[3]),
                "rows": [{"x": wrap(big[4]), "y": "1/2"}, [wrap(b) for b in big[:3]]],
                "none": None, "text": "\u0000 is not a placeholder"}

    assert len(str(big[3])) > 60_000
    assert cli._json_text(doc(cli._big)) == json.dumps(doc(int), indent=2) + "\n"


# pinned sha256 of stdout: a change in the log-order arithmetic or in the
# printing of big integers that moves any printed byte fails here
@pytest.mark.parametrize("argv, digest", [
    ("dim --alpha 1/2 --terms 12 --levels 12 --digits 30",
     "165a43fb258d93aba43af7aa49090ae1f1e1f70cb4b30e022ce61bc010767968"),
    ("dim --alpha 1/3 --terms 10 --levels 4 --precision 256 --digits 60",
     "03efbc42e62ad126a50fbea723fbbabb01d54681a81c296098977bb08b746999"),
    ("dim --alpha 1/10 --terms 22 --levels 22 --strategy prime-rich",
     "c668069454c8be2548ba5149cd89e8da92bfb7c49ed6cd131688048f86bd8f70"),
    ("scripts/dimension_scan.py --levels 40 --precision 256 --constants 5,7,9,27 "
     "--targets 0.5,0.25,1/3",
     "fe744c1ccfff09c943e096fbdd5f3c6e5f3e4a62391284704f1a55924ca511ab"),
    # the deep-tree benchmark op: 200-level constant reports at the default 128 bits
    ("scripts/dimension_scan.py --levels 200 --constants 5,12 --targets=",
     "6e99014287dcc2770807319cf45acea165fae4a8e64fa7c3cfe4419604ba46eb"),
    # the other six deep-tree pool valencies
    ("scripts/dimension_scan.py --levels 200 --constants 6,11,7,10,8,9 --targets=",
     "f52ac3f90df11cc287511911e6862db5406fdf64798aff8882c522417c3eea68"),
    # entries above the fast-conversion threshold, in every printing path
    ("synth --alpha 1/3 --terms 16 --format json",
     "ad06c519aca39471bc7f72f22a7b7610ed6e14e49df62db3122ae04823ba91d7"),
    ("synth --alpha 1/10 --terms 18",
     "08093cfb86396d3dc4dc50562adc9889cc2c513f91ce1a0e19009bba23e80399"),
    ("dim --alpha 1/2 --terms 15 --levels 15 --format json",
     "8712a21e244e092bf33c36cf408920fa8b768fa65a7b1bb9c99ec3373d8ae11b"),
    ("dim --alpha 1/2 --terms 15 --levels 15 --precision 256",
     "cf0ac3c0af1b426d7f148f2ef35d16c37e414b7cd2d1e1734cf78607bdfe3622"),
    ("spectrum --alpha 1/3 --seq 8,32,32,32,32,32 --max-den 120 --horizon 6",
     "4f30c423273282c1b79210f13fabea11d8f15cb4439f279723d7df510c6f5e2f"),
    # portrait dumps and an H verify, so the portrait and chain code keep their bytes
    ("portrait --gen psi --seq 5,5,5 --depth 3",
     "f2e8438c5542e1b9e4e3a5c3aaf1f8be9a6bc6fd4ff5414d39d526acb68339a4"),
    ("portrait --gen psi --seq 5,5,5 --depth 3 --format json",
     "cda697ffbbb096b7c0192fd3349422ecd7239fad1319092cd97e89cccb139e52"),
    ("portrait --gen theta --seq 7,7,7 --depth 3 --format json",
     "fbb3932446dacd5930fab4abffdd250a710a5be44d4e7f622b1da25fa9c7edb0"),
    ("verify --seq 7,7 --level 2 --group H --seed 54",
     "40247f6e748924ed3337af21d182e89f3d3418422e66cd08c5c3cfe15a5932d9"),
    # degenerate synth traces, a G verify report and spectrum entries
    ("synth --alpha 1 --terms 3 --format json",
     "5289e894bee828280a1a7e8350dc34d2837443480515cb73f39879dcc2021d09"),
    ("synth --alpha 0 --terms 3",
     "5784209801ae196f8294124519a8370ee82297c65995768423a9aa4d7ad52445"),
    ("verify --seq 5,5,5 --level 3 --group G --seed 33",
     "ab802e695b5a1e92247c64d3271b6627f805318a8130f8d787b5e677816903bf"),
    ("spectrum --alpha 1/2 --seq 5,7,9 --max-den 30 --horizon 3",
     "c10a202fc0cd2d98e4034e7cfdd230bf9e166b76938fd2f86ee8d31d5a3db932"),
])
def test_stdout_digest_pinned(argv, digest):
    argv = argv.split()
    if argv[0].endswith(".py"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        got = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                             check=True, timeout=300).stdout
    else:
        code, out, _ = run_cli(*argv)
        assert code == 0
        got = out.encode()
    assert hashlib.sha256(got).hexdigest() == digest


# the two pinned verify reports as the chain printed them, "order-bound"
# certified, before the branch certificate took over their levels
@pytest.mark.parametrize("argv, chain_digest", [
    ("verify --seq 7,7 --level 2 --group H --seed 54",
     "e091f4fe06ca77de7c010c8d965e271340e72ef544204d1198d705ef7d73e285"),
    ("verify --seq 5,5,5 --level 3 --group G --seed 33",
     "e5ad16d43c085aa76b2f6e922cce4106f9897759ba93d1e2b4442407277a7a57"),
])
def test_branch_report_differs_from_the_chain_report_only_in_certificate(argv, chain_digest):
    code, out, _ = run_cli(*argv.split())
    assert code == 0
    chain_out = out.replace('"certificate": "branch"', '"certificate": "order-bound"', 1)
    assert chain_out != out
    assert hashlib.sha256(chain_out.encode()).hexdigest() == chain_digest


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_main_asks_for_one_blas_thread_unless_set(monkeypatch, preset, expected):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")  # restored after the test
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    code, _, _ = run_cli("synth", "--alpha", "1/2", "--terms", "1")
    assert code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == expected


@pytest.mark.skipif(not Path("/proc/self/status").is_file() or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/status and two CPUs for a second BLAS thread")
def test_prime_rich_dim_loads_numpy_with_one_thread():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    code = (
        "import sys, spinaldim.cli\n"
        "rc = spinaldim.cli.main(['dim', '--alpha', '1/10', '--terms', '3', '--levels', '3',\n"
        "                         '--strategy', 'prime-rich'])\n"
        "assert rc == 0 and 'numpy' in sys.modules\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(*[line for line in fh if line.startswith('Threads:')], file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stderr.split() == ["Threads:", "1"]


def test_spectrum_gallery_script(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "spectrum_gallery.py"), "--outdir",
         str(tmp_path), "--terms", "3", "--max-den", "6", "--targets", "1/2"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert "wrote spectrum_1_2.json/.svg" in proc.stdout
    doc = json.loads((tmp_path / "spectrum_1_2.json").read_text())
    assert doc["alpha"] == "1/2" and doc["max_denominator"] == 6
    assert len(doc["sequence"]) == 3 and doc["entries"]
    assert (tmp_path / "spectrum_1_2.svg").read_text().startswith("<svg")


def test_spectrum_gallery_refuses_over_budget(tmp_path, monkeypatch):
    import importlib.util

    import spinaldim.synthesis as synthesis

    spec = importlib.util.spec_from_file_location(
        "spectrum_gallery", ROOT / "scripts" / "spectrum_gallery.py")
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    monkeypatch.setattr(synthesis, "_SCAN_CAP", 20)
    err = io.StringIO()
    with redirect_stderr(err):
        code = gallery.main(["--outdir", str(tmp_path), "--terms", "6", "--targets", "1/2"])
    assert code == cli.BUDGET_ERROR == 4
    assert err.getvalue().startswith("refused: prime-rich scan over ")
    assert "exceeds cap 20" in err.getvalue()
