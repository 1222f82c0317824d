import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import spinaldim.cli as cli
from spinaldim import TreeSequence, errors
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
    code, out, _ = run_cli("verify", "--seq", "5,5", "--level", "1", "--group", "G")
    assert code == 0
    doc = json.loads(out)
    assert (doc["measured"], doc["match"], doc["certificate"]) == ("60", True, "branch")


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


def test_spectrum_work_budget_refusal_exit_four():
    # every denominator up to 600 divides l - 2, so the sample would hold
    # about 220k entries; it is refused as it grows past the work limit
    seq = str(math.lcm(*range(1, 601)) + 2)
    code, out, err = run_cli("spectrum", "--alpha", "1/2", "--seq", seq, "--max-den", "600",
                             "--horizon", "1")
    assert code == 4
    assert out == ""
    assert err.startswith("refused: spectrum sample needs work above 100000 ")


def test_spectrum_charges_the_words_of_each_realization():
    # L = lcm(1..100)^30: every b <= 100 divides L, so the sample holds
    # about 6,200 entries, well inside the limit, but 3,044 realizations of
    # 2 * 4,080 bits; charged by their 64-bit words, it is refused at once
    big = math.lcm(*range(1, 101)) ** 30
    start = time.perf_counter()
    code, out, err = run_cli("spectrum", "--alpha", "1/2", "--seq", f"{big + 2},{big}",
                             "--max-den", "100", "--horizon", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("refused: spectrum sample needs work above 100000 ")


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


def test_echoed_alpha_and_sequence_are_printed_in_subquadratic_time():
    # str() of a 200,000-digit int would need the 5,000-digit limit lifted
    args = cli.build_parser().parse_args(["spectrum", "--alpha", "0", "--seq", "5",
                                          "--max-den", "2", "--horizon", "1"])
    args.alpha = Fraction(1, 10 ** 200_000)
    args.seq = TreeSequence((5, 10 ** 200_000 + 7))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        config = cli._config(args)
    finally:
        sys.set_int_max_str_digits(limit)
    assert config["alpha"] == "1/1" + "0" * 200_000
    assert config["seq"] == "5,1" + "0" * 199_999 + "7"


def test_dim_csv_shape():
    code, out, _ = run_cli("dim", "--alpha", "0.5", "--terms", "6", "--levels", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,alpha_n_num,alpha_n_den,d_n,lower_n,upper_n,T1,T2"
    assert len(lines) == 8
    first = lines[2].split(",")
    assert first[0] == "1" and first[1] == "3" and first[2] == "5"


def test_dim_synthesizes_only_the_reported_levels():
    # 40 minimal terms of 1/2 are refused at entry 18; one row needs one term
    code, out, err = run_cli("dim", "--alpha", "1/2", "--terms", "40", "--levels", "1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].endswith(" terms=40 levels=1 strategy=minimal precision=128 digits=12")
    _, one_term, _ = run_cli("dim", "--alpha", "1/2", "--terms", "1", "--levels", "1")
    assert lines[1:] == one_term.splitlines()[1:]
    assert len(lines) == 3


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
                        "liminf_estimate", "limsup_estimate"}


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


def test_spectrum_decimal_ties_round_half_up():
    # 1/4, 3/20, 7/20 and 9/20 are exact ties at one digit; the binary
    # quotient once decided them by the sign of its rounding error
    code, out, _ = run_cli("spectrum", "--alpha", "1/2", "--seq", "22", "--max-den", "20",
                           "--horizon", "1", "--digits", "1")
    assert code == 0
    decimals = {e["value"]: e["decimal"] for e in json.loads(out)["entries"]}
    assert [decimals[v] for v in ("1/4", "3/20", "7/20", "9/20")] == ["0.3", "0.2", "0.4", "0.5"]


def _significant_digits(q, digits):
    """The first ``digits`` significant digits of 0 < q < 1, rounded half up exactly."""
    shift = digits
    while q * 10 ** shift < 10 ** (digits - 1):
        shift += 1
    return str(math.floor(q * 10 ** shift + Fraction(1, 2)))


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


@pytest.mark.parametrize("seq, position", [("5,,5", 2), (",5", 1), ("5,", 2)])
def test_empty_seq_entry_is_a_bad_value(seq, position):
    # dropping the entry would verify a different tree and echo it as given
    code, out, err = run_cli("verify", "--seq", seq, "--level", "2")
    assert (code, out) == (2, "")
    assert err.endswith(f"spinaldim verify: error: argument --seq: empty entry {position} "
                        f"in valency sequence {seq!r}\n")


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
     "7095485f65e6c4ab3b8cb8b42c2795dda899930cb02fc126b8c541c88c143d60"),
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


# every (sequence, level, group) and chain seed the benchmark's verify ops draw
# from: chains certified by the order bound and by a Schreier pass, rigid
# branch witnesses, and the (5,5,5) L3 H mismatch that exits 3
VERIFY_CHAIN_POOLS = [
    ("40", 1, "G", (2, 5, 6, 47, 71, 139, 195, 197)),
    ("61", 1, "H", (43, 61, 67, 70, 109, 118, 132, 174)),
    ("7,7", 2, "G", (18, 39, 53, 59, 92, 149, 179, 197)),
    ("7,7", 2, "H", (54, 78, 80, 97, 110, 146, 149, 183)),
    ("9,9", 2, "G", (4, 16, 54, 60, 120, 182, 185, 187)),
    ("9,9", 2, "H", (18, 39, 53, 59, 92, 149, 179, 197)),
    ("11,11", 2, "G", (67, 72, 78, 88, 131, 140, 187, 199)),
    ("5,5,5", 3, "G", (33, 67, 98, 102, 124, 137, 141, 156)),
    ("5,5,7", 3, "H", (1, 23, 28, 72, 95, 110, 143, 167)),
    ("7,5,6", 3, "H", (24, 43, 83, 119, 121, 162, 173, 185)),
    ("5,5,5", 3, "H", (1, 3, 4, 6, 13, 15, 19, 21)),
]


def test_verify_chain_pool_bytes_pinned():
    digest = hashlib.sha256()
    for seq, level, group, seeds in VERIFY_CHAIN_POOLS:
        for seed in seeds:
            code, out, _ = run_cli("verify", "--seq", seq, "--level", str(level),
                                   "--group", group, "--seed", str(seed))
            digest.update(f"{out}exit {code}\n".encode())
    assert digest.hexdigest() == (
        "8fe15620454939f916a4fe7109790553e8366672b4e187bd4c5cad4ac6518f2b")


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


def test_synth_and_spectrum_leave_mpmath_unloaded():
    # their decimals are exact rationals rounded in integer arithmetic
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import contextlib, io, sys, spinaldim.cli\n"
        "for argv in (['synth', '--alpha', '1/3', '--terms', '4'],\n"
        "             ['synth', '--alpha', '1/3', '--terms', '4', '--format', 'json'],\n"
        "             ['spectrum', '--alpha', '1/2', '--seq', '5,7,9', '--max-den', '6',\n"
        "              '--horizon', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert spinaldim.cli.main(argv) == 0\n"
        "    print(argv[0], *[m for m in ('mpmath', 'numpy') if m in sys.modules])\n"
    )
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert got.stdout.splitlines() == ["synth", "synth", "spectrum"]


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


def _script(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(name, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _script(name).main(argv)
    return code, out.getvalue(), err.getvalue()


def test_spectrum_gallery_refuses_over_budget(tmp_path, monkeypatch):
    import spinaldim.synthesis as synthesis

    gallery = _script("spectrum_gallery")
    monkeypatch.setattr(synthesis, "_SCAN_CAP", 20)
    err = io.StringIO()
    with redirect_stderr(err):
        code = gallery.main(["--outdir", str(tmp_path), "--terms", "6", "--targets", "1/2"])
    assert code == errors.BUDGET_ERROR == 4
    assert err.getvalue().startswith("refused: prime-rich scan over ")
    assert "exceeds cap 20" in err.getvalue()


def test_spectrum_gallery_reports_a_bad_target(tmp_path):
    code, out, err = _run_script("spectrum_gallery", ["--outdir", str(tmp_path), "--targets", "x"])
    assert (code, out, err) == (2, "", "error: Invalid literal for Fraction: 'x'\n")


@pytest.mark.parametrize("argv, err", [
    (["--constants", "4", "--levels", "3", "--targets", ""],
     "error: valency 4 < 5; the shifted side needs l - 2 >= 3\n"),
    (["--constants", "", "--levels", "3", "--targets", "abc"],
     "error: Invalid literal for Fraction: 'abc'\n"),
    # every target parses before the first block is printed
    (["--levels", "2", "--constants", "5", "--targets", "0.5,abc"],
     "error: Invalid literal for Fraction: 'abc'\n"),
    (["--levels", "2", "--constants", "5", "--targets", "0.5,1/0"],
     "error: target '1/0' has a zero denominator\n"),
])
def test_dimension_scan_reports_a_bad_value(argv, err):
    assert _run_script("dimension_scan", argv) == (2, "", err)


def test_dimension_scan_refuses_over_budget(monkeypatch):
    import spinaldim.synthesis as synthesis

    # the constant block is printed before the target's synthesis is refused
    monkeypatch.setattr(synthesis, "_MAX_ENTRY_DIGITS", 2)
    code, out, err = _run_script("dimension_scan",
                                 ["--constants", "5", "--levels", "3", "--targets", "1/2"])
    assert code == 4
    assert out.startswith("# family=constant-5 ") and "target" not in out
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_scan_of_huge_valencies_rounds_alpha_quickly():
    # 300 levels of 10^50: alpha_n's terms carry 50k trailing zero bits.  On
    # a 2-vCPU VM this run takes 0.14 s; it took 1.1-1.3 s while alpha_n
    # went through mpmath's from_int, which strips them a byte at a time.
    start = time.perf_counter()
    code, out, err = _run_script(
        "dimension_scan", ["--levels", "300", "--constants", str(10**50), "--targets", ""])
    assert time.perf_counter() - start < 0.75
    assert (code, err) == (0, "") and out.count("\n") == 304


def _printable_12(num, den):
    """num/den in (0, 1) to 12 significant digits, rounded half up exactly."""
    k = 11 + len(str(den)) - len(str(num))
    while num * 10**k // den < 10**11:
        k += 1
    while num * 10**k // den >= 10**12:
        k -= 1
    return Fraction((2 * num * 10**k + den) // (2 * den), 10**k)


@given(st.lists(st.integers(5, 60), min_size=1, max_size=40),
       st.sampled_from([64, 128, 256]))
@example([56] * 143, 128)  # 0.005513403692844999... prints ...284; a 53-bit quotient, ...285
@example([8, 16, 16, 16, 40], 128)  # alpha_5 = 19551/40960 = 0.4773193359375, a tie
def test_scan_alpha_column_is_the_exact_rational_rounded(valencies, precision):
    out = io.StringIO()
    with redirect_stdout(out):
        _script("dimension_scan").emit_block("t", TreeSequence(valencies), len(valencies),
                                             precision)
    rows = out.getvalue().splitlines()[2:-2]
    assert len(rows) == len(valencies)
    num = den = 1
    for n, (row, l) in enumerate(zip(rows, valencies), start=1):
        num, den = num * (l - 2), den * l
        cols = row.split(",")
        assert int(cols[0]) == n
        assert Fraction(cols[1]) == _printable_12(num, den)


class _FullStdout(io.StringIO):
    """A stdout whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


WRITE_FAILED = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
GALLERY = "scripts/spectrum_gallery.py"
GALLERY_ARGS = "--outdir {out} --terms 3 --max-den 6 --targets 1/2"


@pytest.mark.parametrize("name, argv, full_stdout, code, err", [
    ("cli", "verify --seq 5,5,5 --level 3 --cap 100", False, 4,
     "refused: level 3 action has degree 125 > cap 100\n"),
    ("dimension_scan", "--levels 3 --constants 5 --targets= --precision 4097", False, 4,
     "refused: precision 4097 above the 4096-bit ceiling\n"),
    ("spectrum_gallery", "--outdir {out} --terms 3 --max-den 1000000 --targets 1/2", False, 4,
     "refused: spectrum sample needs work above 100000 "),
    ("cli", "dim --alpha 1/2 --terms 2 --levels 3", False, 2,
     "error: levels cannot exceed terms\n"),
    ("dimension_scan", "--levels 3 --constants= --targets=abc", False, 2,
     "error: Invalid literal for Fraction: 'abc'\n"),
    ("spectrum_gallery", "--outdir {out} --targets=x", False, 2,
     "error: Invalid literal for Fraction: 'x'\n"),
    ("cli", "verify --seq 5,5 --level 2", True, 2, WRITE_FAILED),
    ("dimension_scan", "--levels 3 --constants 5 --targets=", True, 2, WRITE_FAILED),
    ("spectrum_gallery", GALLERY_ARGS, True, 2, WRITE_FAILED),
])
def test_every_entry_point_ends_through_one_exit_policy(tmp_path, name, argv, full_stdout,
                                                        code, err):
    # a refused budget exits 4, a bad value or a failed write exits 2, each
    # with one stderr line
    run = main if name == "cli" else _script(name).main
    out, err_got = _FullStdout() if full_stdout else io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err_got):
        got = run(argv.format(out=tmp_path / "out").split())
    assert got == code
    assert err_got.getvalue().startswith(err) and err_got.getvalue().count("\n") == 1
    if not full_stdout:
        assert out.getvalue() == ""
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, argv", [
    ("dimension_scan", "--levels 3 --constants= --targets 1/0"),
    ("spectrum_gallery", "--outdir {out} --targets 1/0"),
])
def test_zero_denominator_target_is_a_bad_value(tmp_path, name, argv):
    # Fraction("1/0") raises ZeroDivisionError, which no exit code maps
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _script(name).main(argv.format(out=tmp_path / "out").split())
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "error: target '1/0' has a zero denominator\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, argv, err", [
    ("dimension_scan", "--levels 3 --constants 5,,7 --targets=",
     "error: empty entry 2 in valency sequence '5,,7'\n"),
    ("dimension_scan", "--levels 3 --constants , --targets=",
     "error: empty entry 1 in valency sequence ','\n"),
    ("dimension_scan", "--levels 3 --constants 5 --targets 0.5,,0.25",
     "error: empty entry 2 in target list '0.5,,0.25'\n"),
    ("dimension_scan", "--levels 3 --constants= --targets 0.5,",
     "error: empty entry 2 in target list '0.5,'\n"),
    ("spectrum_gallery", "--outdir {out} --targets 0.5,,0.3",
     "error: empty entry 2 in target list '0.5,,0.3'\n"),
    ("spectrum_gallery", "--outdir {out} --targets ,0.3",
     "error: empty entry 1 in target list ',0.3'\n"),
], ids=["scan-constants-5,,7", "scan-constants-comma", "scan-targets-0.5,,0.25",
        "scan-targets-0.5,", "gallery-targets-0.5,,0.3", "gallery-targets-,0.3"])
def test_empty_list_entry_is_a_bad_value(tmp_path, name, argv, err):
    # an empty list still means none; an empty entry in one is refused before
    # any block is printed or --outdir is made, as `verify --seq 5,,5` is
    code, out, got = _run_script(name, argv.format(out=tmp_path / "out").split())
    assert (code, out, got) == (2, "", err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, template", [
    ("cli", "verify --seq 5,{} --level 1"),
    ("dimension_scan", "--levels 1 --constants 5,{} --targets="),
])
def test_valency_text_is_refused_above_its_digit_budget(name, template):
    # before this budget verify spent 25 s on such an entry, most of it in int()
    argv = template.format("9" * 1_000_000).split()
    start = time.perf_counter()
    refused = run_cli(*argv) if name == "cli" else _run_script(name, argv)
    assert time.perf_counter() - start < 1.0
    assert refused == (4, "", "refused: valency entry 2 has 1000000 characters (budget 100000)\n")


def _near_tie_report(seq, levels, precision_bits=128):
    """A one-row report whose every binary value is the 160-bit near tie."""
    import mpmath
    from mpmath.libmp import from_man_exp

    from spinaldim.dimension import DimensionReport, DimensionRow

    # just above 0.1234567890125; mpmath's nstr and to_str print 0.123456789012
    x = mpmath.mp.make_mpf(from_man_exp(1443458394251076601750342911141604080247190834417, -163))
    row = DimensionRow(1, x, Fraction(3, 5), x, x, x, x, x)
    return DimensionReport(seq.valencies[:1], precision_bits, [row], x, x)


def test_every_printed_row_value_is_its_exact_value_rounded_half_up(monkeypatch):
    tie = "0.123456789013"
    monkeypatch.setattr(cli, "dimension_report", _near_tie_report)
    dim = "dim --alpha 1/2 --terms 1 --levels 1 --format {}"
    code, out, _ = run_cli(*dim.format("json").split())
    doc = json.loads(out)
    assert code == 0 and [doc["liminf_estimate"], doc["limsup_estimate"]] == [tie, tie]
    assert [v for k, v in doc["rows"][0].items() if k not in ("n", "alpha_n")] == [tie] * 6
    code, out, _ = run_cli(*dim.format("csv").split())
    assert code == 0 and out.splitlines()[2].split(",")[3:] == [tie] * 5
    scan = _script("dimension_scan")
    monkeypatch.setattr(scan, "dimension_report", _near_tie_report)
    out = io.StringIO()
    with redirect_stdout(out):
        assert scan.main(["--levels", "1", "--constants", "5", "--targets="]) == 0
    assert out.getvalue().splitlines()[2:4] == [f"1,0.6,{tie},{tie},{tie}",
                                                f"# liminf_estimate={tie}"]


@pytest.mark.parametrize("template, at, over, err", [
    ("dim --alpha 1/2 --terms 3 --levels 3 --precision {}", 4096, 4097,
     "refused: precision 4097 above the 4096-bit ceiling\n"),
    ("synth --alpha 1/3 --terms 3 --digits {}", 1223, 1224,
     "refused: --digits 1224 needs 4099 bits, above the 4096-bit ceiling\n"),
    ("spectrum --alpha 1/2 --seq 5,7,9 --max-den 6 --horizon 3 --digits {}", 1223, 1224,
     "refused: --digits 1224 needs 4099 bits, above the 4096-bit ceiling\n"),
])
def test_working_precision_has_a_ceiling(template, at, over, err):
    start = time.perf_counter()
    refused = run_cli(*template.format(over).split())
    assert time.perf_counter() - start < 1.0
    assert refused == (4, "", err)
    code, out, err_got = run_cli(*template.format(at).split())
    assert (code, err_got) == (0, "") and out


@pytest.mark.parametrize("name, template", [
    ("cli", "synth --alpha {} --terms 1"),
    ("cli", "spectrum --alpha {} --seq 5 --max-den 2 --horizon 1"),
    ("dimension_scan", "--levels 1 --constants= --targets {}"),
])
def test_alpha_text_is_refused_above_its_written_digits(name, template):
    # Fraction("1e-30000000") builds 10**30000000: 42 s before this budget
    def run(text):
        if name == "cli":
            return run_cli(*template.format(text).split())
        return _run_script(name, template.format(text).split())

    start = time.perf_counter()
    assert run("1e-30000000") == (
        4, "", "refused: target needs at least 100012 digits written out (budget 100000)\n")
    assert time.perf_counter() - start < 1.0
    assert run("1e-100001") == (
        4, "", "refused: target needs at least 100001 digits written out (budget 100000)\n")
    code, out, err = run("1e-100000")
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("name, argv, err", [
    ("cli", "portrait --gen zeta --seq 5,4000000 --depth 2",
     "refused: spinal labels need 4000000 entries (budget 100000)\n"),
    ("dimension_scan", "--levels 16000 --constants 5 --targets=",
     "refused: log-order sums over 16000 levels need about 2.97e+08 bits "
     "(budget 16777216)\n"),
], ids=["portrait", "dimension_scan"])
def test_wide_labels_and_deep_reports_are_refused_before_any_work(name, argv, err):
    run = main if name == "cli" else _script(name).main
    out, err_got = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err_got):
        code = run(argv.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out.getvalue(), err_got.getvalue()) == (4, "", err)


def test_spinal_labels_at_the_entry_budget_are_built():
    code, out, err = run_cli("portrait", "--gen", "zeta", "--seq", "5,100000", "--depth", "2")
    assert (code, err) == (0, "")
    assert out.endswith("1 2: (99998 99999 100000)\n")


# A cold `python -m spinaldim.cli` or `python scripts/<script>.py` ends
# through spinaldim._end_process (flush, exit handlers, os._exit); the codes
# and bytes below are those of the plain `sys.exit(main())` ending.
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


def _cold_env(site_dir=None, unbuffered=False):
    # stdout block-buffered unless asked, so that a lost flush loses bytes
    path = [str(ROOT / "src")] if site_dir is None else [str(site_dir), str(ROOT / "src")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONIOENCODING="utf-8")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _cold(argv, site_dir=None, **kwargs):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=_cold_env(site_dir),
                          capture_output=True, timeout=120, **kwargs)


def _site_dir(tmp_path, source):
    """A PYTHONPATH entry whose sitecustomize.py runs ``source`` at start-up."""
    site_dir = tmp_path / "site"
    site_dir.mkdir()
    (site_dir / "sitecustomize.py").write_text(source)
    return site_dir


def _exit_handler(body):
    return f"import atexit\n\n\n@atexit.register\ndef _handler():\n    {body}\n"


@pytest.mark.parametrize("argv, code, out_digest, err", [
    ("-m spinaldim.cli verify --seq 7,7 --level 2 --group G --seed 18", 0,
     "73b97af55575e06fa2b0035779414856e9f1b3302c11d7ce6f5e83a9c9d273ba", ""),
    ("-m spinaldim.cli verify --seq 5,x --level 2", 2, EMPTY_SHA256,
     "usage: spinaldim verify [-h] --seq SEQ --level LEVEL [--group {G,H}]\n"
     "                        [--seed SEED] [--cap CAP] [--timing] [--out OUT]\n"
     "spinaldim verify: error: argument --seq: invalid literal for int() with base 10: 'x'\n"),
    ("-m spinaldim.cli verify --seq 5,5,5 --level 3 --group H", 3,
     "5e404bcef8b3af9fbead6df156e479a0834c9f640b4ae1a4c8f26b6ffa30c7e5", ""),
    ("-m spinaldim.cli verify --seq 5,5,5 --level 3 --cap 100", 4, EMPTY_SHA256,
     "refused: level 3 action has degree 125 > cap 100\n"),
    ("scripts/dimension_scan.py --levels 3 --constants 5 --targets=", 0,
     "fb22fdfdc7ebebc7549266966bf55fdd1dac0713d9f1b643a2639860d9fa7db3", ""),
    ("scripts/dimension_scan.py --levels 3 --constants 4 --targets=", 2, EMPTY_SHA256,
     "error: valency 4 < 5; the shifted side needs l - 2 >= 3\n"),
])
def test_cold_run_keeps_its_code_bytes_and_exit_handlers(tmp_path, argv, code, out_digest, err):
    marker = tmp_path / "handler-ran"
    site_dir = _site_dir(tmp_path, _exit_handler(f"open({str(marker)!r}, 'w').close()"))
    proc = _cold(argv.split(), site_dir)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == out_digest
    assert proc.stderr.decode() == err
    assert marker.exists()


def test_exit_handler_output_is_flushed(tmp_path):
    site_dir = _site_dir(tmp_path, _exit_handler("print('handler ran')"))
    proc = _cold(["-m", "spinaldim.cli", "--version"], site_dir)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"spinaldim 0.1.0\nhandler ran\n", b"")


def test_cprofile_gets_control_back_and_writes_its_stats(tmp_path):
    import pstats

    stats = tmp_path / "verify.prof"
    proc = _cold(["-m", "cProfile", "-o", str(stats), "-m", "spinaldim.cli", "verify",
                  "--seq", "7,7", "--level", "2"])
    assert proc.returncode == 0, proc.stderr
    assert pstats.Stats(str(stats)).total_calls > 0


def test_runpy_caller_gets_control_back():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['spinaldim', 'verify', '--seq', '5,5,5', '--level', '3', '--cap', '100']\n"
        "try:\n"
        "    runpy.run_module('spinaldim.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('control back, code', exc.code)\n"
    )
    proc = _cold(["-c", code])
    assert proc.returncode == 0
    assert proc.stdout == b"control back, code 4\n"
    assert proc.stderr == b"refused: level 3 action has degree 125 > cap 100\n"


def test_inspect_flag_reaches_the_prompt():
    proc = _cold(["-i", "-m", "spinaldim.cli", "--version"], input=b"print('prompt reached')\n")
    assert proc.returncode == 0
    assert proc.stdout == b"spinaldim 0.1.0\nprompt reached\n"


BROKEN_PIPE_AT_EXIT = (b"Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
                       b"encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n")
WRITE_ERROR = b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered, code, err", [(True, 0, b""), (False, 2, WRITE_ERROR)])
def test_reader_closing_a_large_output_early_ends_as_before(unbuffered, code, err):
    # 1.3 MB of JSON in one write; the reader keeps 10 bytes and closes the pipe
    argv = [sys.executable, "-m", "spinaldim.cli", "spectrum", "--alpha", "1/2",
            "--seq", "8,32,32,32,32,32", "--max-den", "480", "--horizon", "6"]
    with subprocess.Popen(argv, cwd=ROOT, env=_cold_env(unbuffered=unbuffered),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err_got = proc.stderr.read()
        assert (head, proc.wait(timeout=120), err_got) == (b'{\n  "tool"', code, err)


@pytest.mark.parametrize("argv, unbuffered, code, err", [
    # buffered, the bytes wait for the exit flush, which fails on the
    # closed pipe; the run then ends through sys.exit, as it always did
    ("--version", False, 120, BROKEN_PIPE_AT_EXIT),
    ("--version", True, 0, b""),  # argparse ignores its failed write
    ("verify --seq 5,5 --level 2", False, 120, BROKEN_PIPE_AT_EXIT),
    ("verify --seq 5,5 --level 2", True, 2, WRITE_ERROR),
])
def test_output_into_a_closed_pipe_ends_as_before(argv, unbuffered, code, err):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "spinaldim.cli", *argv.split()], cwd=ROOT,
                              env=_cold_env(unbuffered=unbuffered), stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, err)


def test_live_thread_is_joined_before_the_exit(tmp_path):
    marker = tmp_path / "thread-done"
    site_dir = _site_dir(tmp_path, (
        "import threading, time\n\n\n"
        "def _late():\n"
        "    time.sleep(0.3)\n"
        f"    open({str(marker)!r}, 'w').close()\n\n\n"
        "threading.Thread(target=_late).start()\n"))
    proc = _cold(["-m", "spinaldim.cli", "--version"], site_dir)
    assert proc.returncode == 0
    assert marker.exists()


SCAN = "scripts/dimension_scan.py"


@pytest.mark.parametrize("argv, torn_down", [
    ("-m spinaldim.cli --version", False),
    (SCAN + " --levels 2 --constants 5 --targets=", False),
    (GALLERY + " " + GALLERY_ARGS, False),
    ("-u -m spinaldim.cli --version", True),  # any interpreter option: the normal exit
    ("-u " + SCAN + " --levels 2 --constants 5 --targets=", True),
    ("-u " + GALLERY + " " + GALLERY_ARGS, True),
])
def test_teardown_is_skipped_only_on_the_bare_command_line(tmp_path, argv, torn_down):
    # a module global whose finaliser runs only when the interpreter tears down
    site_dir = _site_dir(tmp_path, (
        "import sys\n\n\n"
        "class _Teardown:\n"
        "    def __del__(self):\n"
        "        sys.stderr.write('torn down\\n')\n\n\n"
        "_kept = _Teardown()\n"))
    proc = _cold(argv.format(out=tmp_path / "out").split(), site_dir)
    assert proc.returncode == 0
    assert proc.stderr == (b"torn down\n" if torn_down else b"")


@pytest.mark.parametrize("orig_argv, argv, entry, started", [
    (["py", "-m", "spinaldim.cli", "a"], ["cli.py", "a"], ("-m", "spinaldim.cli"), True),
    (["py", "-m", "spinaldim.cli", "a"], ["cli.py", "b"], ("-m", "spinaldim.cli"), False),
    (["py", "-X", "importtime", "-m", "spinaldim.cli"], ["cli.py"], ("-m", "spinaldim.cli"),
     False),
    (["py", "-m", "cProfile", "-m", "spinaldim.cli"], ["cli.py"], ("-m", "spinaldim.cli"),
     False),
    (["py", "-m", "spinaldim.cli"], ["cli.py"], (SCAN,), False),
    (["py", SCAN, "a"], [SCAN, "a"], (SCAN,), True),
    # perfbench's layers.py runs the scan through runpy.run_path
    (["py", "perfbench/layers.py", "S.json", SCAN], [SCAN], (SCAN,), False),
    (["py", "runner.py", "a"], [SCAN, "a"], (SCAN,), False),
    (["py", GALLERY, "a"], [GALLERY, "a"], (GALLERY,), True),
    (["py", GALLERY, "a"], [GALLERY, "a"], (SCAN,), False),
])
def test_started_on_needs_the_entry_and_its_arguments(monkeypatch, orig_argv, argv, entry,
                                                      started):
    import spinaldim

    monkeypatch.setattr(sys, "orig_argv", orig_argv)
    monkeypatch.setattr(sys, "argv", argv)
    assert spinaldim._started_on(entry) is started
