import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

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
    assert doc["certificate"] == "order-bound"
    assert doc["elapsed_ms"] is None


def test_verify_h_group():
    code, out, _ = run_cli("verify", "--seq", "5,5", "--level", "2", "--group", "H")
    assert code == 0
    assert json.loads(out)["expected"] == "81"


def test_verify_cap_refusal_exit_four():
    code, _, err = run_cli("verify", "--seq", "5,5,5,5,5", "--level", "5")
    assert code == 4
    assert "cap" in err


def test_verify_fallback_budget_exit_four(monkeypatch):
    import spinaldim.schreier as schreier

    # this H stalls below its closed form, so only the Schreier pass can certify it
    monkeypatch.setattr(schreier, "_VERIFY_BYTES_LIMIT", 1 << 10)
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
    assert "liminf_estimate" in doc and "diverged" in doc


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


# pinned sha256 of stdout: a change in the log-order arithmetic that moves
# any printed digit fails here
@pytest.mark.parametrize("argv, digest", [
    ("dim --alpha 1/2 --terms 12 --levels 12 --digits 30",
     "165a43fb258d93aba43af7aa49090ae1f1e1f70cb4b30e022ce61bc010767968"),
    ("dim --alpha 1/3 --terms 10 --levels 4 --precision 256 --digits 60",
     "03efbc42e62ad126a50fbea723fbbabb01d54681a81c296098977bb08b746999"),
    ("dim --alpha 1/10 --terms 22 --levels 22 --strategy prime-rich",
     "c668069454c8be2548ba5149cd89e8da92bfb7c49ed6cd131688048f86bd8f70"),
    ("scripts/dimension_scan.py --levels 40 --precision 256 --constants 5,7,9,27 "
     "--targets 0.5,0.25,1/3",
     "fae84de1030c26a396a4190411ccc36f1b6936f71c6ca60d56f65b16eb63be4e"),
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
