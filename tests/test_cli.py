"""Command-line surface: exit codes, formats, determinism."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conevol import cli, verify
from conevol.chebyshev import s_diff_zeros
from conevol.cli import main
from conevol.errors import NonConvergenceError

SRC = Path(cli.__file__).resolve().parents[1]
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text("utf-8"))


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_volume_record(capsys):
    code, out, err = run_cli(
        "volume", "--family", "c2n2", "--n", "1", "--alpha", "0.5",
        "--cross-check", capsys=capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["regime"] == "hyperbolic"
    assert record["volume"] == pytest.approx(record["schlafli_volume"], abs=1e-6)
    assert record["alpha_K"] == pytest.approx(2 * math.pi / 3, abs=1e-6)


def test_volume_out_of_range_exit_2(capsys):
    code, out, err = run_cli(
        "volume", "--family", "c2n2", "--n", "1", "--alpha", "6.28", capsys=capsys
    )
    assert code == 2
    assert "beyond the spherical band" in err


def test_volume_bad_n_exit_1(capsys):
    code, out, err = run_cli(
        "volume", "--family", "c2n2", "--n", "0", "--alpha", "1.0", capsys=capsys
    )
    assert code == 1
    assert "nonzero" in err


def test_volume_bad_family_exit_1(capsys):
    code, out, err = run_cli(
        "volume", "--family", "bogus", "--n", "1", "--alpha", "1.0", capsys=capsys
    )
    assert code == 1
    assert "unknown family" in err


def test_degrees_flag(capsys):
    code, out, _ = run_cli(
        "volume", "--family", "c2n2", "--n", "1", "--alpha", "60", "--degrees",
        capsys=capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["alpha"] == pytest.approx(math.radians(60), rel=1e-10)
    assert record["input_degrees"] is True


def test_critical_angle_output(capsys):
    code, out, _ = run_cli(
        "critical-angle", "--family", "c2n2", "--n", "1", capsys=capsys
    )
    assert code == 0
    assert out.startswith("alpha_K=2.0943951024")


def test_critical_angle_takes_no_degrees_flag(capsys):
    # critical-angle reads no angle, so --degrees is an unknown flag there
    with pytest.raises(SystemExit) as exc:
        main(["critical-angle", "--family", "c2n2", "--n", "1", "--degrees"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --degrees" in capsys.readouterr().err


def test_critical_angle_torus_member_exit_1(capsys):
    code, _, err = run_cli(
        "critical-angle", "--family", "c2nm2n", "--n", "1", capsys=capsys
    )
    assert code == 1
    assert "no" in err


def test_sweep_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--family", "c2n2", "--n", "1", "--alpha-start", "0.4",
        "--alpha-stop", "3.8", "--count", "6", "--out", str(out_file),
    ]
    assert main(argv) == 0
    text = out_file.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "alpha,regime,volume,error_estimate,l_alpha,alpha_K,status"
    assert len(lines) == 7
    assert all(line.endswith("ok") for line in lines[1:])
    # determinism: a second run is bitwise identical; --jobs is accepted and ignored
    out2 = tmp_path / "sweep2.csv"
    assert main(argv[:-1] + [str(out2), "--jobs", "3"]) == 0
    assert out2.read_text(encoding="utf-8") == text


def test_sweep_monotone_hyperbolic_rows(tmp_path):
    out_file = tmp_path / "hyp.csv"
    assert main([
        "sweep", "--family", "c2n2", "--n", "1", "--alpha-start", "0.1",
        "--alpha-stop", "2.0", "--count", "20", "--out", str(out_file),
    ]) == 0
    rows = out_file.read_text().splitlines()[1:]
    vols = [float(r.split(",")[2]) for r in rows if r.split(",")[1] == "hyperbolic"]
    assert all(a > b for a, b in zip(vols, vols[1:]))


def test_sweep_json_metadata(tmp_path):
    out_file = tmp_path / "sweep.json"
    assert main([
        "sweep", "--family", "c2n3", "--n", "1", "--alpha-start", "1.0",
        "--alpha-stop", "1.2", "--count", "2", "--format", "json",
        "--out", str(out_file),
    ]) == 0
    data = json.loads(out_file.read_text())
    assert data["metadata"]["family"] == "c2n3"
    assert data["metadata"]["count"] == 2
    assert len(data["rows"]) == 2
    assert data["rows"][0]["status"] == "ok"


def test_sweep_cross_check_column_and_key(tmp_path):
    argv = [
        "sweep", "--family", "c2n3", "--n", "2", "--alpha-start", "1.0",
        "--alpha-stop", "3.4", "--count", "4", "--jobs", "1", "--cross-check",
    ]
    csv_file, json_file = tmp_path / "x.csv", tmp_path / "x.json"
    assert main(argv + ["--out", str(csv_file)]) == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0] == (
        "alpha,regime,volume,error_estimate,l_alpha,alpha_K,status,schlafli_volume"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert {r[1] for r in rows} == {"hyperbolic", "spherical"}
    for r in rows:
        assert r[6] == "ok"
        assert abs(float(r[2]) - float(r[7])) <= 1e-7
    assert main(argv + ["--format", "json", "--out", str(json_file)]) == 0
    data = json.loads(json_file.read_text())
    assert [row["schlafli_volume"] for row in data["rows"]] == [float(r[7]) for r in rows]


def test_sweep_out_of_range_rows_kept(tmp_path):
    out_file = tmp_path / "band.csv"
    assert main([
        "sweep", "--family", "c2n2", "--n", "1", "--alpha-start", "4.0",
        "--alpha-stop", "6.0", "--count", "3", "--out", str(out_file),
    ]) == 0
    rows = [r.split(",") for r in out_file.read_text().splitlines()[1:]]
    assert rows[-1][-1] == "out_of_range"
    assert any(r[-1] == "ok" for r in rows)


def test_sweep_validation(capsys):
    code, _, err = run_cli(
        "sweep", "--family", "c2n2", "--n", "1", "--alpha-start", "2.0",
        "--alpha-stop", "1.0", "--count", "5", capsys=capsys,
    )
    assert code == 1


def test_roots_listing(capsys):
    code, out, _ = run_cli(
        "roots", "--family", "c2n2", "--n", "1", "--alpha", repr(math.pi),
        capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im,f_re,f_im,residual,spurious_flag,selected_flag"
    values = sorted(float(line.split(",")[0]) for line in lines[1:])
    assert values[0] == pytest.approx(-1.618033988749895, abs=1e-9)
    assert values[1] == pytest.approx(0.618033988749895, abs=1e-9)
    assert all(line.split(",")[6] == "true" for line in lines[1:])


@pytest.mark.parametrize("family, n, det_k", [("c2n2", -2, 7), ("c2nm2n", 2, 15)])
def test_roots_flags_the_root_at_y_equal_2(family, n, det_k, capsys):
    # cot^2(alpha/2) = det K puts a root of the cleared equation on the pole
    alpha = 2.0 * math.atan(1.0 / math.sqrt(det_k))
    code, out, _ = run_cli(
        "roots", "--family", family, "--n", str(n), "--alpha", repr(alpha),
        capsys=capsys,
    )
    assert code == 0
    assert "2,0,nan,nan,inf,true,false" in out.splitlines()


@pytest.mark.parametrize("n", (-12, -11, -10, -9, 9, 10, 11, 12))
def test_roots_prints_the_exact_cosine_of_every_parasite(n, capsys):
    # the f^2 = 1 parasites of C(2n,-2n) are the zeros of S_{n-1} - S_{n-2} and
    # S_n - S_{n-1}; a companion solve of their product printed 44 of these
    # rows wrong in the 12th digit or earlier
    code, out, _ = run_cli(
        "roots", "--family", "c2nm2n", "--n", str(n), "--alpha", "1.0", capsys=capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    flagged = sorted((r[0], r[1]) for r in rows if r[5] == "true")
    cosines = s_diff_zeros(n - 1) + s_diff_zeros(n)
    assert flagged == sorted((format(c, ".12g"), "0") for c in cosines)


def test_roots_conjugate_pairing_visible(capsys):
    code, out, _ = run_cli(
        "roots", "--family", "c2n3", "--n", "2", "--alpha", "1.0", capsys=capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    ims = sorted(float(r[1]) for r in rows)
    for v in ims:
        assert any(abs(v + w) < 1e-9 for w in ims)


def test_verify_subset_and_no_tol_flag(capsys):
    code, out, _ = run_cli(
        "verify", "--suite", "pell-identity", "--suite", "w12-closed-form",
        capsys=capsys,
    )
    assert code == 0
    assert "pell-identity" in out and "PASS" in out
    # the suites grade against their own tolerances: no --tol re-grading flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "pell-identity", "--tol", "1e-20"])
    assert exc.value.code == 1
    assert "--tol" in capsys.readouterr().err


def test_entry_point_exists():
    # the subprocess gets the package's own source root, so the test does not
    # depend on PYTHONPATH being set for the test run
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "conevol.cli", "--version"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_stdout_and_exit_code(case, capsys):
    # cli_golden.json pins the stdout bytes and exit code of each form; a
    # change meant to alter them re-records the file and says so
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, _ = capsys.readouterr()
    assert code == case["exit"]
    assert out == case["stdout"]


def test_sweep_rows_run_in_order_on_the_calling_thread(monkeypatch, capsys):
    seen = []
    row = cli._sweep_row

    def recorded(spec, *args):
        seen.append((threading.get_ident(), spec.alpha))
        return row(spec, *args)

    monkeypatch.setattr(cli, "_sweep_row", recorded)
    assert main([
        "sweep", "--family", "c2n2", "--n", "1", "--alpha-start", "0.5",
        "--alpha-stop", "3.5", "--count", "4", "--jobs", "2",
    ]) == 0
    assert [ident for ident, _ in seen] == [threading.get_ident()] * 4
    assert [alpha for _, alpha in seen] == [0.5, 1.5, 2.5, 3.5]


def test_a_failed_sweep_row_keeps_its_place(monkeypatch, capsys):
    volume_for = cli._volume_for

    def failing_middle(spec, classified, cross_check):
        if spec.alpha == 1.0:
            raise NonConvergenceError("no root")
        return volume_for(spec, classified, cross_check)

    monkeypatch.setattr(cli, "_volume_for", failing_middle)
    code, out, err = run_cli(
        "sweep", "--family", "c2n2", "--n", "1", "--alpha-start", "0.5",
        "--alpha-stop", "1.5", "--count", "3", capsys=capsys,
    )
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == cli.CSV_HEADER
    assert [row.split(",")[-1] for row in rows] == [
        "ok", "error:NonConvergenceError", "ok"
    ]
    alpha, regime, volume, error, l_alpha, alpha_k, _ = rows[1].split(",")
    assert alpha == "1"
    assert (regime, volume, error, l_alpha) == ("", "", "", "")
    assert float(alpha_k) == pytest.approx(2 * math.pi / 3, abs=1e-6)
    assert alpha_k == rows[0].split(",")[5]


@pytest.mark.parametrize("argv,kind", [
    (["critical-angle", "--family", "c2nm2n", "--n", "1"], "NotBracketedError"),
    (["critical-angle", "--family", "c2n3", "--n", "12"], "NonConvergenceError"),
    (["volume", "--family", "c2n2", "--n", "-3", "--alpha", "0.5855"],
     "NonConvergenceError"),
    (["roots", "--family", "c2nm2n", "--n", "1", "--alpha", "1.0"],
     "NotBracketedError"),
    (["sweep", "--family", "c2nm2n", "--n", "1", "--alpha-start", "1.0",
      "--alpha-stop", "2.0", "--count", "3"], "NotBracketedError"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_library_errors_become_one_typed_stderr_line(argv, kind, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {kind}: ")


@pytest.mark.parametrize("argv", [
    ["volume", "--family", "c2n2", "--n", "1", "--alpha", "5e-324"],
    ["sweep", "--family", "c2n2", "--n", "1", "--alpha-start", "5e-324",
     "--alpha-stop", "1.0", "--count", "3"],
    ["volume", "--family", "c2n2", "--n", "1", "--alpha", "1e-160"],
], ids=("tan-underflow", "sweep-tan-underflow", "coefficient-overflow"))
def test_a_tiny_cone_angle_ends_in_one_stderr_line(argv):
    # tan(alpha/2) = 0 raised ZeroDivisionError; A^2 = inf reached np.roots,
    # which warned and raised LinAlgError
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "conevol.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cone ")


def test_verify_turns_a_raised_error_into_one_typed_stderr_line(monkeypatch, capsys):
    def broken(names, n_values):
        raise NonConvergenceError("no root")

    monkeypatch.setattr(cli, "run_suites", broken)
    code, out, err = run_cli("verify", capsys=capsys)
    assert (code, out, err) == (1, "", "error: NonConvergenceError: no root\n")


def test_verify_exits_3_on_a_failing_suite_result(monkeypatch, capsys):
    results = [verify.SuiteResult("pell-identity", True, "max 0", 0.0),
               verify.SuiteResult("w12-closed-form", False, "max 1 > 1e-10", 1.0)]
    monkeypatch.setattr(cli, "run_suites", lambda names, n_values: results)
    code, out, err = run_cli("verify", capsys=capsys)
    assert (code, err) == (3, "")
    assert out.splitlines() == ["pell-identity    PASS  max 0",
                                "w12-closed-form  FAIL  max 1 > 1e-10"]


def test_verify_reports_a_raising_suite_as_failed_and_goes_on(capsys):
    # the double-root polish of C(24,3) leaves its bracket (ROADMAP item 2);
    # the battery grades that suite as failed instead of ending in a traceback
    code, out, err = run_cli(
        "verify", "--n", "12", "--suite", "pell-identity",
        "--suite", "representation-oracle", capsys=capsys,
    )
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("pell-identity") and "PASS" in lines[0]
    assert lines[1].startswith("representation-oracle  FAIL  NonConvergenceError: ")
    assert err == ""
    failed = verify.run_suites(["representation-oracle"], n_values=(12,))
    assert [(r.name, r.passed, r.metric) for r in failed] == [
        ("representation-oracle", False, math.inf)
    ]
