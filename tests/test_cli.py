import json
import os
import subprocess
import sys
import time

import pytest

import sapcert
from sapcert import minimality
from sapcert.cli import main
from sapcert.family import MAX_N

EX22_SGN = "2 2\n+-\n+-\n"
EX22_MAT = "2 2\n1 -1\n1 -1\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nilpotent_3_2(capsys):
    code, out, _ = run(capsys, "nilpotent", "--n", "3", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["t_h"] == 0.5
    assert payload["a0"] == [1.0, 0.5]
    assert payload["chain_verified"] is True


def test_nilpotent_2_2_special_case(capsys):
    code, out, _ = run(capsys, "nilpotent", "--n", "2", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["t_h"] == 1.0
    assert payload["a0"] == [1.0]


def test_usage_error_r_greater_than_n(capsys):
    code, _, err = run(capsys, "nilpotent", "--n", "2", "--r", "3")
    assert code == 64
    assert "2 <= r <= n" in err


def test_argparse_errors_use_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nilpotent", "--n", "3"])  # missing --r
    assert exc.value.code == 64


def test_jacobian_3_2(capsys):
    code, out, _ = run(capsys, "jacobian", "--n", "3", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["det_lu"] == pytest.approx(2.0, abs=1e-12)
    assert payload["det_blocks"] == pytest.approx(2.0, abs=1e-12)
    assert payload["positive"] is True


def test_jacobian_large_n(capsys):
    code, out, _ = run(capsys, "jacobian", "--n", "40", "--r", "2")
    assert code == 0
    assert json.loads(out)["positive"] is True


def test_jacobian_r_equal_n(capsys):
    code, out, _ = run(capsys, "jacobian", "--n", "4", "--r", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["det_lu"] == payload["det_blocks"] == 1.0
    assert payload["positive"] is True


@pytest.mark.parametrize(
    "flag,value", [("--monic", "nan,1,1"), ("--monic", "inf,1,1"), ("--eigs", "nan,1,1")]
)
def test_realize_non_finite_target_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "realize", "--n", "3", "--r", "2", flag, value)
    assert code == 64
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "value,index",
    [("1+nani,1-nani,1", 1), ("1,nani,-nani", 2), ("1,2,inf", 3), ("1,1+infi,1-infi", 2)],
)
def test_realize_non_finite_eigenvalue_is_named(capsys, value, index):
    code, out, err = run(capsys, "realize", "--n", "3", "--r", "2", "--eigs", value)
    assert code == 64
    assert out == ""
    assert f"eigenvalue {index}: non-finite value" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "4", "--r", "2", "--monic", "-1e200,1e200,-1e200,1e200"),
        ("--n", "3", "--r", "2", "--eigs", "1e200,1,1"),
    ],
)
def test_realize_overflowing_round_trip_fails_without_warnings(argv):
    # a fresh interpreter, so that stderr is exactly what a user sees
    src = os.path.dirname(os.path.dirname(sapcert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sapcert.cli", "realize", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "non-finite round trip" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_realize_solution_beyond_the_double_range_fails_without_traceback():
    # the exact solution has a_2 near 3.4e308: its double would overflow,
    # which must end in the typed failure, naming the scale
    src = os.path.dirname(os.path.dirname(sapcert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sapcert.cli", "realize", "--n", "3", "--r", "3",
         "--monic=-1.7e308,1.7e308,-1.7e308"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "overflows a double at scaling 1.000e+00" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("msap", "--n", "3", "--r", "2", "--samples", "-1"),
        ("msap", "--n", "3", "--r", "2", "--samples", "0"),
        ("sweep", "--n-max", "3", "--samples", "-2"),
    ],
)
def test_sample_count_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "at least one sample" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("msap", "--n", "3", "--r", "2", "--seed", "-1"), "seed must be non-negative"),
        (("sweep", "--n-max", "3", "--seed", "-5"), "seed must be non-negative"),
        (("msap", "--n", "3", "--r", "2", "--samples", "3000000000"), "sampling budget"),
        (("sweep", "--n-max", "3", "--samples", "100000000000"), "sampling budget"),
        # within the budget at orders 3 and 4, over it only at n = 5
        (("sweep", "--n-max", "5", "--samples", "8000000"), "8000000 samples of 5 values"),
    ],
)
def test_sampling_arguments_out_of_range_are_usage_errors(capsys, argv, message):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 64
    assert out == ""
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("nilpotent", "--n", "1000000", "--r", "2"),
        ("jacobian", "--n", "1000000", "--r", "500000"),
        ("realize", "--n", "1000000", "--r", "2", "--monic", "1,2"),
        ("msap", "--n", "1000000", "--r", "999999"),
        ("sweep", "--n-max", "1000000"),
        ("nilpotent", "--n", str(MAX_N + 1), "--r", "2"),
    ],
)
def test_order_over_max_n_is_a_prompt_usage_error(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 64
    assert out == ""
    assert f"MAX_N={MAX_N}" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_realize_monic(capsys):
    code, out, _ = run(
        capsys, "realize", "--n", "3", "--r", "2", "--monic", "-6,11,-6"
    )
    assert code == 0
    payload = json.loads(out)
    eigs = sorted(z[0] for z in payload["spectrum"])
    assert eigs == pytest.approx([1.0, 2.0, 3.0], abs=1e-6)
    assert payload["residual"] <= 1e-8


def test_realize_eigs_nilpotent_echo(capsys):
    code, out, _ = run(capsys, "realize", "--n", "4", "--r", "2", "--eigs", "0,0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["scaling_c"] == 1.0
    assert payload["residual"] <= 1e-10


def test_realize_complex_eigs(capsys):
    code, out, _ = run(
        capsys, "realize", "--n", "4", "--r", "2", "--eigs", "1+2i,1-2i,-1,-3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-8 * 13  # |alpha|_inf for this target
    pairs = {(round(re, 6), round(im, 6)) for re, im in payload["spectrum"]}
    assert (1.0, 2.0) in pairs and (1.0, -2.0) in pairs


@pytest.mark.parametrize(
    "n, eigs",
    [
        ("3", "1+2i,3,4"),
        # |Im z| above the real-axis cut but within the pairing tolerance:
        # z must not be taken as its own conjugate partner
        ("2", "1+1e-11i,2"),
        ("3", "1+1e-11i,2,3"),
    ],
)
def test_realize_non_conjugate_spectrum_rejected(capsys, n, eigs):
    code, _, err = run(capsys, "realize", "--n", n, "--r", "2", "--eigs", eigs)
    assert code == 64
    assert "self-conjugate" in err
    assert "Traceback" not in err


def test_realize_wrong_count(capsys):
    code, _, err = run(capsys, "realize", "--n", "3", "--r", "2", "--monic", "1,2")
    assert code == 64


def test_msap_2_2(capsys):
    code, out, _ = run(capsys, "msap", "--n", "2", "--r", "2", "--samples", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert len(payload["deletions"]) == 4


def test_njverify_basic_example(capsys, tmp_path):
    pat = tmp_path / "ex22.sgn"
    mat = tmp_path / "ex22.mat"
    pat.write_text(EX22_SGN)
    mat.write_text(EX22_MAT)
    code, out, _ = run(
        capsys,
        "njverify",
        "--pattern",
        str(pat),
        "--matrix",
        str(mat),
        "--positions",
        "1,1,2,2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["jacobian_det"] == pytest.approx(2.0, abs=1e-9)
    assert payload["conclusion"] == "SAP_certified"
    assert payload["positions"] == [[1, 1], [2, 2]]


def test_njverify_parse_error_exit_65(capsys, tmp_path):
    pat = tmp_path / "bad.sgn"
    mat = tmp_path / "ex22.mat"
    pat.write_text("2 2\n+x\n+-\n")
    mat.write_text(EX22_MAT)
    code, _, err = run(
        capsys,
        "njverify",
        "--pattern",
        str(pat),
        "--matrix",
        str(mat),
        "--positions",
        "1,1,2,2",
    )
    assert code == 65
    assert "line 2" in err


@pytest.mark.parametrize("extra, found", [("1 -1\n", 3), ("\n1 -1\n", 4)])
def test_njverify_matrix_with_extra_rows_exit_65(capsys, tmp_path, extra, found):
    pat = tmp_path / "ex22.sgn"
    mat = tmp_path / "long.mat"
    pat.write_text(EX22_SGN)
    mat.write_text(EX22_MAT + extra + "\n \n")
    code, out, err = run(
        capsys,
        "njverify",
        "--pattern",
        str(pat),
        "--matrix",
        str(mat),
        "--positions",
        "1,1,2,2",
    )
    assert code == 65
    assert out == ""
    assert err == f"sapcert: {mat}: expected 2 matrix rows, found {found}\n"


def test_closed_stdout_exits_74_without_a_traceback():
    # sweep --n-max 60 writes about 157 KB of CSV, more than a pipe buffer,
    # so the process is still writing when the reader closes the pipe
    src = os.path.dirname(os.path.dirname(sapcert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen(
        [sys.executable, "-m", "sapcert.cli", "--format", "csv", "sweep", "--n-max", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        try:
            assert proc.stdout.readline().startswith(b"n,r,t_h,")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
    assert code == 74
    assert err == b""


@pytest.mark.parametrize("value", ["nan", "1e999", "-inf"])
def test_njverify_non_finite_matrix_entry_exit_65(capsys, tmp_path, value):
    pat = tmp_path / "ex22.sgn"
    mat = tmp_path / "bad.mat"
    pat.write_text(EX22_SGN)
    mat.write_text(f"2 2\n1 -1\n{value} -1\n")
    code, out, err = run(
        capsys,
        "njverify",
        "--pattern",
        str(pat),
        "--matrix",
        str(mat),
        "--positions",
        "1,1,2,2",
    )
    assert code == 65
    assert out == ""
    assert err == f"sapcert: {mat}: line 3, column 1: non-finite number {value!r}\n"


def test_njverify_missing_file_exit_65(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "njverify",
        "--pattern",
        str(tmp_path / "none.sgn"),
        "--matrix",
        str(tmp_path / "none.mat"),
        "--positions",
        "1,1,2,2",
    )
    assert code == 65


@pytest.mark.parametrize("kind", ["pattern", "matrix"])
def test_njverify_non_utf8_file_exit_65(capsys, tmp_path, kind):
    files = {"pattern": tmp_path / "ex22.sgn", "matrix": tmp_path / "ex22.mat"}
    files["pattern"].write_text(EX22_SGN)
    files["matrix"].write_text(EX22_MAT)
    files[kind].write_bytes(b"\xff\xfe" + files[kind].read_bytes())
    code, out, err = run(
        capsys,
        "njverify",
        "--pattern",
        str(files["pattern"]),
        "--matrix",
        str(files["matrix"]),
        "--positions",
        "1,1,2,2",
    )
    assert code == 65
    assert out == ""
    assert err.startswith(f"sapcert: {files[kind]}: not UTF-8 text: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "--format", "csv", "sweep", "--n-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,r,t_h")
    # cells: (3,2),(4,2),(4,3),(5,2),(5,3),(5,4)
    assert len(lines) == 1 + 6
    assert lines[1].startswith("3,2,0.5,")


def test_sweep_deterministic(capsys):
    _, out1, _ = run(capsys, "--format", "csv", "--seed", "7", "sweep", "--n-max", "6")
    _, out2, _ = run(capsys, "--format", "csv", "--seed", "7", "sweep", "--n-max", "6")
    assert out1 == out2


def test_sweep_json_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "4")
    assert code == 0
    rows = json.loads(out)
    assert [(row["n"], row["r"]) for row in rows] == [(3, 2), (4, 2), (4, 3)]
    assert all(row["msap_verdict"] for row in rows)


def test_sweep_draws_no_samples(capsys, monkeypatch):
    argv = ("--format", "csv", "sweep", "--n-max", "8")
    _, expected, _ = run(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("sweep drew samples")

    monkeypatch.setattr(minimality, "_sample_parameters", refuse)
    monkeypatch.setattr(minimality, "confirm_fixed_sign", refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_text_format(capsys):
    code, out, _ = run(capsys, "--format", "text", "nilpotent", "--n", "3", "--r", "2")
    assert code == 0
    assert "t_h" in out and "0.5" in out


def test_csv_format_single_command(capsys):
    code, out, _ = run(capsys, "--format", "csv", "jacobian", "--n", "3", "--r", "2")
    assert code == 0
    assert out.startswith("key,value")
    assert "det_lu,2" in out


def test_global_flags_accepted_after_command(capsys):
    _, out1, _ = run(capsys, "sweep", "--n-max", "4", "--seed", "7", "--format", "csv")
    _, out2, _ = run(capsys, "--format", "csv", "--seed", "7", "sweep", "--n-max", "4")
    assert out1 == out2
    assert out1.startswith("n,r,")


def test_precision_flag_round_trips(capsys):
    code, out, _ = run(
        capsys, "nilpotent", "--n", "5", "--r", "2", "--precision", "extended"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t_h"] == 1 / 3
    assert payload["residual"] == 0.0  # exact rational at the exact root


_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from sapcert.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(results))
"""


def test_main_called_again_in_one_process_answers_as_separate_processes():
    # the parser is built on the first call and reused by the next ones
    src = os.path.dirname(os.path.dirname(sapcert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argvs = [
        ["nilpotent", "--n", "3"],  # missing --r: a usage error
        ["--version"],
        ["--format", "csv", "sweep", "--n-max", "5"],
    ]
    separate = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "sapcert.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        separate.append([proc.stdout, proc.stderr, proc.returncode])
    proc = subprocess.run(
        [sys.executable, "-c", _IN_ONE_PROCESS, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [code for _, _, code in separate] == [64, 0, 0]
    assert json.loads(proc.stdout) == separate
