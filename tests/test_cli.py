import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

from groupalg import cli
from groupalg.field import make_field
from groupalg.linalg import FMatrix, rank

S3_ORDER = ["--group", "symmetric:3", "--order", "src/groupalg/data/s3_paper.cayley"]
S3_F5 = [*S3_ORDER, "--field", "gf:5"]
C6_F2 = ["--group", "cyclic:6", "--field", "gf:2", "--elem", "1:1,4:1"]

# Golden CLI set: every command in both renderings.  Each case runs as given
# and with --json; tests/data/cli_golden.json holds the expected exit code,
# stdout and stderr, with the text-mode elapsed line masked.
GOLDEN_CASES = {
    "dim-rank": ["dim", *S3_F5, "--elem", "1:1,2:1"],
    "dim-rank-right-dump": ["dim", *S3_F5, "--side", "right", "--elem", "1:1,2:1",
                            "--elem", "3:2", "--dump-matrix"],
    "dim-bound-exact": ["dim", *S3_F5, "--method", "charpoly-bound", "--elem", "1:3,2:3"],
    "dim-bound-inexact": ["dim", *S3_F5, "--method", "charpoly-bound", "--elem", "1:1,2:1"],
    "dim-mulmuley-exact": ["dim", "--group", "dihedral:3", "--field", "gf:5",
                           "--elem", "1:1,4:2", "--method", "mulmuley-exact"],
    "dim-mulmuley-random": ["dim", "--group", "dihedral:3", "--field", "gf:5",
                            "--elem", "1:1,4:2", "--method", "mulmuley-random",
                            "--trials", "4", "--seed", "11"],
    "dim-zero-ideal": ["dim", "--group", "cyclic:4", "--field", "gf:2", "--elem", ""],
    "dim-ext-inline": ["dim", "--group", "cyclic:3", "--field", "gf:2^2", "--elem", "1:1"],
    "bound-dump": ["bound", *S3_F5, "--elem", "1:1,2:1", "--dump-matrix"],
    "idempotent-left-dump": ["idempotent", *S3_F5, "--elem", "1:1,2:1", "--dump-matrix"],
    "idempotent-right-dump": ["idempotent", *S3_F5, "--side", "right",
                              "--elem", "1:1,2:1", "--dump-matrix"],
    "idempotent-none": ["idempotent", "--group", "product:cyclic:2,cyclic:2",
                        "--field", "gf:2", "--elem", "1:1,2:1"],
    "annihilator-left": ["annihilator", *S3_F5, "--side", "left", "--elem", "1:1,2:1"],
    "annihilator-right": ["annihilator", *S3_F5, "--elem", "1:1,2:1"],
    "charpoly-dump": ["charpoly", *S3_F5, "--side", "right", "--elem", "1:1,3:2",
                      "--dump-matrix"],
    "code-dump": ["code", *C6_F2, "--dump-matrix"],
    "code-budget-skip": ["code", *C6_F2, "--budget", "4"],
    "group-show-dump": ["group-show", "--group", "dihedral:3", "--dump-matrix"],
    "group-show-order-mismatch": ["group-show", "--group", "cyclic:4",
                                  "--order", "src/groupalg/data/s3_paper.cayley"],
    "selftest-klein": ["selftest", "--filter", "klein"],
}
GOLDEN_FILE = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
ELAPSED = re.compile(r"^elapsed = \d+\.\d{3}s$", re.M)


def golden_runs():
    """(id, argv) for every golden case in text and --json rendering."""
    for name, argv in GOLDEN_CASES.items():
        yield name, argv
        yield f"{name} --json", [*argv, "--json"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_golden_cli_output(capsys):
    expected = json.loads(GOLDEN_FILE.read_text())
    assert sorted(expected) == sorted(key for key, _ in golden_runs())
    for key, argv in golden_runs():
        code, out, err = run_cli(capsys, *argv)
        got = {"code": code, "stdout": ELAPSED.sub("elapsed = <masked>", out),
               "stderr": err}
        assert got == expected[key], key


def test_dim_paper_ordering(capsys):
    code, out, err = run_cli(capsys, "dim", *S3_ORDER,
                             "--field", "gf:5", "--side", "left",
                             "--elem", "1:1,2:1")
    assert code == 0 and err == ""
    assert "dim = 3" in out
    assert "method = rank" in out
    assert out.splitlines()[-1].startswith("elapsed = ")


def test_dim_cyclic_inline(capsys):
    code, out, _ = run_cli(capsys, "dim", "--group", "cyclic:6",
                           "--field", "gf:2", "--elem", "1:1,4:1")
    assert code == 0
    assert "dim = 3" in out


def test_dim_zero_ideal_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "dim", "--group", "cyclic:4",
                             "--field", "gf:2", "--elem", "")
    assert code == 3
    assert out == ""  # no partial result
    assert "zero ideal" in err


def test_mulmuley_beyond_the_extension_limit_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "dim", "--group", "cyclic:1024", "--field", "gf:2",
                             "--elem", "1:1,2:1", "--method", "mulmuley-random")
    assert code == 3
    assert out == ""
    assert "2^21 elements, beyond the table limit 2^20" in err


def test_dim_methods_agree(capsys):
    base = ["dim", "--group", "dihedral:3", "--field", "gf:5",
            "--elem", "1:1,4:2", "--json"]
    records = {}
    for method in ("rank", "mulmuley-exact", "mulmuley-random"):
        code, out, _ = run_cli(capsys, *base, "--method", method)
        assert code == 0
        records[method] = json.loads(out)
    dims = {m: r["dim"] for m, r in records.items()}
    assert len(set(dims.values())) == 1
    assert records["mulmuley-random"]["seed"] == 0
    assert records["mulmuley-random"]["trials"] == 3


def test_dim_mulmuley_at_the_largest_prime(capsys):
    # the matrix enters gf:2147483647 by identity; no per-element table is built
    for method in ("mulmuley-exact", "mulmuley-random"):
        code, out, err = run_cli(capsys, "dim", "--method", method, "--field", "gf:2147483647",
                                 "--group", "cyclic:4", "--elem", "1:1,2:1", "--json")
        assert (code, err) == (0, ""), method
        assert json.loads(out)["dim"] == 3, method


def test_dim_charpoly_bound_and_bound_alias(capsys):
    argv = [*S3_ORDER, "--field", "gf:5", "--elem", "1:1,2:1", "--json"]
    code, out1, _ = run_cli(capsys, "dim", "--method", "charpoly-bound", *argv)
    assert code == 0
    rec = json.loads(out1)
    assert rec["charpoly"] == "0 0 0 2 2 4 1"
    assert rec["k"] == 3 and rec["lower"] == 3 and rec["upper"] == 5
    assert rec["exact"] is False and rec["dim"] is None
    code, out2, _ = run_cli(capsys, "bound", *argv)
    assert code == 0
    assert json.loads(out2)["k"] == 3


def test_bound_reports_dim_when_the_bounds_meet(capsys):
    code, out, _ = run_cli(capsys, "bound", "--group", "cyclic:4", "--field", "gf:3",
                           "--elem", "1:1,2:1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert (rec["k"], rec["lower"], rec["upper"]) == (1, 3, 3)
    assert rec["exact"] is True and rec["dim"] == 3


def test_json_output_is_byte_stable(capsys):
    argv = ["dim", "--group", "cyclic:6", "--field", "gf:2",
            "--elem", "1:1,4:1", "--method", "mulmuley-random",
            "--trials", "3", "--seed", "11", "--json"]
    code, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code == code2 == 0
    assert out1 == out2
    assert out1.count("\n") == 1  # single-line record
    rec = json.loads(out1)
    assert rec["dim"] == 3 and rec["seed"] == 11
    assert list(rec) == sorted(rec)


def test_idempotent_paper_example(capsys):
    code, out, _ = run_cli(capsys, "idempotent", *S3_ORDER,
                           "--field", "gf:5", "--elem", "1:1,2:1")
    assert code == 0
    assert "e = 3 + 3*(12)" in out
    assert "e (element format) = 1:3 2:3" in out
    assert "e*e == e: True" in out
    assert "f*e == f: True" in out


def test_idempotent_of_unit(capsys):
    code, out, _ = run_cli(capsys, "idempotent", "--group", "symmetric:3",
                           "--field", "gf:5", "--elem", "1:1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["e"] == ["1:1"]
    assert rec["idempotent"] is True and rec["fixes_f"] is True


def test_idempotent_none_case(capsys):
    code, out, _ = run_cli(capsys, "idempotent", "--group",
                           "product:cyclic:2,cyclic:2", "--field", "gf:2",
                           "--elem", "1:1,2:1")
    assert code == 0
    assert "e = none" in out


def test_idempotent_right_side_label(capsys):
    code, out, _ = run_cli(capsys, "idempotent", *S3_ORDER, "--field", "gf:5",
                           "--side", "right", "--elem", "1:1,2:1")
    assert code == 0
    assert "e*f == f: True" in out


def test_annihilator(capsys):
    code, out, _ = run_cli(capsys, "annihilator", "--group", "cyclic:6",
                           "--field", "gf:2", "--elem", "1:1,4:1")
    assert code == 0
    assert "side = right" in out  # annihilator defaults to the right side
    assert "count = 3" in out
    assert "a1 = " in out and "a3 = " in out
    code, out, _ = run_cli(capsys, "annihilator", "--group", "cyclic:6",
                           "--field", "gf:2", "--elem", "1:1,4:1", "--json")
    rec = json.loads(out)
    assert rec["count"] == 3 and len(rec["basis"]) == 3


def test_annihilator_dump_matrix_has_complementary_rank(capsys):
    for side in ("left", "right"):
        argv = ["annihilator", *S3_F5, "--side", side, "--elem", "1:1,4:1,5:1",
                "--dump-matrix"]
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        rec = json.loads(out)
        mat = FMatrix.from_text(make_field(5), rec["matrix"])
        assert mat.rows == mat.cols == rec["n"] == 6
        assert rec["count"] == 2 and rank(mat) == rec["n"] - rec["count"], side
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert f"matrix:\n{rec['matrix']}elapsed = " in out


def test_charpoly_command(capsys):
    code, out, _ = run_cli(capsys, "charpoly", *S3_ORDER, "--field", "gf:5",
                           "--elem", "1:1,2:1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["charpoly"] == "0 0 0 2 2 4 1"
    assert rec["k"] == 3


def test_charpoly_dump_matrix(capsys):
    code, out, _ = run_cli(capsys, "charpoly", *S3_ORDER, "--field", "gf:5",
                           "--elem", "1:1,2:1", "--dump-matrix")
    assert code == 0
    assert "matrix:" in out
    assert "6 6" in out
    # the matrix of 1+(12) under the fixture ordering, row by row
    rows = out[out.index("matrix:"):].splitlines()[2:8]
    assert rows == ["1 1 0 0 0 0", "1 1 0 0 0 0", "0 0 1 0 0 1",
                    "0 0 0 1 1 0", "0 0 0 1 1 0", "0 0 1 0 0 1"]


def test_code_cyclic(capsys):
    code, out, _ = run_cli(capsys, "code", "--group", "cyclic:6",
                           "--field", "gf:2", "--elem", "1:1,4:1")
    assert code == 0
    lines = out.splitlines()
    head = [ln for ln in lines if ln.startswith("[")][0]
    assert head == "[6,3] d=2"
    gi = lines.index("genmat:")
    pi = lines.index("paritymat:")
    assert lines[gi + 1:gi + 4] == ["1 0 0 1 0 0", "0 1 0 0 1 0", "0 0 1 0 0 1"]
    assert lines[pi + 1:pi + 4] == lines[gi + 1:gi + 4]


def test_code_scalar_ideal(capsys):
    code, out, _ = run_cli(capsys, "code", *S3_ORDER, "--field", "gf:5",
                           "--elem", "1:1,2:1,3:1,4:1,5:1,6:1")
    assert code == 0
    assert "[6,1] d=6" in out


def test_code_budget_skip(capsys):
    code, out, _ = run_cli(capsys, "code", "--group", "cyclic:6",
                           "--field", "gf:2", "--elem", "1:1,4:1",
                           "--budget", "4")
    assert code == 0
    lines = out.splitlines()
    head = [ln for ln in lines if ln.startswith("[")][0]
    assert head == "[6,3]"
    assert "d skipped: q^k = 8 exceeds budget 4" in out
    code, out, _ = run_cli(capsys, "code", "--group", "cyclic:6",
                           "--field", "gf:2", "--elem", "1:1,4:1",
                           "--budget", "4", "--json")
    rec = json.loads(out)
    assert rec["d"] is None
    assert rec["d_skipped"] == "q^k = 8 exceeds budget 4"


def test_code_negative_budget_is_a_spec_error(capsys):
    code, out, err = run_cli(capsys, "code", *C6_F2, "--budget", "-5")
    assert code == 2
    assert out == "" and "--budget: budget must be >= 0, got -5" in err
    code, out, _ = run_cli(capsys, "code", *C6_F2, "--budget", "0")  # 0 skips d
    assert code == 0
    assert "d skipped: q^k = 8 exceeds budget 0" in out


def test_code_zero_ideal(capsys):
    code, out, err = run_cli(capsys, "code", "--group", "cyclic:4",
                             "--field", "gf:2", "--elem", "")
    assert code == 3
    assert out == "" and "zero ideal" in err


def test_group_show(capsys):
    code, out, _ = run_cli(capsys, "group-show", "--group", "dihedral:4")
    assert code == 0
    assert "n = 8" in out
    assert "commutative = False" in out
    assert "labels = 1 r r^2 r^3 s sr sr^2 sr^3" in out
    assert "validation (fast) = ok" in out
    code, out, _ = run_cli(capsys, "group-show", "--group", "cyclic:3",
                           "--dump-matrix", "--json")
    rec = json.loads(out)
    assert rec["cayley"] == "3\n1 g g^2\n1 2 3\n2 3 1\n3 1 2\n"


def test_elem_file_source(capsys, tmp_path):
    path = tmp_path / "gen.elem"
    path.write_text("1:1\n4:1\n")
    code, out, _ = run_cli(capsys, "dim", "--group", "cyclic:6",
                           "--field", "gf:2", "--elem-file", str(path))
    assert code == 0
    assert "dim = 3" in out
    # inline and file generators accumulate
    code, out, _ = run_cli(capsys, "dim", "--group", "cyclic:6",
                           "--field", "gf:2", "--elem-file", str(path),
                           "--elem", "2:1,5:1", "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_selftest_all_pass(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert all(ln.startswith("PASS ") for ln in lines[:-1])
    total = len(lines) - 1
    assert lines[-1] == f"{total}/{total} fixtures passed"
    assert total >= 9


def test_selftest_filter(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--filter", "klein")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all("klein" in ln for ln in lines[:2])


def test_selftest_filter_no_match(capsys):
    code, out, err = run_cli(capsys, "selftest", "--filter",
                             "no-such-fixture")
    assert code == 2
    assert "no fixture matches" in err


def test_selftest_corrupted_fixture(capsys, monkeypatch):
    import groupalg.selftest as st
    real = st._read_fixture_text

    def corrupted():
        return real().replace("5 4 2 3 6 1", "5 4 2 3 6 6", 1)

    monkeypatch.setattr(st, "_read_fixture_text", corrupted)
    code, out, _ = run_cli(capsys, "selftest", "--filter", "cayley-file")
    assert code == 1
    assert "FAIL s3-cayley-file" in out


def test_selftest_json(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["failed"] == 0
    assert rec["passed"] == len(rec["results"])


def test_usage_errors_name_the_flag(capsys):
    cases = [
        (["dim", "--group", "cyclic:4", "--field", "gf:6", "--elem", "1:1"],
         "--field"),
        (["dim", "--group", "wedge:3", "--field", "gf:2", "--elem", "1:1"],
         "--group"),
        (["dim", "--group", "cyclic:4", "--order", "src/groupalg/data/s3_paper.cayley",
          "--field", "gf:2", "--elem", "1:1"], "--order"),
        (["dim", "--group", "cyclic:4", "--field", "gf:2",
          "--elem", "9:1"], "--elem '9:1'"),
        (["dim", "--group", "cyclic:4", "--field", "gf:2",
          "--elem-file", "/no/such.elem"], "--elem-file"),
    ]
    for argv, token in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert token in err, (argv, err)


def test_usage_errors_generator_counts(capsys):
    code, _, err = run_cli(capsys, "dim", "--group", "cyclic:4",
                           "--field", "gf:2")
    assert code == 2 and "--elem" in err
    code, _, err = run_cli(capsys, "idempotent", "--group", "cyclic:4",
                           "--field", "gf:2", "--elem", "1:1", "--elem", "2:1")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "dim", "--group", "cyclic:4",
                           "--field", "gf:2", "--elem", "1:1", "--elem", "2:1",
                           "--method", "mulmuley-exact")
    assert code == 2 and "exactly one" in err


def test_argparse_level_errors(capsys):
    assert cli.main([]) == 2  # missing command
    capsys.readouterr()
    assert cli.main(["dim", "--group", "cyclic:4", "--elem", "1:1"]) == 2
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
    assert cli.main(["dim", "--group", "cyclic:4", "--field", "gf:2",
                     "--elem", "1:1", "--method", "guess"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("groupalg ")


def test_console_script_smoke():
    exe = shutil.which("groupalg")
    if exe is not None:
        cmd, env = [exe], None
    else:  # not installed: run the module from the source tree
        cmd, env = [sys.executable, "-m", "groupalg.cli"], {**os.environ, "PYTHONPATH": "src"}

    def run(*argv):
        return subprocess.run([*cmd, *argv], capture_output=True, text=True, env=env)

    proc = run("dim", "--group", "cyclic:6", "--field", "gf:2", "--elem", "1:1,4:1", "--json")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["dim"] == 3
    proc = run("dim", "--group", "cyclic:6", "--field", "gf:6", "--elem", "1:1")
    assert proc.returncode == 2 and "--field" in proc.stderr
    proc = run("dim", "--group", "cyclic:4", "--field", "gf:2", "--elem", "")
    assert proc.returncode == 3 and proc.stdout == ""
