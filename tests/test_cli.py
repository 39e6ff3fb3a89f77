import json
import subprocess
import sys
import warnings

import pytest

from phimin import cli, search
from phimin.intervals import SmallKWarning


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "phimin", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


class TestOracleCommand:
    def test_found(self):
        r = run_cli("oracle", "--m", "3", "--a", "2")
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        assert rec["N"] == 3 and rec["found"]
        assert rec["schema_version"] == 1

    def test_a_one(self):
        r = run_cli("oracle", "--m", "3", "--a", "1")
        assert r.returncode == 0
        assert json.loads(r.stdout)["N"] == 1

    def test_even_modulus_exit_2(self):
        r = run_cli("oracle", "--m", "4", "--a", "3")
        assert r.returncode == 2
        assert "even" in r.stderr

    def test_not_found_exit_3(self):
        r = run_cli("oracle", "--m", "5", "--a", "3", "--cap", "10")
        assert r.returncode == 3
        rec = json.loads(r.stdout)
        assert rec["N"] is None and not rec["found"]

    def test_csv_format(self):
        r = run_cli("oracle", "--m", "5", "--a", "3", "--format", "csv")
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "m,a,cap,found,N,exponent"
        assert lines[1].startswith("5,3,125,true,15,")

    def test_missing_flag_exit_2(self):
        r = run_cli("oracle", "--m", "3")
        assert r.returncode == 2

    def test_non_reduced_exit_2(self):
        r = run_cli("oracle", "--m", "9", "--a", "3")
        assert r.returncode == 2


class TestSearchCommand:
    def test_found_42(self):
        r = run_cli("search", "--m", "5", "--a", "2", "--k", "2")
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        assert rec["n"] == 42 and rec["p1"] == 7

    def test_not_found_exit_3(self):
        r = run_cli("search", "--m", "5", "--a", "1", "--k", "2")
        assert r.returncode == 3
        assert json.loads(r.stdout)["found"] is False

    def test_missing_m_exit_2(self):
        r = run_cli("search", "--a", "1")
        assert r.returncode == 2

    def test_small_k_warning_is_one_line(self):
        r = run_cli("search", "--m", "5", "--a", "2", "--k", "2")
        assert r.returncode == 0
        assert r.stderr == (
            "phimin: warning: k=2 below 10: asymptotic exponents degrade, "
            "identities are unaffected\n"
        )
        assert run_cli("search", "--m", "1031", "--a", "2", "--k", "10").stderr == ""

    def test_warnings_shown_when_command_raises(self, monkeypatch, capsys):
        def failing(args):
            warnings.warn("k=2 below 10: x", SmallKWarning)
            warnings.warn("other", UserWarning)
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_search", failing)
        with pytest.warns(UserWarning, match="other"), pytest.raises(RuntimeError):
            cli.main(["search", "--m", "5", "--a", "2"])
        assert capsys.readouterr().err == "phimin: warning: k=2 below 10: x\n"


class TestCountCommand:
    def test_mod5_report(self):
        r = run_cli("count", "--m", "5", "--a", "2", "--k", "2")
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        assert rec["J_direct"] == 1
        assert abs(rec["J_characters"] - 1) < 1e-9
        assert rec["delta"] == 0

    def test_zero_count(self):
        r = run_cli("count", "--m", "5", "--a", "1", "--k", "2")
        rec = json.loads(r.stdout)
        assert rec["J_direct"] == 0

    def test_psi_term_present(self):
        r = run_cli("count", "--m", "15", "--a", "2", "--k", "2")
        rec = json.loads(r.stdout)
        assert "psi_term" in rec and rec["delta"] == 1

    def test_report_schema(self):
        r = run_cli("count", "--m", "9", "--a", "2", "--k", "3")
        rec = json.loads(r.stdout)
        want = {
            "schema_version", "command", "m", "a", "k", "delta", "J_direct",
            "J_characters", "main_term", "psi_term", "S_small", "S_large",
            "threshold", "certified",
        }
        assert set(rec) == want


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exit_2(self, value, capsys):
        argv = ["count", "--m", "301", "--a", "2", f"--threshold={value}"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            f"\nphimin: threshold must be finite and >= 1, got {float(value)}\n"
        )


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "suite", ["constant", "identity", "rho", "parseval", "lemma1"]
    )
    def test_suites_pass(self, suite):
        r = run_cli("verify", "--suite", suite)
        assert r.returncode == 0, r.stdout + r.stderr
        lines = [json.loads(line) for line in r.stdout.strip().splitlines()]
        assert lines[-1]["passed"] is True
        assert all(rec["holds"] for rec in lines[:-1])
        for rec in lines[:-1]:
            assert {"check", "inputs", "lhs", "rhs", "holds"} <= set(rec)

    def test_unknown_suite_exit_2(self):
        r = run_cli("verify", "--suite", "nope")
        assert r.returncode == 2

    def test_failing_check_exits_4(self, monkeypatch, capsys):
        from phimin import cli

        monkeypatch.setitem(
            cli._VERIFY_SUITES,
            "rho",
            lambda: [
                {"check": "x", "inputs": {}, "lhs": 1, "rhs": 0, "holds": False}
            ],
        )
        assert cli.main(["verify", "--suite", "rho"]) == 4


class TestScanCommand:
    def test_csv_to_stdout(self):
        r = run_cli("scan", "--m-range", "9:13:2", "--a-sample", "2", "--k", "3")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "m,a,delta,N,N_exponent,witness_n,witness_exponent,J_direct,found"
        assert len(lines) == 1 + 3 * 2

    def test_jobs_byte_identical(self, tmp_path):
        out1, out8 = tmp_path / "j1.csv", tmp_path / "j8.csv"
        r1 = run_cli(
            "scan", "--m-range", "51:71:2", "--a-sample", "4",
            "--jobs", "1", "--out", str(out1),
        )
        r8 = run_cli(
            "scan", "--m-range", "51:71:2", "--a-sample", "4",
            "--jobs", "8", "--out", str(out8),
        )
        assert r1.returncode == 0 and r8.returncode == 0
        assert out1.read_bytes() == out8.read_bytes()
        assert json.loads(r1.stdout)["rows"] == json.loads(r8.stdout)["rows"]

    def test_malformed_range_exit_2(self):
        assert run_cli("scan", "--m-range", "zz").returncode == 2
        assert run_cli("scan", "--m-range", "9:5").returncode == 2
        assert run_cli("scan", "--m-range", "9:11:0").returncode == 2

    def test_even_m_exit_2(self):
        assert run_cli("scan", "--m-range", "8:12:2").returncode == 2

    def test_summary_written(self, tmp_path):
        out = tmp_path / "scan.csv"
        r = run_cli("scan", "--m-range", "9:9:2", "--a-sample", "all",
                    "--k", "3", "--out", str(out))
        rec = json.loads(r.stdout)
        assert rec["command"] == "scan" and rec["rows"] == 6
        assert out.exists()


# the sieve is sized from these inputs, so they must be rejected first
@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--m", "3", "--a", "2", "--cap", "-5"],
        ["oracle", "--m", "-3", "--a", "1"],
        ["search", "--m", "9", "--a", "2", "--k", "0"],
        ["count", "--m", "9", "--a", "2", "--k", "0"],
        ["count", "--m", "-3", "--a", "1"],
        ["scan", "--m-range", "51:53", "--a-sample", "abc"],
        ["scan", "--m-range", "51:53", "--k", "0"],
        # int64 cannot stream to this cap; sizing its sieve would take GBs
        ["oracle", "--m", "3", "--a", "2", "--cap", str(2**63)],
    ],
)
def test_bad_input_exits_2_before_sieving(argv, monkeypatch, capsys):
    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} built")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    monkeypatch.setattr(search, "build_sieve", no_sieve)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("phimin: ") and out == ""


class TestEnvConfig:
    def test_tl_jobs_env(self, tmp_path):
        out = tmp_path / "s.csv"
        r = run_cli(
            "scan", "--m-range", "9:11:2", "--a-sample", "2", "--k", "3",
            "--out", str(out), env={"TL_JOBS": "2"},
        )
        assert r.returncode == 0
