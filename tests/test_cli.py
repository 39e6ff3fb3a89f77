import hashlib
import json
import pathlib
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

    # main looks each command up by name when it runs, so every cmd_* can be
    # replaced after import
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--m", "5", "--a", "2"],
            ["search", "--m", "5", "--a", "2"],
            ["count", "--m", "5", "--a", "2"],
            ["verify", "--suite", "rho"],
            ["scan", "--m-range", "9:11"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_warnings_shown_when_command_raises(self, argv, monkeypatch, capsys):
        def failing(args):
            warnings.warn("k=2 below 10: x", SmallKWarning)
            warnings.warn("other", UserWarning)
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", failing)
        with pytest.warns(UserWarning, match="other"), pytest.raises(RuntimeError):
            cli.main(argv)
        assert capsys.readouterr().err == "phimin: warning: k=2 below 10: x\n"

    def test_parser_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert cli.main(["search", "--m", "1031", "--a", "2", "--k", "10"]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_usage_error_leaves_parser_unchanged(self, capsys):
        # the failed parse sets --k before it stops, and the valid call
        # leaves --k at its default
        valid = ["search", "--m", "1031", "--a", "2"]
        cli.build_parser.cache_clear()
        assert cli.main(valid) == 0
        alone = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--k", "10", "--m", "7", "--a", "two"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(valid) == 0
        assert capsys.readouterr().out == alone
        assert cli.build_parser.cache_info().misses == 1


# stdout of `phimin count` at a = 2, k = 2 for the benchmark moduli, frozen
# before the character side moved onto IntervalTriple.  Floats are held to
# 12 significant digits: the FFT's last bits differ between numpy's pocketfft
# releases, and the package supports numpy >= 1.25.  The m = 100003 line was
# frozen before the sieve became one segmented pass; its sieve limit,
# 31,624,201, spans 4 segments of 2^22 odd numbers, so it pins that path
# end to end.
GOLDEN_COUNT = [
    (
        "--m 2003 --a 2 --k 2",
        '{"schema_version": 1, "command": "count", "m": 2003, "a": 2, "k": 2, '
        '"delta": 0, "J_direct": 1614, "J_characters": 1614.0000000000002, '
        '"main_term": 1638.113886113886, "psi_term": 0.0, '
        '"S_small": 1857941.55698307, "S_large": 0.0, "threshold": 2003.0, '
        '"certified": true}',
    ),
    (
        "--m 3003 --a 2 --k 2",
        '{"schema_version": 1, "command": "count", "m": 3003, "a": 2, "k": 2, '
        '"delta": 1, "J_direct": 404, "J_characters": 404.00000000000006, '
        '"main_term": 429.68888888888887, "psi_term": 214.84444444444443, '
        '"S_small": 581382.6243110308, "S_large": 0.0, "threshold": 3003.0, '
        '"certified": false}',
    ),
    (
        "--m 2187 --a 2 --k 2",
        '{"schema_version": 1, "command": "count", "m": 2187, "a": 2, "k": 2, '
        '"delta": 1, "J_direct": 433, "J_characters": 433.0, '
        '"main_term": 457.02606310013715, "psi_term": 228.51303155006858, '
        '"S_small": 436371.0064531358, "S_large": 0.0, "threshold": 2187.0, '
        '"certified": false}',
    ),
    (
        "--m 3125 --a 2 --k 2",
        '{"schema_version": 1, "command": "count", "m": 3125, "a": 2, "k": 2, '
        '"delta": 0, "J_direct": 1823, "J_characters": 1823.0, '
        '"main_term": 1679.422, "psi_term": 0.0, "S_small": 3121300.4831769345, '
        '"S_large": 0.0, "threshold": 3125.0, "certified": true}',
    ),
    (
        "--m 3003 --a 2 --k 2 --threshold 7",
        '{"schema_version": 1, "command": "count", "m": 3003, "a": 2, "k": 2, '
        '"delta": 1, "J_direct": 404, "J_characters": 404.00000000000006, '
        '"main_term": 429.68888888888887, "psi_term": 214.84444444444443, '
        '"S_small": 34689.43925956425, "S_large": 546693.1850514667, '
        '"threshold": 7.0, "certified": false}',
    ),
    (
        "--m 100003 --a 2 --k 2",
        '{"schema_version": 1, "command": "count", "m": 100003, "a": 2, "k": 2, '
        '"delta": 0, "J_direct": 1166322, "J_characters": 1166321.9999999993, '
        '"main_term": 1164220.4675906482, "psi_term": 0.0, '
        '"S_small": 18330757577.460464, "S_large": 0.0, "threshold": 100003.0, '
        '"certified": true}',
    ),
]


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

    @pytest.mark.parametrize("flags, line", GOLDEN_COUNT)
    def test_golden_output(self, flags, line, capsys):
        assert cli.main(["count", *flags.split()]) == 0
        got, want = json.loads(capsys.readouterr().out), json.loads(line)
        assert list(got) == list(want)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exit_2(self, value, capsys):
        argv = ["count", "--m", "301", "--a", "2", f"--threshold={value}"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            f"\nphimin: threshold must be finite and >= 1, got {float(value)}\n"
        )


# `phimin verify` records of every suite, frozen before the records were
# built by one helper.  `lhs` is a rounding residue on most checks, so it is
# not pinned there; the Rakhmonov `lhs`, the worst ratio |S(chi)|/bound, is
# a computed quantity and is pinned, frozen from the per-character route
# before the characters became columns of the discrete-log grid.  Every
# pinned float is held to 12 significant digits, as in GOLDEN_COUNT.
GOLDEN_VERIFY = json.loads(
    (pathlib.Path(__file__).parent / "golden_verify.json").read_text()
)
VERIFY_KEYS = [
    "schema_version", "command", "suite", "check", "inputs", "lhs", "rhs", "holds",
]


def assert_close(got, want):
    """got equals want in structure, key order and type, floats to rel 1e-12."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w)
    else:
        assert got == want


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

    @pytest.mark.parametrize("suite", list(GOLDEN_VERIFY))
    def test_golden_output(self, suite, capsys):
        assert cli.main(["verify", "--suite", suite]) == 0
        *records, summary = map(json.loads, capsys.readouterr().out.splitlines())
        want = GOLDEN_VERIFY[suite]
        assert summary == {
            "schema_version": 1, "command": "verify", "suite": suite,
            "checks": len(want), "passed": True,
        }
        assert len(records) == len(want)
        for got, check in zip(records, want):
            assert list(got) == VERIFY_KEYS
            assert_close({key: got[key] for key in check}, check)

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

    def test_golden_all_units(self, capsys):
        # every unit of every odd m in [51, 151] (4,190 rows, large d = 1
        # groups), where the acceptance scan takes 20 units per m; the
        # digest was computed before the scan answered all units of a
        # modulus in one pass, when it still looped over them one by one
        argv = ["scan", "--m-range", "51:151", "--a-sample", "all", "--k", "2"]
        assert cli.main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "603f455b599c6a4c626842c427ca0cc82967aba3e5ffdd62cd72724cf2f98717"

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
