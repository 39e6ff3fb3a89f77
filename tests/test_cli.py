import csv
import hashlib
import io
import json
import math
import pathlib
import subprocess
import sys
import warnings

import pytest

from phimin import cli, intervals, search
from phimin.sieve import SieveTables
from reference import scan_csv

# SHA-256 of `phimin scan --m-range 51:201 --a-sample all --k 2`, also
# checked by the CI acceptance scan step with --jobs 1 and 2
ALL_UNITS_CSV_SHA256 = "636ebd2977e973cc2e017a9102a0716493b6304a666272d0317eb242418c1b46"
# SHA-256 of `phimin scan --m-range 9:63 --a-sample all --k 3`, where I3
# holds p = 2, also checked by the CI acceptance scan step with --jobs 1 and 2
ALL_UNITS_K3_CSV_SHA256 = "97649a54742af87bfb927b6628b090bdc50c57d1db3b49c364a06fa26ecf4ffb"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "phimin", *args], capture_output=True, text=True
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

    @pytest.mark.parametrize("command", ["search", "count"])
    def test_small_k_warning_is_one_line(self, command):
        def advice(k):
            return (
                f"phimin: warning: k={k} below 10: asymptotic exponents degrade, "
                "identities are unaffected\n"
            )

        for k in (2, 9, 10):
            r = run_cli(command, "--m", "1031", "--a", "2", "--k", str(k))
            assert r.returncode == 0
            assert r.stderr == (advice(k) if k < 10 else "")
        # k = 1 is rejected before the advice
        r = run_cli(command, "--m", "1031", "--a", "2", "--k", "1")
        assert r.returncode == 2
        assert r.stderr == "phimin: k must be >= 2, got 1\n"
        # the advice comes before the check of the triple, which fails here
        r = run_cli(command, "--m", "5", "--a", "2", "--k", "9")
        assert r.returncode == 2
        collision = "phimin: interval sets 1 and 2 share primes at m=5\n"
        assert r.stderr == advice(9) + collision

    # the library does not warn, so the commands that build intervals at
    # k = 2 without going through search or count print nothing
    @pytest.mark.parametrize(
        "argv",
        [["scan", "--m-range", "9:11", "--k", "2"], ["verify", "--suite", "lemma1"]],
        ids=lambda argv: argv[0],
    )
    def test_no_advice_elsewhere(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 0
        assert r.stderr == ""

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
    def test_warnings_shown_when_command_raises(self, argv, monkeypatch):
        def failing(args):
            warnings.warn("other", UserWarning)
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", failing)
        with pytest.warns(UserWarning, match="other"), pytest.raises(RuntimeError):
            cli.main(argv)

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
    # a squared prime next to first powers (3^2*5*7*11*13) and three squared
    # primes (3^2*5^2*7^2), where a unit's log on each component is read
    # from that component's table; frozen before the tables were factorized
    (
        "--m 45045 --a 2 --k 2",
        '{"schema_version": 1, "command": "count", "m": 45045, "a": 2, "k": 2, '
        '"delta": 1, "J_direct": 35430, "J_characters": 35430.0, '
        '"main_term": 30540.404166666667, "psi_term": 15270.202083333334, '
        '"S_small": 309573572.8422808, "S_large": 0.0, "threshold": 45045.0, '
        '"certified": false}',
    ),
    (
        "--m 11025 --a 2 --k 2",
        '{"schema_version": 1, "command": "count", "m": 11025, "a": 2, "k": 2, '
        '"delta": 1, "J_direct": 3367, "J_characters": 3367.000000000001, '
        '"main_term": 3968.1, "psi_term": 1984.05, '
        '"S_small": 11943155.762326714, "S_large": 0.0, "threshold": 11025.0, '
        '"certified": false}',
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_golden_all_units_past_twenty(self, jobs, monkeypatch, capsys):
        # every unit of every odd m in [51, 201] (7,772 rows): the units past
        # the first 20, with their larger N and extra oracle stream segments,
        # which the acceptance scan never reaches; frozen before the scan
        # derived d and the target classes once per modulus
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        argv = ["scan", "--m-range", "51:201", "--a-sample", "all", "--k", "2"]
        assert cli.main([*argv, "--jobs", str(jobs)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 + 7772
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_UNITS_CSV_SHA256

    def test_golden_two_in_i3(self, capsys):
        # every unit of every odd m in [9, 63] at k = 3, where I3 holds
        # p = 2: the d = 0 witnesses with p3 = 2 are the even ones, and the
        # d = 1 rows, which may not use 2, find none (see
        # test_two_in_i3_leaves_d1_without_witness) though most count some
        argv = ["scan", "--m-range", "9:63", "--a-sample", "all", "--k", "3"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_UNITS_K3_CSV_SHA256
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 812 and len({r["m"] for r in rows}) == 28
        even = [r for r in rows if r["witness_n"] and int(r["witness_n"]) % 2 == 0]
        assert len(even) == 565 and {r["delta"] for r in even} == {"0"}
        odd_rows = [r for r in rows if r["delta"] == "1"]
        assert len(odd_rows) == 108
        assert {r["found"] for r in odd_rows} == {"false"}
        assert sum(r["J_direct"] != "0" for r in odd_rows) == 88

    def test_csv_matches_csv_writer(self):
        # real rows, error rows of colliding triples (m = 3, 5, 7 at k = 3)
        # and rows with a None N, witness or J_direct on both found values
        rows = search.exponent_scan([3, 5, 7, 9, 45], a_sample="all", k=3)
        assert any("error" in r for r in rows) and not all("error" in r for r in rows)
        base = next(dict(r) for r in rows if r["found"])
        assert None not in base.values()
        for n in (None, 12):
            for w in (None, 5040):
                for j in (None, 0, 3):
                    for found in (True, False):
                        rows.append(dict(
                            base, N=n, N_exponent=n and 0.25, witness_n=w,
                            witness_exponent=w and 2.5, J_direct=j, found=found,
                        ))
        out = io.StringIO()
        cli._write_scan_csv(rows, out)
        assert out.getvalue() == scan_csv(rows)
        out = io.StringIO()
        cli._write_scan_csv([], out)
        assert out.getvalue() == scan_csv([])

    def test_pooled_scan(self, tmp_path):
        out = tmp_path / "s.csv"
        r = run_cli(
            "scan", "--m-range", "9:11:2", "--a-sample", "2", "--k", "3",
            "--jobs", "2", "--out", str(out),
        )
        assert r.returncode == 0

    def test_summary_written(self, tmp_path):
        out = tmp_path / "scan.csv"
        r = run_cli("scan", "--m-range", "9:9:2", "--a-sample", "all",
                    "--k", "3", "--out", str(out))
        rec = json.loads(r.stdout)
        assert rec["command"] == "scan" and rec["rows"] == 6
        assert out.exists()

    def test_summary_built_only_for_a_file(self, tmp_path, monkeypatch, capsys):
        built, summarize = [], cli._summarize

        def spy(rows):
            built.append(len(rows))
            return summarize(rows)

        monkeypatch.setattr(cli, "_summarize", spy)
        argv = ["scan", "--m-range", "51:53", "--a-sample", "2"]
        assert cli.main([*argv, "--out", "-"]) == 0
        assert built == []
        assert cli.main([*argv, "--out", str(tmp_path / "scan.csv")]) == 0
        assert built == [4]

    def test_file_matches_stdout_with_jobs(self, tmp_path, monkeypatch, capsys):
        # two CPUs whatever the host has, so the pool runs
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        out = tmp_path / "scan.csv"
        argv = ["scan", "--m-range", "51:61", "--a-sample", "3", "--jobs", "2"]
        assert cli.main([*argv, "--out", "-"]) == 0
        stdout = capsys.readouterr().out
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == stdout.encode()
        assert json.loads(capsys.readouterr().out)["rows"] == 6 * 3

    def test_unwritable_out_exit_2(self, tmp_path):
        out = tmp_path / "missing" / "scan.csv"
        r = run_cli("scan", "--m-range", "9:9", "--a-sample", "all",
                    "--k", "3", "--out", str(out))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("phimin: cannot write ")
        assert len(r.stderr.splitlines()) == 1

    def test_rejected_scan_leaves_no_file(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--m-range", "8:8", "--out", str(out)).returncode == 2
        assert not out.exists()


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
        ["scan", "--m-range", "51:53", "--a-sample", "0"],
        ["scan", "--m-range", "51:53", "--a-sample", "-2"],
        ["scan", "--m-range", "51:53", "--k", "0"],
        # int64 cannot stream to this cap; sizing its sieve would take GBs
        ["oracle", "--m", "3", "--a", "2", "--cap", str(2**63)],
        # oracle prints JSON only: argparse rejects the flag itself
        ["oracle", "--m", "5", "--a", "3", "--format", "csv"],
        ["scan", "--m-range", "51:53", "--jobs", "0"],
        ["scan", "--m-range", "51:53", "--jobs", "-3"],
    ],
)
def test_bad_input_exits_2_before_sieving(argv, monkeypatch, capsys):
    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} built")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    monkeypatch.setattr(search, "build_sieve", no_sieve)
    try:
        code, prefix = cli.main(argv), "phimin: "
    except SystemExit as exc:
        code, prefix = exc.code, "usage: phimin "
    # argparse itself rejects only the removed flag; the rest reach phimin
    assert prefix == "phimin: " or "--format" in argv
    assert code == 2
    out, err = capsys.readouterr()
    assert err.startswith(prefix) and out == ""


# `phimin oracle` stdout, stderr and exit code, frozen while the command
# still had its own one-target oracle: several units of each m in {1, 3, 5,
# 9, 15, 45, 99, 105, 1001, 3003} at the default cap m^3, caps at N and at
# N - 1 (exit 3), even m, gcd(a, m) > 1, m < 1, caps 0, -5 and 2^63 (exit
# 2), and 2^63 - 1.
GOLDEN_ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "golden_oracle.json").read_text()
)


@pytest.mark.parametrize(
    "case", GOLDEN_ORACLE, ids=[" ".join(c["argv"][1:]) for c in GOLDEN_ORACLE]
)
def test_golden_oracle(case, capsys):
    rc = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (case["rc"], case["stdout"], case["stderr"])


# `phimin search` stdout, stderr and exit code, frozen while the search
# still listed all of I1: the ten benchmark moduli 10001 + 1000 i with the
# units 2, the first unit from m // 3 and m - 2 at k = 2, 3 and 10 (a = 2
# has d = 1 at 11001, 14001 and 17001; k = 10 puts 2 alone in I3), m = 1001
# at k = 10, where I3 is empty, m = 3, whose I1 and I2 collide, and m = 5
# at k = 9.  Then the units 2 and m - 2 at m = 100003, 300007 and 1000003
# (k = 2) and 1000003 (k = 4), frozen while I1's first window was 2^13
# integers wide at every m, so these searches read 3 to 7 windows of I1.
# Last, frozen before the search read I2 in prefixes: m = 999999 at a = 2
# (d = 1) and a = 4 (3 | m, d = 0), m = 300003 at a = 5 (d = 1), and
# m = 1000003 at k = 3.
GOLDEN_SEARCH = json.loads(
    (pathlib.Path(__file__).parent / "golden_search.json").read_text()
)


@pytest.mark.parametrize(
    "case", GOLDEN_SEARCH, ids=[" ".join(c["argv"][1:]) for c in GOLDEN_SEARCH]
)
def test_golden_search(case, capsys):
    rc = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (case["rc"], case["stdout"], case["stderr"])


def test_search_sieves_a_prefix_of_i1(monkeypatch, capsys):
    # at m = 19001 the least witness is proven from the bottom of I1
    m = 19001
    lo, hi = intervals.interval_bounds(1, m, 2)
    windows = []
    real = SieveTables.primes_in

    def spy(tables, a, b):
        windows.append((a, b))
        return real(tables, a, b)

    monkeypatch.setattr(SieveTables, "primes_in", spy)
    for a in (2, 9500, 18999):
        windows.clear()
        assert cli.main(["search", "--m", str(m), "--a", str(a), "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["found"]
        sieved = sum(max(0, min(b, hi) - max(a, lo)) for a, b in windows)
        assert 0 < sieved < 0.25 * (hi - lo)


@pytest.mark.parametrize("m", [1001, 19001])
def test_search_first_i1_window_spans_2m(m, monkeypatch, capsys):
    # a window's least primes per class cost O(m) however few primes it
    # holds, so I1's first window spans 2m integers, and at least 2^13
    lo = math.floor(intervals.interval_bounds(1, m, 2)[0])
    windows = []
    real = SieveTables.primes_in

    def spy(tables, a, b):
        windows.append((a, b))
        return real(tables, a, b)

    monkeypatch.setattr(SieveTables, "primes_in", spy)
    assert cli.main(["search", "--m", str(m), "--a", "2", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["found"]
    first = next(w for w in windows if w[0] >= lo)
    assert first == (lo, lo + max(2**13, 2 * m))


@pytest.mark.parametrize("m", [19001, 1000003])
def test_search_reads_i2_up_to_the_first_windows_reach(m, monkeypatch, capsys):
    # the first I1 window, with top B, reads the primes of I2 up to
    # Y(B) = ceil((B + 1) L2 / L1) - 1, L_j the least integer of I_j, and
    # its witness retires the unit: I2 is never listed and the grid holds
    # fewer entries than I2 has primes
    (lo1, _), (lo2, hi2) = (intervals.interval_bounds(j, m, 2) for j in (1, 2))
    l1, l2 = math.floor(lo1) + 1, math.floor(lo2) + 1
    top = math.floor(lo1) + max(2**13, 2 * m)
    reads, entries, triples = [], [], []
    primes_in, products = SieveTables.primes_in, search._least_products
    canonical = search.canonical_triple

    def spy_primes_in(tables, a, b):
        reads.append((a, b))
        return primes_in(tables, a, b)

    def spy_products(px, py, pz, dtype, empty):
        entries.append(px.size * py.size)
        return products(px, py, pz, dtype, empty)

    def spy_triple(*args):
        triples.append(canonical(*args))
        return triples[-1]

    monkeypatch.setattr(SieveTables, "primes_in", spy_primes_in)
    monkeypatch.setattr(search, "_least_products", spy_products)
    monkeypatch.setattr(search, "canonical_triple", spy_triple)
    assert cli.main(["search", "--m", str(m), "--a", "2", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["found"]
    (triple,) = triples
    assert not triple.i2.listed
    assert [(a, b) for a, b in reads if a < hi2 and b > lo2] == [
        (lo2, -(-(top + 1) * l2 // l1) - 1)
    ]
    assert 0 < sum(entries) < triple.i2.size


@pytest.mark.parametrize("command", ["search", "count"])
def test_search_and_count_sieve_only_their_intervals(command, monkeypatch, capsys):
    def unbuilt(tables):
        raise AssertionError(f"every prime up to {tables.limit} listed")

    monkeypatch.setattr(SieveTables, "primes", property(unbuilt))
    assert cli.main([command, "--m", "1031", "--a", "2", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == command

