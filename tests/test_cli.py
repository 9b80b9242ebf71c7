"""CLI behavior: exit codes, deterministic JSON, atomic report files."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nscheck.cli as cli
from nscheck.cli import run

ROOT = Path(__file__).resolve().parent.parent


def invoke(tmp_path, *argv, out_name=None):
    """Run the CLI; returns (exit_code, parsed_json_or_None, raw_bytes)."""
    argv = list(argv)
    path = None
    if out_name is not None:
        path = tmp_path / out_name
        argv += ["--format", "json", "--out", str(path)]
    code = run(argv)
    if path is None:
        return code, None, b""
    raw = path.read_bytes()
    return code, json.loads(raw), raw


def command_ids(rows) -> list[str]:
    """Test ids: the command name, with a counter from its second row on."""
    seen: dict[str, int] = {}
    ids = []
    for argv, _, _ in rows:
        seen[argv[0]] = seen.get(argv[0], 0) + 1
        ids.append(argv[0] if seen[argv[0]] == 1 else f"{argv[0]}-{seen[argv[0]]}")
    return ids


class TestExitCodes:
    def test_pass_run_exits_zero(self, tmp_path):
        code, doc, _ = invoke(tmp_path, "verify", "--suite", "jacobi", "--range", "2",
                              out_name="jacobi.json")
        assert code == 0
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_injected_failure_exits_one(self, tmp_path):
        code, doc, _ = invoke(tmp_path, "verify", "--suite", "jacobi", "--range", "2",
                              "--inject-failure", out_name="fail.json")
        assert code == 1
        failing = [c for c in doc["checks"] if c["status"] == "fail"]
        assert len(failing) == 1
        assert failing[0]["witness"] == "1"

    @pytest.mark.parametrize("argv", [
        ("identities", "--max-n", "2", "--window=-4..4"),
        ("verify", "--suite", "jacobi", "--range", "2"),
    ], ids=lambda argv: argv[0])
    def test_inject_failure_appends_one_check(self, tmp_path, argv):
        # one meaning on every command that takes the flag: the same run, plus
        # one always-failing check
        code, doc, _ = invoke(tmp_path, *argv, "--inject-failure", out_name="fail.json")
        _, plain, _ = invoke(tmp_path, *argv, out_name="plain.json")
        assert code == 1
        failing = [c for c in doc["checks"] if c["status"] == "fail"]
        assert [(c["name"], c["witness"]) for c in failing] == [("injected/forced-failure", "1")]
        assert doc["meta"] == plain["meta"]
        assert [c for c in doc["checks"] if c not in failing] == plain["checks"]

    def test_usage_error_exits_two(self):
        assert run(["module-simplicity", "--module", "gamma(0,1/2"]) == 2
        assert run(["unknown-command"]) == 2
        assert run(["module-simplicity", "--module", "gamma(0,0)",
                    "--window", "10..0"]) == 2
        assert run(["module-axiom", "--module", "gamma(l,b)", "--lambda", "x/y"]) == 2
        # a cut that is not out-closed, or a half-line cut outside kplus
        assert run(["module-simplicity", "--module", "gamma+(1,0)"]) == 2
        assert run(["module-simplicity", "--module", "gamma+(0,0)", "--algebra", "khat"]) == 2
        # A does not act on the sub-quotient
        assert run(["annihilator", "--module", "gamma'(0,0)"]) == 2
        # an override of a parameter that the descriptor fixes to a number
        assert run(["module-simplicity", "--module", "gamma(0,1/2)", "--lambda", "1/3"]) == 2
        # each slot takes only its own symbol: l for --lambda, b for --b
        assert run(["module-simplicity", "--module", "gamma(l,b)", "--lambda", "b", "--b", "1/3"]) == 2
        assert run(["module-simplicity", "--module", "gamma(l,b)", "--b", "l"]) == 2
        # an option name where a value belongs
        assert run(["module-simplicity", "--module", "gamma(l,b)", "--lambda", "--b", "1/4"]) == 2

    # a window interior that holds no key of the module gives no verdict
    @pytest.mark.parametrize("module, window", [
        ("gamma-(0,1/4)", "--window=0..20"),
        ("gamma+(0,1/4)", "--window=-30..-10"),
        ("gamma-(0,1/4)", "--window=10..30"),
    ], ids=["gamma-minus", "gamma-plus", "gamma-minus-10..30"])
    def test_interior_without_keys_exits_zero(self, tmp_path, module, window):
        code, doc, _ = invoke(tmp_path, "module-simplicity", "--module", module, window,
                              out_name="empty.json")
        assert code == 0
        assert "verdict=inconclusive" in doc["checks"][0]["params"]

    @pytest.mark.parametrize("option", ["--lambda", "--b"])
    def test_zero_denominator_parameter_exits_two(self, capsys, option):
        assert run(["module-simplicity", "--module", "gamma(l,b)", option, "1/0"]) == 2
        assert "malformed rational '1/0'" in capsys.readouterr().err

    # a range too small to check anything is rejected, never reported as a
    # verdict or as checks passed over no instances
    @pytest.mark.parametrize("argv", [
        ["module-simplicity", "--module", "gamma(1/3,1/4)", "--gen-range", "0"],
        # generators of index <= 1 span osp(1|2), which cannot see simplicity
        ["module-simplicity", "--module", "gamma(0,1/4)", "--gen-range", "1"],
        ["module-iso", "--module", "gamma(1/3,0)", "--module2", "gamma(4/3,0)",
         "--gen-range", "0"],
        ["module-axiom", "--gen-range", "-1", "--window=-4..4"],
        ["annihilator", "--sweep", "-1", "--window=-6..6"],
        ["identities", "--sweep", "-1", "--max-n", "2", "--window=-4..4"],
        ["verify", "--suite", "action", "--range", "-1"],
        ["verify", "--suite", "compat", "--range", "0"],
        # a window that holds no key of the module
        ["module-axiom", "--module", "gamma-(0,1/4)", "--window=10..30"],
        ["annihilator", "--module", "gamma-(0,1/4)", "--window=10..30"],
        ["module-axiom", "--module", "gamma+(0,1/4)", "--window=-9..-3", "--gen-range", "1"],
        ["module-iso", "--module", "gamma+(0,1/4)", "--module2", "gamma+(0,1/4)",
         "--window=-30..-10"],
        ["module-iso", "--module", "gamma-(0,1/4)", "--module2", "gamma-(0,1/4)",
         "--window=10..30"],
    ], ids=["simplicity-gen-range-0", "simplicity-gen-range-1", "iso-gen-range-0", "axiom-gen-range-minus-1",
            "annihilator-sweep-minus-1", "identities-sweep-minus-1", "action-range-minus-1",
            "compat-range-0", "axiom-no-key-gamma-minus", "annihilator-no-key-gamma-minus",
            "axiom-no-key-gamma-plus", "iso-no-key-gamma-plus", "iso-no-key-gamma-minus"])
    def test_degenerate_range_exits_two(self, capsys, argv):
        assert run(argv) == 2
        assert "--help" in capsys.readouterr().err

    def test_domain_bound_stays_a_usage_error(self, capsys):
        assert run(["verify", "--range", "1"]) == 2
        assert "index_range must be at least 2" in capsys.readouterr().err

    # a bound below its least value, modules over two algebras, a window
    # without "..", a symbol in the wrong slot: each a usage error
    @pytest.mark.parametrize("argv, message", [
        (["identities", "--max-n", "1"], "max_n must be at least 2"),
        (["annihilator", "--max-m", "0"], "max_m must be at least 1"),
        (["module-iso", "--module", "gamma+(0,1/4)", "--module2", "gamma(1/3,1/4)"],
         "intertwiner search needs a common algebra mode"),
        (["module-axiom", "--window", "5"], "window must look like A..B, got '5'"),
        (["module-axiom", "--module", "gamma(b,l)"],
         "symbol 'b' in the wrong parameter slot of 'gamma(b,l)'"),
    ], ids=["identities-max-n-1", "annihilator-max-m-0", "iso-two-algebras",
            "axiom-window-without-dots", "axiom-swapped-symbols"])
    def test_bad_argument_exits_two(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr().err == (f"nscheck: error: {message}\n"
                                           "run `nscheck <command> --help` for usage\n")

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def broken(index_range):
            raise ValueError("invariant broken")

        monkeypatch.setattr(cli, "compat_reports", broken)
        assert run(["verify", "--suite", "compat", "--range", "2"]) == 3
        err = capsys.readouterr().err
        assert err == "nscheck: internal error: ValueError: invariant broken\n"

    # an --out path in a missing directory, or naming a directory, is the
    # user's mistake: exit 2, and no temporary file is left behind
    @pytest.mark.parametrize("target, reason", [
        ("missing/r.json", "No such file or directory"),
        ("existing", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, target, reason):
        (tmp_path / "existing").mkdir()
        out = tmp_path / target
        assert run(["classify", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"nscheck: error: cannot write report to {out}: {reason}\n")
        assert [p.name for p in tmp_path.rglob(".nscheck-*")] == []

    def test_info_never_fails_a_run(self, tmp_path):
        code, doc, _ = invoke(tmp_path, "classify", out_name="classify.json")
        assert code == 0
        assert all(c["status"] == "info" for c in doc["checks"])


class TestDeterminism:
    def test_byte_identical_json(self, tmp_path):
        args = ("verify", "--suite", "compat", "--range", "2")
        _, _, raw1 = invoke(tmp_path, *args, out_name="a.json")
        _, _, raw2 = invoke(tmp_path, *args, out_name="b.json")
        assert raw1 == raw2
        assert raw1.endswith(b"\n")

    def test_schema(self, tmp_path):
        _, doc, _ = invoke(tmp_path, "verify", "--suite", "jacobi", "--range", "2",
                           out_name="schema.json")
        assert set(doc) == {"meta", "checks"}
        meta = doc["meta"]
        assert meta["tool"] == "nscheck"
        assert meta["command"] == "verify"
        assert "options" in meta
        names = [c["name"] for c in doc["checks"]]
        assert names == sorted(names)
        for c in doc["checks"]:
            assert set(c) - {"witness"} == {"name", "paper_anchor", "status", "params"}

    # smoke-size invocations with the exit code and the sha256 of the report
    # bytes recorded when the report format was fixed
    GOLDEN = [
        (["verify", "--suite", "all", "--range", "2"], 0,
         "19cd593d1a5cf0ce25d7b100a1f76686af88e5d78c0b3e247662056a19117981"),
        (["identities", "--max-n", "2", "--window=-4..4"], 0,
         "dbed716df39664af76dc62095e7e214b957889413b1a05b9b1e8d3e4887ab53c"),
        (["annihilator", "--module", "gamma(l,b)", "--window=-6..6"], 0,
         "dda61e66083e3186aaeca3c6fab57659b901a093a8fd1fa011d48ab52e55975a"),
        (["module-axiom", "--module", "gamma(l,b)", "--convention", "paper-printed",
          "--gen-range", "1", "--window=-4..4"], 1,
         "179facdc702e0ae4b2975deaf611fe34fd749b4e9a992813ceb9ff4877839a3d"),
        # contact-mode sweeps and verdict reports
        (["annihilator", "--module", "gamma+(0,b)", "--window=-6..6"], 0,
         "2da7ad03a2ffe1a89b1066b05b6a089b88152382e22fc0060392866ca4795324"),
        (["annihilator", "--module", "gamma-(0,1/3)", "--window=-6..6", "--algebra-level"], 0,
         "997a6c11c1e9833d38df04fc0c5996d6a1dcbb6367d567839f1b103eb7ec86fd"),
        (["module-simplicity", "--module", "gamma(0,b)", "--algebra", "kplus"], 0,
         "00f35333a8db63bdc83daadb30e88d21acee8a4b28a66a24d20ed9a1de495fe0"),
        (["module-simplicity", "--module", "gamma(l,b)"], 0,
         "af84a0e941a712fa8124e973892c9310ca8ae536b56a7c48343d010e0e18d5d5"),
        (["module-iso", "--module", "gamma'(0,0)", "--module2", "pi(gamma'(0,1/2))"], 0,
         "eff1347c18994246ca1b2349aa15fc4b42b6772fe5be3b688f15ace22c93d19b"),
        (["module-axiom", "--module", "gamma+(0,b)", "--gen-range", "2", "--window=-4..4"], 0,
         "4a04afc09e53fee0730e840f40d678daac8948b6dc5f9951a1b78c36c5eaa7c0"),
        # the sub-quotients: gamma' at the locus, gamma+ and gamma- over kplus
        (["module-simplicity", "--module", "gamma'(0,0)", "--algebra", "khat"], 0,
         "67281a890b3b2e9eb1d75c20074d8f472f137985fc56587dbe4aafaf4a6d7390"),
        (["module-simplicity", "--module", "gamma'(0,0)", "--algebra", "kplus"], 0,
         "47bfcc6a8bb4946b1a8843a0ccb4e11b5f6070fcafd0ba8568e50a22c2883753"),
        (["module-simplicity", "--module", "gamma'(0,1/2)", "--algebra", "khat"], 0,
         "604c39f3a804a3d0e921c60a13122e00ab7af635112fdf7fc5544a69f15ae05e"),
        (["module-simplicity", "--module", "gamma'(0,1/2)", "--algebra", "kplus"], 0,
         "bbcde61ef91da54d407d8996036cd43319c52967d9aee3756ffdf74604b3464a"),
        (["module-simplicity", "--module", "gamma+(0,1/4)"], 0,
         "3fa58d62186326ac92bc5d87248d0d5127a0ebd222a01dd27ad37d07fd3014f1"),
        (["module-simplicity", "--module", "gamma-(0,b)"], 0,
         "8e77655880fa027ade32d6558d5a930fbdb8d98a6e17587a9d93a54664437995"),
        (["module-simplicity", "--module", "pi(gamma-(0,1/2))"], 0,
         "c7a27d1196092cc442372be3d283a83a26896f38db814adad42b2c84118a8178"),
        (["module-axiom", "--module", "gamma'(0,1/2)", "--gen-range", "2", "--window=-4..4"], 0,
         "52a01549bb4728d3ff997baffbf9574d80ef67ce1e5d80424cd1fe3dcb950f68"),
        (["module-axiom", "--module", "gamma-(0,b)", "--gen-range", "2", "--window=-4..4"], 0,
         "5a9d563d543d586d54fae1b12b8ac5e89572b89294f47b1e96f945d6baf52b81"),
        # the annihilator bound exceeded: one failed check, no chains
        (["annihilator", "--module", "gamma(l,b)", "--max-m", "1", "--window=-6..6"], 1,
         "90505d4d4efd8bb5ad776c882cc118544f20bf6f42020cfdf7d54eeb3656e571"),
        # the khat algebra-level probes of the chains
        (["annihilator", "--module", "gamma(1/3,1/4)", "--window=-6..6", "--algebra-level"], 0,
         "4fa2a2684ceb1e638c6c8b2ca1f4b0d72b42c26207dea01bee9632bf0cb8f047"),
    ]

    @pytest.mark.parametrize("argv, want_code, want_digest", GOLDEN,
                             ids=command_ids(GOLDEN))
    def test_golden_report_bytes(self, tmp_path, argv, want_code, want_digest):
        code, _, raw = invoke(tmp_path, *argv, out_name="golden.json")
        assert code == want_code
        assert hashlib.sha256(raw).hexdigest() == want_digest

    def test_no_temp_files_left(self, tmp_path):
        invoke(tmp_path, "classify", out_name="out.json")
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".nscheck-")]
        assert leftovers == []


class TestModuleAxiomCommand:
    def test_printed_convention_fails_on_odd_pairs(self, tmp_path):
        code, doc, _ = invoke(
            tmp_path, "module-axiom", "--module", "gamma(l,b)",
            "--convention", "paper-printed", "--gen-range", "1", "--window", "-4..4",
            out_name="axiom.json",
        )
        assert code == 1
        failing = {c["name"] for c in doc["checks"] if c["status"] == "fail"}
        assert "module-axiom/paper-printed/(G(-1/2),G(1/2))" in failing
        witness_entry = next(c for c in doc["checks"]
                             if c["name"] == "module-axiom/paper-printed/(G(-1/2),G(1/2))")
        assert "4*l + 4*b" in witness_entry["witness"]
        # even-even and even-odd pairs still pass
        for c in doc["checks"]:
            if c["status"] == "fail":
                assert c["name"].count("G(") == 2

    def test_corrected_convention_passes(self, tmp_path):
        code, doc, _ = invoke(
            tmp_path, "module-axiom", "--module", "gamma(l,b)",
            "--convention", "corrected", "--gen-range", "1", "--window", "-4..4",
            out_name="axiom2.json",
        )
        assert code == 0
        assert all(c["status"] == "pass" for c in doc["checks"])


class TestVerdictCommands:
    def test_simplicity_reducible_exits_zero(self, tmp_path):
        code, doc, _ = invoke(
            tmp_path, "module-simplicity", "--module", "gamma(0,1/2)",
            "--algebra", "khat", "--window", "-10..10", "--margin", "3",
            out_name="simp.json",
        )
        assert code == 0
        (entry,) = doc["checks"]
        assert "verdict=reducible" in entry["params"]
        assert "certificate=[" in entry["params"]
        assert "t^-1 xi" not in entry["params"].split("certificate=")[1]

    def test_gamma_prime_over_kplus_exits_zero(self):
        assert run(["module-simplicity", "--module", "gamma'(0,0)", "--algebra", "kplus"]) == 0

    def test_lambda_override(self, tmp_path):
        code, doc, _ = invoke(
            tmp_path, "module-simplicity", "--module", "gamma(l,b)",
            "--lambda", "1/3", "--b", "1/4", "--algebra", "khat",
            out_name="simp2.json",
        )
        assert code == 0
        assert "verdict=simple" in doc["checks"][0]["params"]

    # a negative value after a space is the same value as after '='
    @pytest.mark.parametrize("spaced, joined", [
        (["--lambda", "-1/3", "--b", "1/4"], ["--lambda=-1/3", "--b=1/4"]),
        (["--lambda", "1/3", "--b", "-1/2"], ["--lambda=1/3", "--b=-1/2"]),
        (["--lambda", "-1", "--b", "-1/4", "--window", "-8..8"],
         ["--lambda=-1", "--b=-1/4", "--window=-8..8"]),
    ], ids=["lambda", "b", "all-three"])
    def test_negative_values_after_a_space(self, tmp_path, spaced, joined):
        common = ("module-simplicity", "--module", "gamma(l,b)")
        code1, _, raw1 = invoke(tmp_path, *common, *spaced, out_name="spaced.json")
        code2, _, raw2 = invoke(tmp_path, *common, *joined, out_name="joined.json")
        assert (code1, code2) == (0, 0)
        assert raw1 == raw2

    def test_wide_margin_is_inconclusive(self, tmp_path):
        code, doc, _ = invoke(tmp_path, "module-simplicity", "--module", "gamma(0,1/2)",
                              "--window=-10..10", "--margin", "10", out_name="wide.json")
        assert code == 0
        assert "verdict=inconclusive" in doc["checks"][0]["params"]

    def test_iso_offset_beyond_the_window_exits_two(self, capsys):
        # a weight offset of 29/2 leaves the default interior too few keys
        assert run(["module-iso", "--module", "gamma(1/3,0)", "--module2", "gamma(-85/6,0)"]) == 2
        assert "cannot decide an intertwiner" in capsys.readouterr().err

    def test_iso_pair(self, tmp_path):
        code, doc, _ = invoke(
            tmp_path, "module-iso", "--module", "gamma(1/3,1/2)",
            "--module2", "gamma(4/3,0)", out_name="iso.json",
        )
        assert code == 0
        assert "found=True" in doc["checks"][0]["params"]
        assert "odd intertwiner" in doc["checks"][0]["params"]

    def test_iso_negative(self, tmp_path):
        code, doc, _ = invoke(
            tmp_path, "module-iso", "--module", "gamma(1/3,0)",
            "--module2", "gamma(1/3,1/4)", out_name="iso2.json",
        )
        assert code == 0
        assert "found=False" in doc["checks"][0]["params"]


class TestAnnihilatorCommand:
    def test_formal_run(self, tmp_path):
        code, doc, _ = invoke(
            tmp_path, "annihilator", "--module", "gamma(l,b)",
            "--window", "-6..6", "--sweep", "1", out_name="ann.json",
        )
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert any(n.startswith("annihilator/") for n in names)
        assert {"chain/G-L", "chain/t-G", "chain/t-L"} <= set(names)
        ann = next(c for c in doc["checks"] if c["name"].startswith("annihilator/"))
        assert "m=3" in ann["params"]

    def test_bound_exceeded_fails(self, tmp_path):
        code, doc, _ = invoke(
            tmp_path, "annihilator", "--module", "gamma(1/3,1/4)",
            "--window", "-6..6", "--max-m", "2", "--sweep", "1",
            out_name="ann2.json",
        )
        assert code == 1
        assert doc["checks"][0]["status"] == "fail"

    def test_options_do_not_depend_on_the_outcome(self, tmp_path):
        # a found order and an exceeded bound echo the same options
        common = ("annihilator", "--module", "gamma(1/3,1/4)", "--window", "-6..6",
                  "--sweep", "0", "--algebra-level")
        found_code, found, _ = invoke(tmp_path, *common, out_name="found.json")
        over_code, over, _ = invoke(tmp_path, *common, "--max-m", "2", out_name="over.json")
        assert (found_code, over_code) == (0, 1)
        assert found["meta"]["options"].keys() == over["meta"]["options"].keys()
        assert over["meta"]["options"]["algebra_level"] is True

    def test_identities_bound_exceeded_fails(self, tmp_path):
        # an annihilator order above --max-m is a failed check, as in
        # `annihilator`, and no chain runs without an order
        code, doc, _ = invoke(
            tmp_path, "identities", "--max-n", "2", "--max-m", "1", "--window=-4..4",
            out_name="ids.json",
        )
        assert code == 1
        (failed,) = [c for c in doc["checks"] if c["status"] == "fail"]
        assert failed["name"] == "annihilator/gamma(l,b)"
        assert failed["witness"] == "annihilator order exceeds bound 1 on gamma(l,b)"
        assert not [c for c in doc["checks"] if c["name"].startswith("chain/")]


def test_module_entry_point():
    # the invocation the README gives, through cli.main and sys.exit: the
    # smoke report on stdout, and a usage error
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "nscheck.cli", *argv], env=env,
                              capture_output=True, timeout=120)

    argv, want_code, want_digest = TestDeterminism.GOLDEN[0]
    proc = module_run(*argv, "--format", "json")
    assert proc.returncode == want_code == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == want_digest
    proc = module_run("verify", "--suite", "nope")
    assert proc.returncode == 2
    assert b"invalid choice" in proc.stderr


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_verdicts_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    # the verdicts on gamma'(0,0) walk sets and dicts of keys; under other
    # string and tuple hashes they keep their exit codes and report bytes
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    commands = [["module-simplicity", "--module", "gamma'(0,0)", "--algebra", "khat"],
                ["module-iso", "--module", "gamma'(0,0)", "--module2", "pi(gamma'(0,1/2))"]]
    rows = [row for row in TestDeterminism.GOLDEN if row[0] in commands]
    assert len(rows) == 2
    for argv, want_code, want_digest in rows:
        out = tmp_path / f"{argv[0]}.json"
        proc = subprocess.run([sys.executable, "-m", "nscheck.cli", *argv, "--format", "json",
                               "--out", str(out)], env=env, capture_output=True, timeout=120)
        assert proc.returncode == want_code, proc.stderr.decode()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want_digest


def test_classify_lists_all_families(tmp_path):
    code, doc, _ = invoke(tmp_path, "classify", out_name="cls.json")
    assert code == 0
    text = json.dumps(doc)
    for needle in ("highest weight modules", "gamma+(0,b)", "gamma-(0,b)",
                   "gamma'(0,0) ~ pi(gamma'(0,1/2))"):
        assert needle in text


def test_text_format_summary_line(capsys):
    code = run(["classify", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("info")
    assert "[info] classify/00/highest weight modules" in out


def test_text_format_of_a_failing_run(capsys):
    # every report line, the witnesses of the failing checks, the summary
    # line and exit code 1
    code = run(["module-axiom", "--module", "gamma(l,b)", "--convention", "paper-printed",
                "--gen-range", "1", "--window=-2..2"])
    at = "module=gamma(l,b); window=-2..2(margin 0)"
    lines = [
        f"[fail] module-axiom/paper-printed/(G(-1/2),G(-1/2)) | {at} at t^-2"
        " | witness: (4*l - 8) * t^-3",
        f"[fail] module-axiom/paper-printed/(G(-1/2),G(1/2)) | {at} at t^-2"
        " | witness: (4*l + 4*b - 8) * t^-2",
        f"[fail] module-axiom/paper-printed/(G(1/2),G(1/2)) | {at} at t^-2"
        " | witness: (4*l + 8*b - 8) * t^-1",
    ]
    lines += [f"[pass] module-axiom/paper-printed/({x},{y}) | {at}" for x, y in [
        ("L(-1)", "G(-1/2)"), ("L(-1)", "G(1/2)"), ("L(-1)", "L(-1)"), ("L(-1)", "L(0)"),
        ("L(-1)", "L(1)"), ("L(0)", "G(-1/2)"), ("L(0)", "G(1/2)"), ("L(0)", "L(0)"),
        ("L(0)", "L(1)"), ("L(1)", "G(-1/2)"), ("L(1)", "G(1/2)"), ("L(1)", "L(1)")]]
    lines.append("15 checks: 12 pass, 3 fail, 0 info")
    assert (code, capsys.readouterr().out) == (1, "\n".join(lines) + "\n")


# one cheap invocation per subcommand, with the options its JSON `meta` echoes
CHEAP_RUNS = {
    "verify": (["--suite", "jacobi", "--range", "2"], ["format", "range", "suite"]),
    "identities": (["--max-n", "2", "--window=-4..4"],
                   ["algebra_level", "format", "max_m", "max_n", "sweep", "window"]),
    "module-axiom": (["--gen-range", "1", "--window=-2..2"],
                     ["convention", "format", "gen_range", "module", "window"]),
    "module-simplicity": (["--module", "gamma(1/3,1/4)"],
                          ["algebra", "format", "gen_range", "margin", "module", "window"]),
    "module-iso": (["--module", "gamma(1/3,1/4)", "--module2", "gamma(1/2,1/4)"],
                   ["format", "gen_range", "margin", "module", "module2", "window"]),
    "annihilator": (["--window=-6..6", "--sweep", "0"],
                    ["algebra_level", "format", "max_m", "module", "sweep", "window"]),
    "classify": ([], ["format"]),
}

HELP = (("-h", "--help"), "help", "==SUPPRESS==", False, None, None)
FORMAT = (("--format",), "format", "text", False, ("text", "json"), None)
OUT = (("--out",), "out", None, False, None, None)
CONVENTION = (("--convention",), "convention", "corrected", False,
              ("corrected", "paper-printed"), None)
LAM = (("--lambda",), "lam", None, False, None, None)
B_OPT = (("--b",), "b", None, False, None, None)
GEN_RANGE = (("--gen-range",), "gen_range", 3, False, None, "int")
MARGIN = (("--margin",), "margin", 3, False, None, "int")
MAX_M = (("--max-m",), "max_m", 6, False, None, "int")
SWEEP = (("--sweep",), "sweep", 2, False, None, "int")
LEVEL = (("--algebra-level",), "algebra_level", False, False, None, None)
INJECT = (("--inject-failure",), "inject_failure", False, False, None, None)


def window(default):
    return (("--window",), "window", default, False, None, None)


def module(default, required=False):
    return (("--module",), "module", default, required, None, None)


# (option strings, dest, default, required, choices, type) of every action,
# recorded from the hand-built subparsers
PARSER_TABLE = {
    "verify": [FORMAT, INJECT, OUT, (("--range",), "range", 3, False, None, "int"),
               (("--suite",), "suite", "all", False, ("jacobi", "compat", "action", "all"),
                None), HELP],
    "identities": [LEVEL, FORMAT, INJECT, MAX_M,
                   (("--max-n",), "max_n", 5, False, None, "int"), OUT, SWEEP,
                   window("-8..8"), HELP],
    "module-axiom": [B_OPT, CONVENTION, FORMAT, GEN_RANGE, LAM, module("gamma(l,b)"), OUT,
                     window("-8..8"), HELP],
    "module-simplicity": [(("--algebra",), "algebra", None, False, ("khat", "k", "kplus"), None),
                          B_OPT, CONVENTION, FORMAT, GEN_RANGE, LAM, MARGIN,
                          module(None, required=True), OUT, window("-10..10"), HELP],
    "module-iso": [CONVENTION, FORMAT, GEN_RANGE, MARGIN, module(None, required=True),
                   (("--module2",), "module2", None, True, None, None), OUT,
                   window("-10..10"), HELP],
    "annihilator": [LEVEL, B_OPT, FORMAT, LAM, MAX_M, module("gamma(l,b)"), OUT, SWEEP,
                    window("-10..10"), HELP],
    "classify": [FORMAT, OUT, HELP],
}


def test_parser_table(tmp_path):
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(PARSER_TABLE)
    for name, p in sub.choices.items():
        got = sorted(((tuple(a.option_strings), a.dest, a.default, a.required,
                       tuple(a.choices) if a.choices else None,
                       a.type.__name__ if a.type else None) for a in p._actions), key=repr)
        assert got == PARSER_TABLE[name], name
        argv, echoed = CHEAP_RUNS[name]
        _, doc, _ = invoke(tmp_path, name, *argv, out_name=f"{name}.json")
        assert doc["meta"]["command"] == name
        assert list(doc["meta"]["options"]) == echoed, name


def test_runners_are_looked_up_at_call_time(tmp_path, monkeypatch):
    # a tracer wraps each runner by replacing the module attribute; run must
    # call whatever the attribute holds when it runs
    called = []

    def recording(attr, fn):
        def wrapper(*args, **kwargs):
            called.append(attr)
            return fn(*args, **kwargs)
        return wrapper

    for name in CHEAP_RUNS:
        attr = "cmd_" + name.replace("-", "_")
        monkeypatch.setattr(cli, attr, recording(attr, getattr(cli, attr)))
    for name, (argv, _) in CHEAP_RUNS.items():
        assert invoke(tmp_path, name, *argv, out_name="run.json")[0] == 0
    assert called == ["cmd_" + name.replace("-", "_") for name in CHEAP_RUNS]
