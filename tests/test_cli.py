"""Tests for the command-line interface (exit codes, formats, determinism)."""

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meansq import cli
from meansq.cli import main
from meansq.symbolic import parse_closed_form, render


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClosedForm:
    def test_r5_latex_mentions_constants(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--r", "5", "--format", "latex")
        assert code == 0
        assert "187110" in out
        assert "J_{10}" in out

    def test_r6_json_schema(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--r", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert "-12" in data["body"]
        assert "12" in data["body"]["-12"]
        scalar = Fraction(data["scalar"])
        coeff = Fraction(data["body"]["-12"]["12"])
        # the pi-free rational prefactor folded against the leading term
        assert scalar * coeff == Fraction(691, 1277025750)
        assert data["pi_exp"] == 12 and data["phi_exp"] == 1

    def test_r2_rejected(self, capsys):
        code, _, err = run(capsys, "closed-form", "--r", "2")
        assert code == 2
        assert "h >= 2" in err

    def test_r0_rejected(self, capsys):
        code, _, _ = run(capsys, "closed-form", "--r", "0")
        assert code == 2

    def test_r1_prints_two_forms(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--r", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_json_round_trips_through_parser(self, capsys):
        from meansq.mean_square import mean_square_even, mean_square_odd

        cases = [(1, list(mean_square_odd(1))), (4, mean_square_even(4)), (5, mean_square_odd(5)),
                 (6, mean_square_even(6)), (7, mean_square_odd(7))]
        for r, expected in cases:
            code, out, _ = run(capsys, "closed-form", "--r", str(r), "--format", "json")
            assert code == 0
            data = json.loads(out)
            # r = 1 prints its two forms as a JSON list, whose elements each parse
            parsed = [parse_closed_form(form) for form in data] if r == 1 else parse_closed_form(data)
            assert parsed == expected, r
            if r > 1:
                # the printed line renders back from its parse byte for byte
                line = out.rstrip("\n")
                assert render(parse_closed_form(line), "json") == line, r


class TestSinSum:
    def test_n6_text(self, capsys):
        code, out, _ = run(capsys, "sin-sum", "--n", "6")
        assert code == 0
        assert out.strip() == "2/945 J_6 + 1/45 J_4 + 8/45 J_2"

    def test_n2_with_k(self, capsys):
        code, out, _ = run(capsys, "sin-sum", "--n", "2", "--k", "3")
        assert code == 0
        assert "8/3" in out.splitlines()

    def test_odd_rejected(self, capsys):
        code, _, _ = run(capsys, "sin-sum", "--n", "3")
        assert code == 2

    def test_bad_k_rejected_before_building(self, capsys, monkeypatch):
        def no_build(n):
            raise AssertionError(f"sin_sum_exact({n}) ran for a rejected --k")

        monkeypatch.setattr(cli, "sin_sum_exact", no_build)
        code, out, err = run(capsys, "sin-sum", "--n", "120", "--k", "1")
        assert code == 2
        assert out == ""
        assert "sin-sum: --k must be >= 3" in err

    def test_default_order_is_6(self, capsys):
        default = run(capsys, "sin-sum")
        assert default[0] == 0
        assert default == run(capsys, "sin-sum", "--n", "6")

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "sin-sum", "--n", "2", "--k", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"n": 2, "combo": {"2": "1/3"}, "k": 4, "value": "4/1"}


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--r", "5", "--k", "3,4", "--prec", "96", "--tol", "1e-9")
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == {"total": 2, "passed": 2, "failed": 0}
        assert [c["k"] for c in report["cases"]] == [3, 4]
        assert all(c["pass"] for c in report["cases"])

    def test_r1_included(self, capsys):
        code, out, _ = run(capsys, "verify", "--r", "1", "--k", "5", "--prec", "96", "--tol", "1e-8")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_r2_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--r", "2..3", "--k", "3")
        assert code == 2

    def test_bad_k_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--r", "3", "--k", "1..4")
        assert code == 2

    def test_missing_args_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--r", "3")
        assert code == 2

    def test_bad_prec_rejected_before_building(self, capsys, monkeypatch):
        def no_build(r):
            raise AssertionError(f"closed form of rank {r} built for a rejected --prec")

        monkeypatch.setattr(cli, "_mean_square_forms", no_build)
        code, out, err = run(capsys, "verify", "--r", "31", "--k", "5", "--prec", "0")
        assert code == 2
        assert out == ""
        assert "verify: --prec must be >= 53" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--r", "3", "--k", "5", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "--tol" in err
        assert err.startswith(f"verify: --tol must be a finite non-negative number, got {tol!r}")

    def test_report_pinned(self, capsys):
        # values and bytes as the per-character route wrote them, so the
        # residue-sum oracle must leave stdout unchanged; r = 1 (digamma), an
        # even and an odd zeta rank, a prime and a composite modulus
        code, out, _ = run(capsys, "verify", "--r", "1,4,5", "--k", "7,12")
        assert code == 0
        cases = {(c["r"], c["k"]): (c["numeric_value"], c["rel_error"]) for c in json.loads(out)["cases"]}
        assert cases == {
            (1, 7): ("3.0213074697212322302554564285335156537", "0.0"),
            (1, 12): ("1.9190897446562641758844843610870293874", "3.06e-39"),
            (4, 7): ("3.019755854680409571538010278441114096", "0.0"),
            (4, 12): ("2.0004538304666013184441344616170774612", "0.0"),
            (5, 7): ("3.0023045238324857196177862164292829567", "0.0"),
            (5, 12): ("1.9999858373896766588707677396777060073", "0.0"),
        }
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "4cc2ffa4a64d86b763cd435973657a93e3dd13a3062cd148e908e5ee88b2bfd1"


class TestIdentityCheck:
    def test_sigma_cancel(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--which", "sigma-cancel", "--h", "1..2")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        assert {c["identity"] for c in report["cases"]} == {"odd-sum-cancels", "even-sums-equal"}

    def test_sigma_cancel_sees_one_changed_cell(self, capsys, monkeypatch):
        # a negative control: with one cell of sigma2 changed, sigma1 is no
        # longer its cell-by-cell negation, and the suite must say so
        direct = cli.sigma2

        def changed(h):
            block = {e: dict(combo) for e, combo in direct(h).items()}
            top = block[max(block)]
            top[max(top)] += Fraction(1, 7)
            return block

        monkeypatch.setattr(cli, "sigma2", changed)
        code, out, _ = run(capsys, "identity-check", "--which", "sigma-cancel", "--h", "2")
        assert code == 1
        report = json.loads(out)
        assert report["cases"] == [
            {"h": 2, "identity": "odd-sum-cancels", "pass": False},
            {"h": 2, "identity": "even-sums-equal", "pass": True},
        ]

    def test_sigma0(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--which", "sigma0", "--h", "0..1")
        assert code == 0
        report = json.loads(out)
        values = {c["h"]: c["value"] for c in report["cases"]}
        assert values[0] == "1/2 J_1"
        assert values[1] == "0"

    def test_realjs_small(self, capsys):
        code, out, _ = run(
            capsys, "identity-check", "--which", "realjs", "--p", "2", "--q", "2", "--k", "3..5", "--tol", "1e-9"
        )
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_expsum_small(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--which", "expsum", "--n", "3", "--k", "3..6")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_expsum_keeps_a_tolerance_below_the_float_range(self, capsys):
        # 1e-400 as a float is 0.0, which no rounded comparison meets
        argv = ("--which", "expsum", "--n", "1", "--k", "3", "--prec", "1400", "--tol", "1e-400")
        code, out, _ = run(capsys, "identity-check", *argv)
        assert code == 0
        assert json.loads(out)["summary"] == {"total": 2, "passed": 2, "failed": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ("--which", "expsum", "--prec", "20"),
            ("--which", "realjs", "--p", "0"),
            ("--which", "sigma-cancel", "--h", "0"),
            ("--which", "expsum", "--n", "0"),
        ],
        ids=["expsum-low-prec", "realjs-p0", "sigma-cancel-h0", "expsum-n0"],
    )
    def test_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "identity-check", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("identity-check:")

    @pytest.mark.parametrize(
        "which,flag,value,least",
        [
            ("realjs", "prec", "20", 53),
            ("realjs", "k", "1", 3),
            ("expsum", "k", "2", 3),
            ("expsum", "prec", "20", 53),
            ("sigma0", "h", "-1", 0),
        ],
    )
    def test_bound_error_names_the_flag(self, capsys, which, flag, value, least):
        code, out, err = run(capsys, "identity-check", "--which", which, f"--{flag}", value)
        assert (code, out) == (2, "")
        assert err == f"identity-check: --{flag} must be >= {least}, got {value}\n"

    @pytest.mark.parametrize(
        "which,argv,stray",
        [
            ("sigma-cancel", ("--h", "1", "--k", "3..5", "--tol", "7", "--p", "9"), "k"),
            ("sigma-cancel", ("--prec", "64"), "prec"),
            ("sigma0", ("--h", "0..1", "--prec", "10"), "prec"),
            ("sigma0", ("--n", "2"), "n"),
            ("realjs", ("--p", "1", "--q", "1", "--k", "3", "--h", "5"), "h"),
            ("realjs", ("--n", "4"), "n"),
            ("expsum", ("--n", "1", "--k", "3", "--p", "3"), "p"),
            ("expsum", ("--q", "2"), "q"),
            ("expsum", ("--h", ""), "h"),
        ],
    )
    def test_flag_the_suite_does_not_read(self, capsys, which, argv, stray):
        code, out, err = run(capsys, "identity-check", "--which", which, *argv)
        assert (code, out) == (2, "")
        assert err == f"identity-check: --which {which} does not read --{stray}\n"

    def test_config_key_the_suite_does_not_read_stays_unread(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 1, "prec": 64, "tol": "1e-9", "k": "3"}))
        argv = ("--config", str(cfg), "identity-check", "--which", "sigma0", "--h", "0")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["summary"] == {"total": 1, "passed": 1, "failed": 0}
        assert run(capsys, *argv, "--prec", "64")[:2] == (2, "")

    @pytest.mark.parametrize("which", ["realjs", "expsum"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
    def test_bad_tolerance_is_usage_error(self, capsys, which, tol):
        code, out, err = run(capsys, "identity-check", "--which", which, "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith(f"identity-check: --tol must be a finite non-negative number, got {tol!r}")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "which,key,extra",
        [
            ("realjs", "k", ("--p", "1", "--q", "1")),
            ("expsum", "k", ("--n", "1")),
            ("sigma-cancel", "h", ()),
            ("sigma0", "h", ()),
        ],
    )
    def test_empty_list_is_usage_error(self, capsys, tmp_path, source, which, key, extra):
        # an empty list is an error, not a request for the default list
        argv = ("identity-check", "--which", which, *extra)
        if source == "flag":
            argv = (*argv, f"--{key}", "")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: ""}))
            argv = ("--config", str(cfg), *argv)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "identity-check: empty integer list: ''\n"

    def test_list_values_run_once_in_order(self, capsys):
        argv = ("identity-check", "--which", "realjs", "--p", "1", "--q", "1", "--k", "5,5,5")
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert (code, [case["k"] for case in report["cases"]]) == (0, [5])
        assert report["summary"]["total"] == 1
        code, out, _ = run(capsys, "identity-check", "--which", "sigma0", "--h", "3,0,3")
        assert (code, [case["h"] for case in json.loads(out)["cases"]]) == (0, [0, 3, 3])


class TestRangeErrors:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("5..3,7", "reversed range: '5..3'"),
            ("7, 9..8", "reversed range: '9..8'"),
            ("3..5..7", "malformed range: '3..5..7'"),
            ("4,3..5..7", "malformed range: '3..5..7'"),
            ("3..x", "malformed range: '3..x'"),
            ("3..", "malformed range: '3..'"),
            ("3,a", "malformed integer: 'a'"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [("verify", "--r", "3"), ("identity-check", "--which", "expsum", "--n", "1")],
        ids=["verify", "identity-check"],
    )
    def test_bad_range_is_usage_error(self, capsys, argv, text, message):
        # the range is never dropped while the rest of the list runs
        code, out, err = run(capsys, *argv, "--k", text)
        assert (code, out) == (2, "")
        assert err == f"{argv[0]}: {message}\n"

    @pytest.mark.parametrize(
        "text,message", [("3..x", "malformed range: '3..x'"), ("a", "malformed integer: 'a'")]
    )
    def test_malformed_config_list_is_usage_error(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": text}))
        code, out, err = run(capsys, "--config", str(cfg), "verify", "--r", "3")
        assert (code, out) == (2, "")
        assert err == f"verify: {message}\n"


class TestPlumbing:
    def test_byte_identical_stdout(self, capsys):
        _, first, _ = run(capsys, "closed-form", "--r", "7", "--format", "json")
        _, second, _ = run(capsys, "closed-form", "--r", "7", "--format", "json")
        assert first == second
        _, v1, _ = run(capsys, "verify", "--r", "3", "--k", "3,5", "--prec", "80", "--tol", "1e-8")
        _, v2, _ = run(capsys, "verify", "--r", "3", "--k", "3,5", "--prec", "80", "--tol", "1e-8")
        assert v1 == v2

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "meansq.json"
        cfg.write_text(json.dumps({"format": "latex"}))
        code, out, _ = run(capsys, "--config", str(cfg), "closed-form", "--r", "5")
        assert code == 0
        assert out.startswith("\\frac")

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "meansq.json"
        cfg.write_text(json.dumps({"format": "latex"}))
        code, out, _ = run(capsys, "--config", str(cfg), "closed-form", "--r", "5", "--format", "text")
        assert code == 0
        assert not out.startswith("\\frac")

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--config", str(tmp_path / "absent.json"), "closed-form", "--r", "5")
        assert code == 2

    def test_config_not_an_object_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "meansq.json"
        cfg.write_text("[1]")
        code, out, err = run(capsys, "--config", str(cfg), "closed-form", "--r", "5")
        assert code == 2
        assert out == ""
        assert "cannot read config" in err

    def test_config_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "meansq.json"
        cfg.write_text(json.dumps({"pres": 20}))
        code, out, err = run(capsys, "--config", str(cfg), "closed-form", "--r", "5")
        assert code == 2
        assert out == ""
        assert "cannot read config" in err and "pres" in err

    def test_pedantic_notes_on_stderr(self, capsys):
        code, out, err = run(capsys, "closed-form", "--r", "5", "--pedantic")
        assert code == 0
        assert "pedantic" in err
        assert "pedantic" not in out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["closed-form", "--bogus"])
        assert exc.value.code == 2


class TestHelp:
    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_lists_the_table_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if command is None else [command, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[\w-]+", out))
        if command is None:
            assert flags == {"--help", "--config"}
            assert all(name in out for name in cli._COMMANDS)
        else:
            expected = {f"--{key}" for key in cli._COMMANDS[command][2]} | {"--help", "--pedantic"}
            assert flags == expected | ({"--which"} if command == "identity-check" else set())


class TestRepeatedCalls:
    """Many ``main`` calls in one process share one parser and leak nothing into the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "argv,flags,config",
        [
            (
                ("verify", "--r", "3", "--k", "5"),
                ("--prec", "60", "--tol", "1e-8", "--pedantic"),
                {"prec": 60, "tol": "1e-8", "pedantic": True},
            ),
            (("closed-form", "--r", "5"), ("--format", "latex", "--pedantic"), {"format": "latex", "pedantic": True}),
        ],
        ids=["verify", "closed-form"],
    )
    def test_settings_do_not_carry_over(self, capsys, tmp_path, argv, flags, config):
        cli._build_parser.cache_clear()
        fresh = run(capsys, *argv)
        assert fresh[0] == 0
        assert run(capsys, *argv, *flags) != fresh
        assert run(capsys, *argv) == fresh
        cfg = tmp_path / "meansq.json"
        cfg.write_text(json.dumps(config))
        assert run(capsys, "--config", str(cfg), *argv) != fresh
        assert run(capsys, *argv) == fresh


class TestConfigValueTypes:
    @pytest.mark.parametrize(
        "config,argv,key",
        [
            ({"r": "5"}, ("closed-form",), "r"),
            ({"prec": "128"}, ("verify", "--r", "3", "--k", "5"), "prec"),
            ({"n": 4.0}, ("sin-sum",), "n"),
            ({"prec": True}, ("verify", "--r", "3", "--k", "5"), "prec"),
            ({"k": "7"}, ("sin-sum", "--n", "2"), "k"),
            ({"h": [1, 2]}, ("identity-check", "--which", "sigma0"), "h"),
            ({"k": None}, ("verify", "--r", "3"), "k"),
            ({"format": "html"}, ("closed-form", "--r", "5"), "format"),
            ({"tol": [1]}, ("verify", "--r", "3", "--k", "5"), "tol"),
            ({"pedantic": "yes"}, ("closed-form", "--r", "3"), "pedantic"),
            ({"prec": "x"}, ("identity-check", "--which", "sigma0"), "prec"),
        ],
        ids=["int-as-str", "prec-as-str", "int-as-float", "int-as-bool", "sin-k-as-str",
             "list-as-array", "list-as-null", "format-choice", "tol-as-array", "pedantic-as-str",
             "key-the-suite-does-not-read"],
    )
    def test_bad_value_is_usage_error(self, capsys, tmp_path, config, argv, key):
        cfg = tmp_path / "meansq.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert "cannot read config" in err and repr(key) in err

    def test_list_options_take_ints_and_strings(self, capsys, tmp_path):
        cfg = tmp_path / "meansq.json"
        cfg.write_text(json.dumps({"r": "3..4", "k": 5, "prec": 96, "tol": 1e-9}))
        code, out, _ = run(capsys, "--config", str(cfg), "verify")
        assert code == 0
        assert [(c["r"], c["k"]) for c in json.loads(out)["cases"]] == [(3, 5), (4, 5)]
        code, out, _ = run(capsys, "--config", str(cfg), "identity-check", "--which", "realjs", "--p", "1", "--q", "1")
        assert code == 0
        assert [c["k"] for c in json.loads(out)["cases"]] == [5]

    def test_keys_of_other_subcommands_are_not_read(self, capsys, tmp_path):
        cfg = tmp_path / "meansq.json"
        cfg.write_text(json.dumps({"h": "1..2", "tol": "1e-9"}))
        code, out, _ = run(capsys, "--config", str(cfg), "sin-sum", "--n", "2")
        assert code == 0
        assert out.strip() == "1/3 J_2"


# Random argv at small sizes (r <= 12, n <= 20, k <= 60).  One family holds
# only well-formed values, with every required option; the other mixes in
# values that must be refused, may leave any option out, and may add one
# flag that the identity-check suite does not read; the last is tokens in
# any order.  Each identity-check suite gets only the flags it reads, and
# realjs and expsum always a single small modulus, so no example runs a
# default modulus sweep.
BAD = st.sampled_from(["abc", "nan", "5..3", "-1", "0", "", "3..", "1,,2", "inf", "1e3"])
FORMAT_VALUES = st.sampled_from(["json", "latex", "text", "html"])
STRAY = st.sampled_from([[], ["--p", "1"], ["--n", "1"], ["--k", "3"], ["--h", "1"], ["--prec", "64"]])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _int_lists(lo, hi):
    spans = st.tuples(st.integers(lo, hi), st.integers(0, 1)).map(lambda t: f"{t[0]}..{t[0] + t[1]}")
    return st.one_of(_ints(lo, hi), spans)


def _command(name, *options):
    return st.tuples(st.just([name]), *options).map(lambda parts: [token for part in parts for token in part])


def _commands(well_formed):
    def required(flag, values):
        if well_formed:
            return values.map(lambda v: [flag, v])
        return optional(flag, values)

    def optional(flag, values):
        if not well_formed:
            values = st.one_of(values, BAD)
        return st.one_of(st.just([]), values.map(lambda v: [flag, v]))

    def suite(which, *options):
        return _command("identity-check", st.just(["--which", which]), *options, *([] if well_formed else [STRAY]))

    modulus = _ints(3, 12).map(lambda k: ["--k", k])
    return st.one_of(
        _command("closed-form", required("--r", _ints(1, 12)), optional("--format", FORMAT_VALUES)),
        _command(
            "sin-sum",
            required("--n", _ints(0, 20)),
            optional("--k", _ints(3, 60)),
            optional("--format", FORMAT_VALUES),
        ),
        _command(
            "verify",
            required("--r", _int_lists(1, 12)),
            required("--k", _int_lists(3, 60)),
            optional("--prec", st.sampled_from(["53", "96"])),
            optional("--tol", st.sampled_from(["1e-10", "1e-300"])),
        ),
        suite("realjs", optional("--p", _ints(1, 2)), optional("--q", _ints(1, 2)), modulus),
        suite("expsum", optional("--n", _ints(1, 2)), modulus),
        suite("sigma-cancel", optional("--h", _int_lists(1, 5))),
        suite("sigma0", optional("--h", _int_lists(0, 5))),
        *([] if well_formed else [suite("bogus")]),
    )


ARGV = st.one_of(
    _commands(well_formed=True),
    _commands(well_formed=False),
    st.lists(st.sampled_from(["closed-form", "verify", "--r", "--k", "--n", "--format", "5", "json", "--bogus"]), max_size=5),
)


class TestRandomArgv:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ARGV)
    def test_exit_code_without_traceback(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
