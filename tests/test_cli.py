"""Tests for the command-line interface (exit codes, formats, determinism)."""

import hashlib
import json
from fractions import Fraction

import pytest

from meansq.cli import main
from meansq.symbolic import parse_closed_form


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
        from meansq.mean_square import mean_square_odd

        code, out, _ = run(capsys, "closed-form", "--r", "5", "--format", "json")
        assert code == 0
        assert parse_closed_form(out) == mean_square_odd(5)


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

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--r", "3", "--k", "5", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "--tol" in err

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
