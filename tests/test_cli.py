import json
from pathlib import Path

import pytest

from hopfgenus import cli, symm
from hopfgenus import homology as H
from hopfgenus.core import GradedPolynomial

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def assert_flag_rejected(argv, flag, capsys):
    # a negative size flag is a usage error that names the flag
    code, out = run(argv, capsys)
    assert code == 2
    report = json.loads(out)
    assert report["code"] == "parse-error"
    assert flag in report["message"]


class TestSymmCommand:
    def test_identity_check(self, capsys):
        code, out = run(
            ["symm", "identity-check", "--which", "d-classes", "--max-weight", "10"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "exact-match"
        assert report["max_weight"] == 10
        assert report["config"]["degree"] == 30

    def test_a_classes(self, capsys):
        code, out = run(
            ["symm", "identity-check", "--which", "a-classes", "--max-weight", "10"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["status"] == "exact-match"

    @pytest.mark.parametrize(
        "which,weight", [("d-classes", 7), ("a-classes", 5), ("a-classes", 6)]
    )
    def test_mismatch_reports_first_weight(self, capsys, monkeypatch, which, weight):
        name = "d_classes_exp_form" if which == "d-classes" else "a_classes"
        original = getattr(symm, name)

        def corrupted(D):
            series = original(D)
            series.comps[weight] = series.comps[weight] + GradedPolynomial.generator("b", weight)
            return series

        monkeypatch.setattr(symm, name, corrupted)
        code, out = run(
            ["symm", "identity-check", "--which", which, "--max-weight", "10"], capsys
        )
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "mismatch"
        assert report["first_mismatch_weight"] == weight

    def test_negative_max_weight(self, capsys):
        argv = ["symm", "identity-check", "--which", "d-classes", "--max-weight", "-3"]
        assert_flag_rejected(argv, "--max-weight", capsys)


class TestParserReuse:
    def test_main_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        run(["series", "--which", "sOmega", "--bound", "5"], capsys)

        def fail():
            raise AssertionError("build_parser called again")

        monkeypatch.setattr(cli, "build_parser", fail)
        code, out = run(["series", "--which", "sOmega", "--bound", "9", "--format", "csv"], capsys)
        assert code == 0
        assert out == "degree,dim\n" + "".join(
            "%d,%d\n" % (n, 1 if n in (0, 5, 9) else 0) for n in range(10)
        )
        code, out = run(["qsymm", "lyndon", "--bound", "4"], capsys)
        assert code == 0
        assert out == "(1,1,2)\n(1,3)\n(4)\n"


class TestUsageErrors:
    """The parser's own usage errors are JSON parse-errors on stdout, exit 2."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["qsymm", "hilbert", "--bound", "x"], "invalid int value: 'x'"),
            (["qsymm", "hilbert"], "required: --bound"),
            (["sym", "identity-check"], "invalid choice: 'sym'"),
        ],
        ids=["bad-bound", "missing-bound", "unknown-subcommand"],
    )
    def test_parse_error_on_stdout(self, argv, needle, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["code"] == "parse-error"
        assert needle in report["message"]
        assert captured.err == ""


class TestQsymmCommand:
    @pytest.mark.parametrize("text", ["arith:1", "arith:1:2:3", "odd:x", "set:", "set:3,,5", "set:a"])
    def test_malformed_profile(self, text, capsys):
        code, out = run(["qsymm", "hilbert", "--profile", text, "--bound", "5"], capsys)
        assert code == 2
        assert json.loads(out) == {"code": "parse-error", "message": "cannot parse profile %r" % text}

    def test_negative_bound(self, capsys):
        assert_flag_rejected(["qsymm", "hilbert", "--bound", "-3"], "--bound", capsys)

    @pytest.mark.parametrize("action", ["hilbert", "lyndon"])
    def test_zero_bound(self, action, capsys):
        # the library needs a positive bound; the flag says so before the call
        assert_flag_rejected(["qsymm", action, "--bound", "0"], "--bound", capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["qsymm", "hilbert", "--flavor", "lie", "--profile", "set:2,2", "--bound", "6"],
            ["qsymm", "lyndon", "--profile", "set:2,2", "--bound", "4"],
        ],
    )
    def test_repeated_profile_weight(self, argv, capsys):
        code, out = run(argv, capsys)
        assert code == 2
        assert json.loads(out) == {"code": "parse-error", "message": "explicit profile repeats weight 2"}


@pytest.mark.parametrize("t, index", [("1:1/3,1:2", 1), ("3:1, 1:2, 03:0", 3)])
def test_repeated_deformation_index(t, index, capsys):
    code, out = run(["genus", "deform", "--manifold", "CP2", "--series", "Todd", "--t", t], capsys)
    assert code == 2
    assert json.loads(out) == {
        "code": "parse-error",
        "message": "deformation index %d appears more than once" % index,
    }


class TestMzvCommand:
    def test_eval(self, capsys):
        code, out = run(["mzv", "eval", "--index", "(2)", "--error", "1e-8"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["admissible"] is True
        assert abs(report["value"] - 1.6449340668) < 1e-8
        assert report["error_bound"] <= 1e-8

    def test_divergent_exit_1(self, capsys):
        code, out = run(["mzv", "eval", "--index", "(1)"], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "divergent-index"

    def test_bad_index_exit_2(self, capsys):
        code, out = run(["mzv", "eval", "--index", "nope"], capsys)
        assert code == 2
        assert json.loads(out)["code"] == "parse-error"

    @pytest.mark.parametrize("error", ["nan", "inf", "-inf"])
    def test_non_finite_error_exit_2(self, capsys, error):
        code, out = run(["mzv", "eval", "--index", "(3)", "--error=" + error], capsys)
        assert code == 2
        assert json.loads(out)["code"] == "config-error"

    @pytest.mark.parametrize("error", ["NaN", "Infinity", '"1e-8"', "true"])
    def test_non_number_error_in_config_exit_2(self, capsys, tmp_path, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"error": %s}' % error)
        code, out = run(["mzv", "eval", "--index", "(2,3)", "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(out)["code"] == "config-error"

    def test_unreachable_target_is_a_precision_error(self, capsys):
        code, out = run(["mzv", "eval", "--index", "(2,3)", "--error", "1e-20"], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "precision-error"

    def test_depth_two_enclosure_meets_target(self, capsys):
        code, out = run(["mzv", "eval", "--index", "(1,2)", "--error", "1e-12"], capsys)
        assert code == 0
        report = json.loads(out)
        assert abs(report["value"] - 1.2020569031595942) <= report["error_bound"] <= 1e-12


class TestTorCommand:
    def test_exterior_csv(self, capsys):
        code, out = run(
            ["tor", "--algebra", "exterior:5,9", "--bound", "20", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,t,total,dim"
        assert "1,5,6,1" in lines

    @pytest.mark.parametrize("extra", [[], ["--degree", "10"]])
    def test_negative_bound(self, extra, capsys):
        assert_flag_rejected(["tor", "--algebra", "exterior:5", "--bound", "-3"] + extra, "--bound", capsys)

    @pytest.mark.parametrize("degree", ["10", "30"])
    def test_degree_does_not_truncate(self, degree, capsys):
        argv = ["tor", "--algebra", "exterior:5,9", "--bound", "20", "--degree", degree, "--format", "csv"]
        code, out = run(argv, capsys)
        assert code == 0
        assert "exit 0\n" + out == (GOLDEN / "tor-exterior.csv.out").read_text()

    def test_algebra_truncated_at_bound(self, capsys):
        code, out = run(["tor", "--algebra", "exterior:5,9", "--bound", "40", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,t,total,dim"
        # Tor is polynomial on generators of total degree 6 and 10
        totals = [0] * 41
        for line in lines[1:]:
            s, t, total, dim = map(int, line.split(","))
            totals[total] += dim
        assert totals == H.polynomial_hilbert([6, 10], 40)

    def test_malformed_degrees(self, capsys):
        code, out = run(["tor", "--algebra", "exterior:3,x", "--bound", "8"], capsys)
        assert code == 2
        assert json.loads(out) == {
            "code": "parse-error",
            "message": "bad algebra degrees in 'exterior:3,x'",
        }

    def test_unknown_kind(self, capsys):
        code, out = run(["tor", "--algebra", "divided:5", "--bound", "10"], capsys)
        assert code == 2


class TestSeriesCommand:
    def test_thh(self, capsys):
        code, out = run(["series", "--which", "THH", "--bound", "12", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,dim"
        assert lines[1] == "0,1"
        assert lines[-1] == "12,4"

    def test_model_flag(self, capsys):
        _, out_k = run(["series", "--which", "KTheoryFiber", "--bound", "4", "--format", "csv"], capsys)
        _, out_i = run(
            ["series", "--which", "KTheoryFiber", "--bound", "4", "--model", "igt0", "--format", "csv"],
            capsys,
        )
        assert "2,1" in out_k and "2,0" in out_i

    def test_negative_bound(self, capsys):
        assert_flag_rejected(["series", "--which", "THH", "--bound", "-1"], "--bound", capsys)


class TestGenusCommand:
    def test_compute(self, capsys):
        code, out = run(["genus", "compute", "--manifold", "CP2", "--series", "A-hat"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == "-1/8"

    def test_deform(self, capsys):
        code, out = run(
            ["genus", "deform", "--manifold", "CP1", "--series", "A-hat", "--t", "1:1/3,3:0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == "2/3"

    def test_deform_skips_empty_entries(self, capsys):
        argv = ["genus", "deform", "--manifold", "CP2", "--series", "Todd", "--t"]
        code, out = run(argv + ["1:1/2,,3:1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["t"] == {"1": "1/2", "3": "1"}
        assert run(argv + ["1:1/2,3:1"], capsys) == (0, out)

    def test_malformed_deformation_entry(self, capsys):
        code, out = run(["genus", "deform", "--manifold", "CP2", "--t", "1:x"], capsys)
        assert code == 2
        assert json.loads(out) == {"code": "parse-error", "message": "bad deformation entry '1:x'"}

    def test_unknown_series(self, capsys):
        code, out = run(["genus", "compute", "--manifold", "CP2", "--series", "Foo"], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "unknown-name"

    def test_unknown_manifold(self, capsys):
        code, out = run(["genus", "compute", "--manifold", "K3"], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "unknown-name"

    def test_manifold_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "name": "myCP1",
                    "dim_c": 1,
                    "generators": [{"sym": "x", "deg": 2, "nilpotency": 1}],
                    "total_chern": "1 + 2*x[1]",
                    "volume_monomial": "x[1]",
                }
            )
        )
        code, out = run(
            ["genus", "compute", "--manifold-file", str(path), "--series", "Todd"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == "1"


    _CP1 = {
        "name": "myCP1",
        "dim_c": 1,
        "generators": [{"sym": "x", "deg": 2, "nilpotency": 1}],
        "total_chern": "1 + 2*x[1]",
        "volume_monomial": "x[1]",
    }

    @pytest.mark.parametrize(
        "change",
        [
            {"dim_c": "two"},
            {"dim_c": True},
            {"generators": {"sym": "x"}},
            {"generators": [{"sym": "x", "deg": 2, "nilpotency": "1"}]},
            {"generators": [{"sym": "xy", "deg": 2, "nilpotency": 1}]},
            {"generators": [{"sym": "x", "deg": 3, "nilpotency": 1}]},
            {"generators": [{"sym": "x", "deg": 2, "nilpotency": 0}]},
            {
                "dim_c": 2,
                "generators": [{"sym": "x", "deg": 2, "nilpotency": 1}] * 2,
                "volume_monomial": "x[1]^2",
            },
            {"dim_c": 2},
            {"volume_monomial": "2*x[1]"},
            {"total_chern": "1 + 2*y[1]"},
            {"name": None},
        ],
        ids=[
            "dim_c-string",
            "dim_c-bool",
            "generators-object",
            "nilpotency-string",
            "sym-two-letters",
            "deg-odd",
            "nilpotency-zero",
            "sym-repeated",
            "volume-below-dim_c",
            "volume-coefficient",
            "unknown-generator",
            "name-null",
        ],
    )
    def test_malformed_manifold_file(self, capsys, tmp_path, change):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(self._CP1, **change)))
        code, out = run(["genus", "compute", "--manifold-file", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "parse-error"

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_manifold_file_is_a_config_error(self, capsys, tmp_path, where):
        path = tmp_path / "none.json" if where == "missing" else tmp_path
        code, out = run(["genus", "compute", "--manifold-file", str(path)], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["code"] == "config-error"
        assert report["message"].startswith("cannot read manifold file %s: " % path)

    def test_manifold_file_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([self._CP1]))
        code, out = run(["genus", "compute", "--manifold-file", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "parse-error"

    def test_too_many_factors_is_a_value_error(self, capsys):
        manifold = "x".join(["CP1"] * 14)
        code, out = run(["genus", "compute", "--manifold", manifold], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["code"] == "value-error"
        assert "13 letters" in report["message"]

    def test_text_format_prints_json(self, capsys):
        code, out = run(["genus", "compute", "--manifold", "CP2", "--format", "text"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == "-1/8"


class TestCoactionCommand:
    def test_cp1(self, capsys):
        code, out = run(["coaction", "--manifold", "CP1", "--class", "1", "--bound", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["components"]["1"] == "1"
        assert report["components"]["y2"] == "-4*x[1]"

    def test_zero_exponent_class_is_the_unit(self, capsys):
        argv = ["coaction", "--manifold", "CP2", "--bound", "4", "--class"]
        code, out = run(argv + ["x[1]^0"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "1"
        assert report["components"]["1"] == "1"
        assert run(argv + ["1"], capsys) == (0, out)

    @pytest.mark.parametrize("cls", ["c[1]", "x[2]", "x[1] + y[1]"])
    def test_generator_not_in_the_model(self, capsys, cls):
        argv = ["coaction", "--manifold", "CP2", "--bound", "4", "--class", cls]
        code, out = run(argv, capsys)
        assert code == 1
        report = json.loads(out)
        assert report["code"] == "parse-error"
        assert "unknown generator" in report["message"]

    def test_product_generators_are_known(self, capsys):
        argv = ["coaction", "--manifold", "CP1xCP1", "--bound", "4", "--class", "y[1]"]
        code, out = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["components"]["1"] == "y[1]"

    def test_bound_past_the_ring(self, capsys, monkeypatch):
        # components above real degree 2*dim_c = 12 are zero and never
        # enumerated: a partition of weight past 6 fails at once
        partitions = symm.partitions

        def spy(w, top):
            if w > 6:
                raise AssertionError("partitions of weight %d requested" % w)
            return partitions(w, top)

        monkeypatch.setattr(symm, "partitions", spy)
        argv = ["coaction", "--manifold", "CP6", "--class", "1", "--bound"]
        code, out = run(argv + ["100000"], capsys)
        assert code == 0
        near = json.loads(run(argv + ["12"], capsys)[1])
        assert list(json.loads(out)["components"].items()) == list(near["components"].items())

    def test_negative_bound(self, capsys):
        argv = ["coaction", "--manifold", "CP1", "--class", "1", "--bound", "-4"]
        assert_flag_rejected(argv, "--bound", capsys)


class TestConfigHandling:
    def test_file_then_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degree": 8}))
        code, out = run(
            ["symm", "identity-check", "--which", "d-classes", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["config"]["degree"] == 8
        code, out = run(
            [
                "symm",
                "identity-check",
                "--which",
                "d-classes",
                "--config",
                str(cfg),
                "--degree",
                "6",
            ],
            capsys,
        )
        assert json.loads(out)["config"]["degree"] == 6

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json")
        code, out = run(["acceptance", "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(out)["code"] == "config-error"

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, out = run(["series", "--which", "THH", "--bound", "4", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        ["[]", '{"degree": 0}', '{"error": -1}', '{"model": "x"}', '{"format": "x"}'],
    )
    def test_invalid_config_value_exit_2(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, out = run(["series", "--which", "THH", "--bound", "4", "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(out)["code"] == "config-error"

    @pytest.mark.parametrize("degree", ['"x"', "null", "true", "2.5", '"30"', "[30]"])
    def test_non_integer_degree_in_config_exit_2(self, capsys, tmp_path, degree):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"degree": %s}' % degree)
        code, out = run(["series", "--which", "THH", "--bound", "4", "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(out)["code"] == "config-error"

    @pytest.mark.parametrize("output", ["2.5", "1", "true", "[]", "{}"])
    def test_non_path_output_in_config_exit_2(self, capsys, tmp_path, output):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"output": %s}' % output)
        code, out = run(["series", "--which", "THH", "--bound", "4", "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(out)["code"] == "config-error"
        # stdout is still open and usable afterwards
        code, out = run(["series", "--which", "THH", "--bound", "4"], capsys)
        assert code == 0 and out

    def test_null_output_in_config_prints(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"output": null, "degree": 12}')
        code, out = run(["series", "--which", "sOmega", "--bound", "5", "--config", str(cfg)], capsys)
        assert code == 0
        _, plain = run(["series", "--which", "sOmega", "--bound", "5"], capsys)
        assert out == plain

    def test_determinism(self, capsys):
        argv = ["series", "--which", "sOmega", "--bound", "15", "--format", "json"]
        _, out1 = run(argv, capsys)
        _, out2 = run(argv, capsys)
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _ = run(
            ["series", "--which", "sOmega", "--bound", "5", "--format", "csv", "--output", str(path)],
            capsys,
        )
        assert code == 0
        assert path.read_text().startswith("degree,dim")

    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, where):
        path = tmp_path / "missing" / "out.csv" if where == "missing-parent" else tmp_path
        argv = ["series", "--which", "THH", "--bound", "4", "--output", str(path)]
        code, out = run(argv, capsys)
        assert code == 2
        report = json.loads(out)
        assert report["code"] == "config-error"
        assert report["message"].startswith("cannot write output %s: " % path)
        assert list(tmp_path.iterdir()) == []


class TestAcceptanceCommand:
    def test_subset_runs(self, capsys):
        code, out = run(["acceptance", "--only", "4", "7", "12"], capsys)
        assert code == 0
        assert "all passed" in out

    def test_lowered_degree_skips(self, capsys):
        code, out = run(["acceptance", "--only", "1", "9", "--degree", "4"], capsys)
        assert code == 0
        assert "SKIPPED" in out and "FAIL" not in out

    def test_json_format(self, capsys):
        code, out = run(["acceptance", "--only", "10", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert report["results"][0]["id"] == 10

    def test_unknown_id_is_a_parse_error(self, capsys):
        # a mistyped id must not turn the check into a vacuous pass
        code, out = run(["acceptance", "--only", "4", "99", "--format", "json"], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["code"] == "parse-error"
        assert "99" in report["message"] and "4" not in report["message"]
