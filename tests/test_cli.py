import dataclasses
import json
import os
import time
from fractions import Fraction

import pytest

from psinv import criteria, segment
from psinv.cli import ModelFileError, build_parser, load_model_file, main
from psinv.scalars import parse_rational


def run(capsys, *argv):
    capsys.readouterr()  # drop output of any preparatory commands
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, name, extra=None, params=None):
    """Materialize a catalog model and splice extra keys into the file."""
    path = tmp_path / f"{name}.json"
    argv = ["model", name, "--emit", str(path)]
    if params:
        argv += ["--params", json.dumps(params)]
    assert main(argv) == 0
    if extra:
        doc = json.loads(path.read_text())
        doc.update(extra)
        path.write_text(json.dumps(doc))
    return str(path)


class TestParser:
    def test_built_once_without_leaking_state(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep", extra={"rho": ["3/4", "1/4"]})
        build_parser.cache_clear()
        _, floated, _ = run(capsys, "--float", "--report", "json", "check-product", path)
        _, exact, _ = run(capsys, "--report", "json", "check-product", path)
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert json.loads(floated)["certificate"]["1"] == "1.0"
        assert json.loads(exact)["certificate"] == {"0": "0", "1": "1"}


class TestModelFiles:
    def test_emit_and_reload(self, tmp_path, capsys):
        path = write_model(tmp_path, "stochastic_ising", params={"x": "1/2"})
        code, out, err = run(capsys, "--report", "json", "check-markov", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "invariant"
        assert doc["certificate"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep", extra={"surprise": 1})
        code, out, err = run(capsys, "check-product", path)
        assert code == 2
        assert "unknown keys" in err

    def test_missing_schema_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"kappa": 2, "range": 2, "rates": []}))
        code, _, err = run(capsys, "check-product", str(path))
        assert code == 2
        assert "schema" in err

    def test_rational_strings_roundtrip(self, tmp_path):
        path = write_model(tmp_path, "stochastic_ising", params={"x": "1/2"})
        doc = json.loads(open(path).read())
        rates = {(tuple(e["from"]), tuple(e["to"])): e["rate"] for e in doc["rates"]}
        assert rates[((0, 1, 0), (0, 0, 0))] == "4"
        assert rates[((0, 0, 0), (0, 1, 0))] == "1/4"


EDGE_STRINGS = [" 3/5 ", "\t7\n", "1_0", "1/1_0", "1__0", "_1", "1_", "-3/5", "3/-5", "+3/+5",
                "+3/5", "-0", "007/010", "1/0", "-1/0", "0/5", "0.25", "-.5", "1e-3", "1.5E3",
                "٣", "٣/٤", "²", "1/2/3", "", " ", "+", "-", "/5", "5/", "3 /5", "3/ 5", "0x10",
                "nan", "Infinity", "1" * 40 + "/" + "7" * 30, "-" + "9" * 25, "1e400"]


def rho_file(tmp_path, values):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"schema": 1, "kappa": 2, "range": 2, "rates": [],
                                "rho": values}))
    return str(path)


class TestScalarStrings:
    """Rate strings read like Fraction(str): the same value, or the same error."""

    @pytest.mark.parametrize("text", EDGE_STRINGS)
    def test_parse_rational_matches_fraction(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as caught:
                parse_rational(text)
            assert str(caught.value) == str(exc)
        else:
            value = parse_rational(text)
            assert type(value) is Fraction and value == expected

    @pytest.mark.parametrize("as_float", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("text", EDGE_STRINGS)
    def test_model_file_matches_fraction(self, tmp_path, text, as_float):
        """Loaded as rho: the value of Fraction(text), a float with its bits
        under --float, or exit 2 with Fraction's message."""
        path = rho_file(tmp_path, [text, "1/2"])
        try:
            expected = Fraction(text)
            if as_float:
                expected = float(expected)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            with pytest.raises(ModelFileError) as caught:
                load_model_file(path, as_float)
            if not isinstance(exc, OverflowError):
                assert str(exc) in str(caught.value)
            return
        value = load_model_file(path, as_float).rho[0]
        assert type(value) is type(expected)
        assert value.hex() == expected.hex() if as_float else value == expected


class TestStrictModelFields:
    """Booleans, non-finite numbers and non-integer integer fields exit 2
    naming the field."""

    LINE = {"schema": 1, "kappa": 2, "range": 2, "memory": 1,
            "rates": [{"from": [1, 0], "to": [0, 1], "rate": "1"}],
            "kernel": [["1/2", "1/2"], ["1/2", "1/2"]], "rho": ["1/2", "1/2"],
            "beta_left": [{"from": [0], "to": [1], "rate": "1/4"}],
            "beta_right": [{"from": [1], "to": [0], "rate": "1/4"}]}

    def run_doc(self, tmp_path, capsys, doc, *argv):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return run(capsys, *argv, str(path))

    @pytest.mark.parametrize("mode", ["--exact", "--float"])
    @pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"),
                                       float("-inf"), 1e400], ids=repr)
    @pytest.mark.parametrize("field,name,argv", [
        ("rates", "rates[0] rate", ["check-product"]),
        ("kernel", "kernel[1][0]", ["check-markov"]),
        ("rho", "rho[1]", ["check-product"]),
        ("beta_left", "beta_left[0] rate", ["segment"]),
        ("beta_right", "beta_right[0] rate", ["segment"]),
    ])
    def test_scalar_rejected(self, tmp_path, capsys, field, name, argv, value, mode):
        doc = json.loads(json.dumps(self.LINE))
        if field == "kernel":
            doc["kernel"][1][0] = value
        elif field == "rho":
            doc["rho"][1] = value
        else:
            doc[field][0]["rate"] = value
        code, out, err = self.run_doc(tmp_path, capsys, doc, mode, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name} must be a finite number")

    def test_float_overflow_rejected(self, tmp_path, capsys):
        doc = dict(self.LINE, rates=[{"from": [1, 0], "to": [0, 1], "rate": "1e400"}])
        code, out, err = self.run_doc(tmp_path, capsys, doc, "--float", "check-product")
        assert (code, out) == (2, "")
        assert err.startswith("error: rates[0] rate 1e400 is out of float range")
        code, _, _ = self.run_doc(tmp_path, capsys, doc, "check-product")
        assert code == 0

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2", None], ids=repr)
    @pytest.mark.parametrize("field", ["kappa", "range", "memory"])
    def test_integer_field_rejected(self, tmp_path, capsys, field, value):
        code, out, err = self.run_doc(tmp_path, capsys, dict(self.LINE, **{field: value}),
                                      "check-markov")
        assert (code, out) == (2, "")
        assert err == f'error: model file needs an integer "{field}"\n'

    @pytest.mark.parametrize("value", [True, 1.0, "1"], ids=repr)
    def test_schema_rejected(self, tmp_path, capsys, value):
        code, _, err = self.run_doc(tmp_path, capsys, dict(self.LINE, schema=value),
                                    "check-product")
        assert code == 2
        assert err == 'error: model file must declare "schema": 1\n'

    @pytest.mark.parametrize("letter", [1.9, True, "1", 1.0], ids=repr)
    @pytest.mark.parametrize("side", ["from", "to"])
    def test_word_letters_rejected(self, tmp_path, capsys, side, letter):
        rate = {"from": [1, 0], "to": [0, 1], "rate": "1", side: [letter, 0]}
        code, out, err = self.run_doc(tmp_path, capsys, dict(self.LINE, rates=[rate]),
                                      "check-product")
        assert (code, out) == (2, "")
        assert err.startswith("error: rates[0] words must list integer letters")

    def test_valid_file_still_loads(self, tmp_path, capsys):
        code, _, err = self.run_doc(tmp_path, capsys, self.LINE, "check-markov")
        assert (code, err) == (0, "")


class TestCheckCommands:
    def test_check_product_invariant_exit0(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep", extra={"rho": ["1/4", "3/4"]})
        code, out, _ = run(capsys, "check-product", path)
        assert code == 0
        assert "invariant" in out

    def test_check_product_violation_exit1(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep3",
                           params={"r10": 1, "r20": 1, "r21": 1},
                           extra={"rho": ["1/3", "1/3", "1/3"]})
        code, out, _ = run(capsys, "--report", "json", "check-product", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "not-invariant"
        assert doc["witness"]["word"] is not None

    def test_check_markov_needs_kernel(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep")
        code, _, err = run(capsys, "check-markov", path)
        assert code == 2
        assert "kernel" in err

    def test_verdicts_are_reproducible(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep3",
                           params={"r10": 1, "r20": 1, "r21": 1},
                           extra={"rho": ["1/3", "1/3", "1/3"]})
        docs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--report", "json", "check-product", path)
            doc = json.loads(out)
            doc.pop("timings")
            docs.append(doc)
        assert docs[0] == docs[1]


class TestOracleCommands:
    def test_verify_cycle_agreement(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep", extra={"rho": ["1/2", "1/2"]})
        code, out, _ = run(capsys, "--report", "json", "verify-cycle", path, "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle_agrees"] is True
        assert doc["residuals"]["oracle_max_residual"] == "0"

    def test_absorbing_voter(self, tmp_path, capsys):
        path = write_model(tmp_path, "voter")
        code, out, _ = run(capsys, "--report", "json", "absorbing", path,
                           "--n-min", "3", "--n-max", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "no-full-support-markov-law"
        assert doc["memory_bound"] == 5
        assert doc["pattern_persists"] is True

    def test_oracle_disagreement_exit4(self, tmp_path, capsys, monkeypatch):
        path = write_model(tmp_path, "tasep", extra={"rho": ["1/2", "1/2"]})
        real = criteria.check_markov_cycle

        def flipped(ctx, n):
            report = real(ctx, n)
            return dataclasses.replace(report, invariant=not report.invariant)

        monkeypatch.setattr(criteria, "check_markov_cycle", flipped)
        code, out, _ = run(capsys, "--report", "json", "verify-cycle", path, "--n", "4")
        assert code == 4
        assert json.loads(out)["oracle_agrees"] is False

    def test_state_cap_exit3(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep", extra={"rho": ["1/2", "1/2"]})
        code, _, err = run(capsys, "--max-states", "8", "verify-cycle", path, "--n", "6")
        assert code == 3
        assert "cap" in err


class TestTwoDimensional:
    def test_check_2d_invariant(self, tmp_path, capsys):
        path = write_model(tmp_path, "flip_2d", params={"a": 4},
                           extra={"rho": ["2/3", "1/3"]})
        code, out, _ = run(capsys, "--report", "json", "check-2d", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "invariant"
        assert doc["residuals"]["torus3_max_residual"] == "0"

    def test_check_2d_violation(self, tmp_path, capsys):
        path = write_model(tmp_path, "pair_flip_2d", params={"a": 1, "b": 2},
                           extra={"rho": ["1/2", "1/2"]})
        code, out, _ = run(capsys, "--report", "json", "check-2d", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["witness"]["residual"] != "0"


class TestSegmentCommand:
    def test_construct_boundaries(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep",
                           extra={"memory": 1,
                                  "kernel": [["1/2", "1/2"], ["1/2", "1/2"]]})
        code, out, _ = run(capsys, "--report", "json", "segment", path,
                           "--construct-boundaries")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "validated"

    def test_segment_with_boundaries(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep",
                           extra={"memory": 1,
                                  "kernel": [["3/4", "1/4"], ["3/4", "1/4"]],
                                  "beta_left": [{"from": [0], "to": [1], "rate": "1/4"}],
                                  "beta_right": [{"from": [1], "to": [0], "rate": "3/4"}]})
        code, out, _ = run(capsys, "segment", path, "--n", "5")
        assert code == 0


class TestEquivalencesCommand:
    def test_panel_agrees(self, tmp_path, capsys):
        path = write_model(tmp_path, "stochastic_ising", params={"x": "1/2"})
        code, out, _ = run(capsys, "--report", "json", "equivalences", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "agree"
        assert all(doc["panel"].values())


class TestModelCommand:
    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "model", "nope")
        assert code == 2

    def test_float_mode(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep", extra={"rho": [0.5, 0.5]})
        code, out, _ = run(capsys, "--float", "--tol", "1e-9", "check-product", path)
        assert code == 0


class TestModelParams:
    """--params is JSON, so int and pair keys travel as "3" and "1,2"; the
    emitted files give the golden check-product reports of tests/golden."""

    GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    THIRDS = ["1/3", "1/3", "1/3"]

    @pytest.mark.parametrize("name,params,rho", [
        ("kappa2_general", {"rates": {"0": {"3": "4/3"}, "3": {"0": "1/3"}, "2": {"1": 1}}},
         ["1/3", "2/3"]),
        ("tasep3_exchange", {"rates": {"0,1": 1, "1,0": 1, "1,2": 2, "2,1": 2}}, THIRDS),
        ("zero_range", {"g": {f"{a},{k}": 1 for a in range(4) for k in range(1, a + 1)},
                        "kappa_trunc": 4}, ["8/15", "4/15", "2/15", "1/15"]),
    ])
    def test_keyed_params_build(self, tmp_path, capsys, name, params, rho):
        path = write_model(tmp_path, name, extra={"rho": rho}, params=params)
        code, out, _ = run(capsys, "--report", "json", "check-product", path)
        doc = json.loads(out)
        doc.pop("timings")
        with open(os.path.join(self.GOLDEN, f"{name}__check_product.out")) as handle:
            assert f"exit: {code}\n{json.dumps(doc, indent=2, sort_keys=True)}\n" == handle.read()

    def test_missing_zero_range_rates_are_zero(self, tmp_path, capsys):
        path = write_model(tmp_path, "zero_range", params={"g": {"1,1": 1}, "kappa_trunc": 3})
        doc = json.loads(open(path).read())
        assert {(tuple(e["from"]), tuple(e["to"])) for e in doc["rates"]} == \
            {((1, 0), (0, 1)), ((1, 1), (0, 2))}

    @pytest.mark.parametrize("g", [5, [1], "1,1"])
    def test_zero_range_rates_not_a_mapping_exit2(self, tmp_path, capsys, g):
        params = json.dumps({"g": g, "kappa_trunc": 3})
        code, out, err = run(capsys, "model", "zero_range", "--params", params)
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""


SQUARE_WITH_LAWS = {"rho": ["2/3", "1/3"], "memory": 1,
                    "kernel": [["1/2", "1/2"], ["1/2", "1/2"]]}


class TestInputErrors:
    @pytest.mark.parametrize("model,params,extra,argv", [
        pytest.param("tasep", None, {"rho": ["1/2", "1/2"], "kernel": 5}, ["check-product"],
                     id="kernel-number"),
        pytest.param("tasep", None, {"rho": 5}, ["check-product"], id="rho-number"),
        pytest.param("tasep", None, {"rho": ["1/2", None]}, ["check-product"], id="rho-null"),
        pytest.param("tasep", None, {"rho": ["1/2", "1/2"], "rates": 7}, ["check-product"],
                     id="rates-number"),
        pytest.param("tasep", None, {"rho": ["1/2", "1/2"], "rates": [5]}, ["check-product"],
                     id="rate-entry-number"),
        pytest.param("tasep", None,
                     {"rho": ["1/2", "1/2"],
                      "rates": [{"from": [1, 0], "to": [0, 1], "rate": "1/0"}]},
                     ["check-product"], id="rate-zero-denominator"),
        *[pytest.param("flip_2d", {"a": 4}, SQUARE_WITH_LAWS, argv, id=f"square-{argv[0]}")
          for argv in (["find-product"], ["find-markov"], ["absorbing"],
                       ["verify-cycle", "--n", "3"], ["equivalences"], ["check-markov"],
                       ["check-product"], ["segment", "--construct-boundaries"])],
        pytest.param("tasep", None, {"rho": ["1/2", "1/2"]}, ["check-2d"], id="line-check-2d"),
        pytest.param("flip_2d", {"a": 4}, {"rho": ["1/2", "1/3"]}, ["check-2d"],
                     id="square-rho-not-a-probability"),
        pytest.param("voter", None, None, ["absorbing", "--n-min", "2", "--n-max", "2"],
                     id="absorbing-below-range"),
        pytest.param("voter", None, None, ["absorbing", "--n-min", "5", "--n-max", "3"],
                     id="absorbing-no-sizes"),
        pytest.param("voter", None, None, ["absorbing", "--n-min", "0", "--n-max", "3"],
                     id="absorbing-size-zero"),
    ])
    def test_malformed_or_mismatched_file_exit2(self, tmp_path, capsys,
                                                model, params, extra, argv):
        path = write_model(tmp_path, model, extra=extra, params=params)
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""


    @pytest.mark.parametrize("argv", [["verify-cycle", "--n", "24"],
                                      ["--max-states", "1000", "verify-cycle", "--n", "12"]],
                             ids=["n24-default-cap", "n12-cap-1000"])
    def test_verify_cycle_checks_the_cap_before_the_decider(self, tmp_path, capsys,
                                                            monkeypatch, argv):
        path = write_model(tmp_path, "stochastic_ising", params={"x": "1/2"})

        def decider(ctx, n):
            raise AssertionError("the decider ran above the state cap")
        monkeypatch.setattr(criteria, "check_markov_cycle", decider)
        *options, command, flag, n = argv
        start = time.perf_counter()
        code, out, err = run(capsys, *options, command, path, flag, n)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err.startswith("resource cap: ")
        assert out == ""


    def test_segment_and_equivalences_check_the_cap_first(self, tmp_path, capsys,
                                                          monkeypatch):
        beta = [{"from": [0], "to": [1], "rate": "1/2"}]
        segment_file = write_model(tmp_path, "tasep",
                                   extra={**TASEP_LAWS, "beta_left": beta, "beta_right": beta})
        # kappa = 4, m = 2, L = 3: the panel would take all 4^17 words of length h
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({
            "schema": 1, "kappa": 4, "range": 3, "memory": 2,
            "rates": [{"from": [0, 1, 2], "to": [2, 1, 0], "rate": "1"}],
            "kernel": [["1/4"] * 4] * 16}))

        def decider(*args):
            raise AssertionError("the decider ran above the state cap")
        monkeypatch.setattr(criteria, "equivalence_panel", decider)
        monkeypatch.setattr(segment, "check_segment", decider)
        for argv in (["segment", segment_file, "--n", "40"], ["equivalences", str(wide)]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 3, argv
            assert err.startswith("resource cap: ")
            assert out == ""


TASEP_LAWS = {"rho": ["1/2", "1/2"], "memory": 1,
              "kernel": [["1/2", "1/2"], ["1/2", "1/2"]]}
# one call of each report subcommand: (model, builder parameters, extra keys, arguments)
REPORTS = [
    ("stochastic_ising", {"x": "1/2"}, None, ["check-markov"]),
    ("tasep", None, TASEP_LAWS, ["check-product"]),
    ("tasep", None, None, ["find-markov"]),
    ("tasep", None, None, ["find-product"]),
    ("tasep", None, TASEP_LAWS, ["verify-cycle", "--n", "4"]),
    ("voter", None, None, ["absorbing", "--n-min", "3", "--n-max", "5"]),
    ("flip_2d", {"a": 4}, {"rho": ["2/3", "1/3"]}, ["check-2d"]),
    ("tasep", None, TASEP_LAWS, ["segment", "--construct-boundaries"]),
    ("stochastic_ising", {"x": "1/2"}, None, ["equivalences"]),
]


class TestTimings:
    @pytest.mark.parametrize("model,params,extra,argv", REPORTS,
                             ids=[case[3][0] for case in REPORTS])
    def test_every_report_has_a_total_time(self, tmp_path, capsys, model, params, extra, argv):
        path = write_model(tmp_path, model, extra=extra, params=params)
        code, out, _ = run(capsys, "--report", "json", argv[0], path, *argv[1:])
        assert code in (0, 1)
        total = json.loads(out)["timings"]["total_s"]
        assert isinstance(total, float) and total >= 0


class TestFindProductTwoColours:
    @pytest.mark.parametrize("mode", ["--exact", "--float"])
    def test_quadratic_root_found_fast(self, tmp_path, capsys, mode):
        path = tmp_path / "quadratic.json"
        path.write_text(json.dumps({"schema": 1, "kappa": 2, "range": 2, "rates": [
            {"from": [0, 0], "to": [1, 1], "rate": "4/3"},
            {"from": [1, 1], "to": [0, 0], "rate": "1/3"},
            {"from": [1, 0], "to": [0, 1], "rate": "1"}]}))
        start = time.perf_counter()
        code, out, _ = run(capsys, mode, "--report", "json", "find-product", str(path))
        elapsed = time.perf_counter() - start
        assert code == 0
        doc = json.loads(out)
        assert doc["candidates"] == [["1/3", "2/3"]]
        if mode == "--exact":
            assert doc["bernoulli_roots"] == ["2/3"]
        assert elapsed < 1.0
