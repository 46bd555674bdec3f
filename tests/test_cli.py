import dataclasses
import json
import os
import sys
import time
from fractions import Fraction

import pytest

from psinv import criteria, linalg, models, oracle, scalars, search, segment
from psinv.cli import (ModelFileError, _json_text, _table_json, build_parser, load_model_file,
                       main)
from psinv.core import Alphabet, MarkovKernel
from psinv.models import stochastic_ising, tasep
from psinv.scalars import parse_rational, scalar_repr


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
        with open(path) as handle:
            doc = json.load(handle)
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

    def test_verify_cycle_same_on_int64_and_object_paths(self, tmp_path, capsys, monkeypatch):
        # the object path is forced by lowering the int64 limit to 0
        cases = [("stochastic_ising", {"x": "1/2"}, None, "8", 0),
                 ("stochastic_ising", {"x": "1/2"},
                  {"kernel": [["1/2", "1/2"], ["1/3", "2/3"]]}, "7", 1),
                 ("tasep", None, {"rho": ["1/3", "2/3"]}, "6", 0)]
        for name, params, extra, n, expected in cases:
            path = write_model(tmp_path, name, extra=extra, params=params)
            outputs = []
            for limit in (scalars.INT64_LIMIT, 0):
                monkeypatch.setattr(scalars, "INT64_LIMIT", limit)
                code, out, _ = run(capsys, "--report", "json", "verify-cycle", path, "--n", n)
                doc = json.loads(out)
                doc.pop("timings")
                outputs.append((code, doc))
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == expected and outputs[0][1]["oracle_agrees"] is True

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

    @pytest.mark.parametrize("name, params, rho, verdict, code", [
        ("flip_2d", {"a": 4}, ["2/3", "1/3"], "invariant", 0),
        ("pair_flip_2d", {"a": 1, "b": 2}, ["1/2", "1/2"], "not-invariant", 1)])
    def test_check_2d_skips_the_torus_above_the_cap(self, tmp_path, capsys, name, params,
                                                    rho, verdict, code):
        # the 3x3 torus has 2^9 states
        path = write_model(tmp_path, name, params=params, extra={"rho": rho})
        got, out, _ = run(capsys, "--report", "json", "--max-states", "100", "check-2d", path)
        doc = json.loads(out)
        assert (got, doc["verdict"]) == (code, verdict)
        assert doc["residuals"]["torus3_max_residual"].startswith("skipped:")


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

    def test_segment_at_n0_prints_the_derived_conclusion(self, tmp_path, capsys):
        kernel = {"memory": 1, "kernel": [["1/2", "1/2"], ["1/2", "1/2"]]}
        path = write_model(tmp_path, "tasep", extra=kernel)
        _, out, _ = run(capsys, "--report", "json", "segment", path, "--construct-boundaries")
        built = json.loads(out)
        path = write_model(tmp_path, "tasep", extra=dict(
            kernel, beta_left=built["beta_left"], beta_right=built["beta_right"]))
        code, out, _ = run(capsys, "--report", "json", "segment", path, "--n", "7")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (0, "invariant")
        assert doc["details"]["derived"].startswith(
            "balance vanishes at two consecutive sizes >= 7: the law is invariant on the line")


def uniform_kernel_file(tmp_path, kappa, memory, **extra):
    """A model with no jumps and the uniform memory-m kernel."""
    rows = [[f"1/{kappa}"] * kappa for _ in range(kappa ** memory)]
    doc = dict(schema=1, kappa=kappa, range=2, rates=[], memory=memory, kernel=rows, **extra)
    path = tmp_path / f"uniform_k{kappa}m{memory}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestDeciderCaps:
    """The deciders' tables count against --max-states before they are built:
    the Z table (kappa^(2m+L) words), the boundary validation (kappa^(N0+1)
    words), the search systems (kappa^(2n) for the length-n system) and the
    square check's cell-addition words (kappa^5), as the oracle and the
    segment scan already were."""

    @pytest.mark.parametrize("command, count", [("find-markov", 2 ** 6), ("find-product", 2 ** 4)])
    def test_search_systems(self, tmp_path, capsys, command, count):
        path = write_model(tmp_path, "tasep")
        code, _, err = run(capsys, "--max-states", str(count - 1), command, path)
        assert code == 3 and f"{count} states exceed" in err
        assert run(capsys, "--max-states", str(count), command, path)[0] == 0

    @pytest.mark.parametrize("command", ["find-markov", "find-product"])
    def test_search_on_a_large_alphabet_builds_no_row(self, tmp_path, capsys, monkeypatch,
                                                      command):
        def cycle_rows(*args):
            raise AssertionError("a cycle system was built")

        monkeypatch.setattr(search, "_cycle_rows", cycle_rows)
        path = tmp_path / "k40.json"
        path.write_text(json.dumps(dict(schema=1, kappa=40, range=2, rates=[
            {"from": [0, 1], "to": [1, 0], "rate": "1"}])))
        code, _, err = run(capsys, command, str(path))
        assert code == 3 and "states exceed the cap" in err

    def test_check_markov_z_table(self, tmp_path, capsys):
        path = uniform_kernel_file(tmp_path, 2, 7)  # Z has 2^16 words
        for command in (["check-markov", path], ["verify-cycle", path, "--n", "16"]):
            code, _, err = run(capsys, "--max-states", "1000", *command)
            assert code == 3 and "65536 states" in err, command
        code, out, _ = run(capsys, "--max-states", str(2 ** 16), "check-markov", path)
        assert code == 0

    def test_check_product_z_table(self, tmp_path, capsys):
        path = write_model(tmp_path, "tasep", extra={"rho": ["1/2", "1/2"]})
        code, _, err = run(capsys, "--max-states", "3", "check-product", path)
        assert code == 3 and "4 states exceed the cap 3" in err
        assert run(capsys, "--max-states", "4", "check-product", path)[0] == 0

    def test_segment_boundary_construction(self, tmp_path, capsys):
        path = uniform_kernel_file(tmp_path, 7, 1, beta_left=[], beta_right=[])
        for command in (["--construct-boundaries"], ["--n", "7"]):
            code, _, err = run(capsys, "segment", path, *command)
            assert code == 3 and f"{7 ** 8} states" in err, command

    @staticmethod
    def empty_square(tmp_path, kappa):
        path = tmp_path / f"square{kappa}.json"
        path.write_text(json.dumps(dict(schema=1, kappa=kappa, square_rates=[],
                                        rho=[f"1/{kappa}"] * kappa)))
        return str(path)

    def test_check_2d_cell_addition_words(self, tmp_path, capsys, monkeypatch):
        def balance_table(*args):
            raise AssertionError("a boldZ table was built")

        path = self.empty_square(tmp_path, 17)
        with monkeypatch.context() as patch:
            patch.setattr(criteria, "_balance_table", balance_table)
            code, _, err = run(capsys, "check-2d", path)
        assert code == 3 and f"resource cap: {17 ** 5} states exceed the cap {2 ** 20}" in err
        assert run(capsys, "check-2d", self.empty_square(tmp_path, 16))[0] == 0
        assert run(capsys, "--max-states", str(17 ** 5), "check-2d", path)[0] == 0


class TestLazyLaw:
    """Only the verdicts that integrate against the stationary law solve it:
    the segment decider and the boundary construction, once per context."""

    @pytest.fixture
    def solves(self, monkeypatch):
        real, calls = linalg.stationary_distribution, []

        def counted(kernel):
            calls.append(kernel)
            return real(kernel)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "psinv" and \
                    getattr(module, "stationary_distribution", None) is real:
                monkeypatch.setattr(module, "stationary_distribution", counted)
        return calls

    KERNEL = {"memory": 1, "kernel": [["3/4", "1/4"], ["3/4", "1/4"]]}
    BETA = {"beta_left": [{"from": [0], "to": [1], "rate": "1/4"}],
            "beta_right": [{"from": [1], "to": [0], "rate": "3/4"}]}

    @pytest.mark.parametrize("argv, extra, solved", [
        (["check-markov"], KERNEL, 0),
        (["check-product"], {"rho": ["1/4", "3/4"]}, 0),
        (["verify-cycle", "--n", "5"], KERNEL, 0),
        (["verify-cycle", "--n", "1"], KERNEL, 0),
        (["verify-cycle", "--n", "5"], {"rho": ["1/4", "3/4"]}, 0),
        (["equivalences"], KERNEL, 0),
        (["segment", "--n", "7"], dict(KERNEL, **BETA), 1),
        (["segment", "--construct-boundaries"], KERNEL, 1)])
    @pytest.mark.parametrize("mode", ["--exact", "--float"])
    def test_solves_per_command(self, tmp_path, capsys, solves, argv, extra, solved, mode):
        path = write_model(tmp_path, "tasep", extra=extra)
        command, *options = argv
        code, _, err = run(capsys, mode, command, path, *options)
        assert code in (0, 1) and err == ""
        assert len(solves) == solved

    def test_one_solve_under_float_boundary_rates(self, tmp_path, capsys, solves):
        beta = {side: [dict(rate, rate=0.25) for rate in rates]
                for side, rates in self.BETA.items()}
        path = write_model(tmp_path, "tasep", extra=dict(self.KERNEL, **beta))
        assert run(capsys, "segment", path, "--n", "7")[0] in (0, 1)
        assert len(solves) == 1


class TestCertificateRendering:
    """Certificates render from the table arrays, entry for entry as
    scalar_repr renders WordTable's scalars, in word order."""

    def tables(self):
        ising = stochastic_ising(Fraction(1, 3))
        kernel = MarkovKernel.from_matrix([[Fraction(2, 7), Fraction(5, 7)],
                                           [Fraction(1, 3), Fraction(2, 3)]])
        for T, law in ((ising.jrm, ising.kernel), (tasep().jrm, kernel),
                       (tasep().jrm.floated(), kernel), (ising.jrm.floated(), kernel)):
            table = criteria.z_table(criteria.markov_context(T, law))
            yield table.values
            yield criteria.potential_from_table(table).values

    def test_equals_scalar_repr_of_the_entries(self):
        kinds = set()
        for table in self.tables():
            expected = [("".join(map(str, word)), scalar_repr(value))
                        for word, value in table.items()]
            assert list(_table_json(table).items()) == expected
            kinds.add("exact" if table.den is not None else "float")
            if table.exact_zero is not None and table.exact_zero.any():
                kinds.add("exact zeros in floats")
        assert kinds == {"exact", "float", "exact zeros in floats"}


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class TestJsonText:
    """JSON reports print byte for byte as json.dumps(doc, indent=2,
    sort_keys=True) prints them, containers of many scalars through json's C
    encoder."""

    @staticmethod
    def indented(doc):
        return json.dumps(doc, indent=2, sort_keys=True)

    def test_golden_documents(self):
        count = 0
        for name in sorted(os.listdir(GOLDEN)):
            with open(os.path.join(GOLDEN, name)) as handle:
                _, _, body = handle.read().partition("\n")
            if body.startswith("{"):
                doc = json.loads(body)
                assert _json_text(doc) + "\n" == body == self.indented(doc) + "\n", name
                count += 1
        assert count > 50

    @pytest.mark.parametrize("doc", [
        {}, [], "", 0, None, {"empty": {}, "none": [], "also": ()},
        [[1, [2, [], [[]]]], {}, [{}]], (1, (2, 3)),
        {"note": "caf\u00e9 \u2603 \U0001f600", "quote": "a\"b\\c\nd\t"},
        {"timings": {"total_s": 0.1 + 0.2, "tiny": 5e-324, "big": 1e300, "inf": float("inf"),
                     "neg": -0.0}},
        {"b": [True, False, None], "a": {"z": 1, "y": [1.5, "x"], "x": {"w": [{}]}}},
        {"10": 1, "9": 2, "": 3},
        {"certificate": {f"{i:03b}": f"{i}/7" for i in range(8)}, "short": list(range(7)),
         "long": [*range(-3, 9), None, True, False, 2.5, 10 ** 30, "\u00e9"],
         "rows": [[i, [i] * 9, {}] for i in range(9)]}])
    def test_synthetic_documents(self, doc):
        assert _json_text(doc) == self.indented(doc)

    def test_reports_and_model_output(self, tmp_path, capsys):
        path = write_model(tmp_path, "stochastic_ising", params={"x": "1/2"})
        for argv in (("check-markov", path), ("equivalences", path),
                     ("verify-cycle", path, "--n", "4")):
            _, out, _ = run(capsys, "--report", "json", *argv)
            assert out == self.indented(json.loads(out)) + "\n", argv
        _, out, _ = run(capsys, "model", "tasep")
        assert out == self.indented(json.loads(out)) + "\n"
        with open(path) as handle:
            text = handle.read()
        assert text == self.indented(json.loads(text))


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

    def test_alphabet_checked_against_the_cap_before_the_build(self, capsys, monkeypatch):
        # the builders enumerate windows of up to 4 sites, kappa^4 words
        def build(*args, **kwargs):
            raise AssertionError("the model was built")

        with monkeypatch.context() as patch:
            patch.setattr(models, "build", build)
            start = time.perf_counter()
            code, out, err = run(capsys, "model", "voter", "--params", '{"kappa": 400}')
            assert time.perf_counter() - start < 1
        assert code == 3 and f"resource cap: {400 ** 4} states exceed the cap {2 ** 20}" in err
        assert out == ""
        voter5 = ["model", "voter", "--params", '{"kappa": 5}']
        assert run(capsys, "--max-states", str(5 ** 4 - 1), *voter5)[0] == 3
        assert run(capsys, "--max-states", str(5 ** 4), *voter5)[0] == 0
        code, out, _ = run(capsys, "model", "zero_range", "--params",
                           json.dumps({"g": {"1,1": 1}, "kappa_trunc": 3}))
        assert code == 0 and json.loads(out)["kappa"] == 3


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
        with open(path) as handle:
            doc = json.load(handle)
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


    @pytest.mark.parametrize("memory", [26, 10 ** 9])
    def test_kernel_rows_counted_before_contexts_are_listed(self, tmp_path, capsys,
                                                            monkeypatch, memory):
        words = Alphabet.words

        def listed(alphabet, length):
            assert length < 20, "the kernel contexts were listed"
            return words(alphabet, length)

        path = tmp_path / "memory.json"
        path.write_text(json.dumps(dict(schema=1, kappa=2, range=2, rates=[], memory=memory,
                                        kernel=[])))
        monkeypatch.setattr(Alphabet, "words", listed)
        start = time.perf_counter()
        code, out, err = run(capsys, "check-markov", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: kernel must have 2^{memory} rows")

    # n = 20 has 2^20 states, within the default cap, but about 21M transitions
    # n = 20000 has a count of more digits than Python prints
    @pytest.mark.parametrize("argv", [["verify-cycle", "--n", "24"],
                                      ["--max-states", "1000", "verify-cycle", "--n", "12"],
                                      ["verify-cycle", "--n", "20"],
                                      ["verify-cycle", "--n", "20000"]],
                             ids=["n24-default-cap", "n12-cap-1000", "n20-transition-budget",
                                  "n20000-huge"])
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

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_verify_cycle_rejects_sizes_below_one(self, tmp_path, capsys, n):
        path = write_model(tmp_path, "stochastic_ising", params={"x": "1/2"})
        code, out, err = run(capsys, "verify-cycle", path, "--n", n)
        assert code == 2
        assert err == "error: cycle length must be >= 1\n"
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
        for argv in (["segment", segment_file, "--n", "40"],
                     ["segment", segment_file, "--n", "20000"], ["equivalences", str(wide)]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 3, argv
            assert err.startswith("resource cap: ")
            assert out == ""

    def test_absorbing_checks_the_largest_size_first(self, tmp_path, capsys, monkeypatch):
        path = write_model(tmp_path, "voter")

        def build(*args, **kwargs):
            raise AssertionError("a generator was built before the cap check")
        monkeypatch.setattr(oracle, "build_generator", build)
        for n_max in ("21", "20000", str(10 ** 12)):
            start = time.perf_counter()
            code, out, err = run(capsys, "absorbing", path, "--n-max", n_max)
            assert time.perf_counter() - start < 1.0
            assert code == 3, n_max
            assert err.startswith("resource cap: ")
            assert out == ""

    def test_absorbing_rejects_sizes_below_one_before_listing_them(self, tmp_path, capsys,
                                                                    monkeypatch):
        path = write_model(tmp_path, "voter")
        calls = []
        monkeypatch.setattr(oracle, "absorbing_exclusion", lambda *a, **k: calls.append(a))
        code, out, err = run(capsys, "absorbing", path, "--n-min", "-3000000", "--n-max", "3")
        assert code == 2
        assert err == "error: cycle sizes must be a nonempty list of sizes >= 1\n"
        assert out == "" and calls == []

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "abc"])
    def test_invalid_tolerance_exit2(self, tmp_path, capsys, tol):
        # the invariant product (3/4, 1/4) read not-invariant under nan or a
        # negative tolerance, and inf passed every table
        path = write_model(tmp_path, "tasep", extra={"rho": ["3/4", "1/4"]})
        with pytest.raises(SystemExit) as exit_info:
            main(["--float", f"--tol={tol}", "check-product", path])
        assert exit_info.value.code == 2
        assert "tolerance must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "1e-9", "1e-6", "0.5"])
    def test_valid_tolerance_parses(self, tmp_path, capsys, tol):
        path = write_model(tmp_path, "tasep", extra={"rho": ["3/4", "1/4"]})
        assert run(capsys, "--float", "--tol", tol, "check-product", path)[0] == 0


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


class TestSearchTolerance:
    @pytest.mark.parametrize("command, dimensions", [("find-markov", (1, 3)),
                                                     ("find-product", (1, 2))])
    def test_tol_decides_the_family(self, tmp_path, capsys, command, dimensions):
        # a creation rate of 1e-7 next to TASEP: a real rate at the default
        # tolerance, rounding noise at --tol 1e-6, where the TASEP family returns
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"schema": 1, "kappa": 2, "range": 2, "rates": [
            {"from": [0, 1], "to": [1, 0], "rate": "1"},
            {"from": [0, 0], "to": [1, 1], "rate": "1/10000000"}]}))
        found = []
        for tol in ("1e-9", "1e-6"):
            code, out, _ = run(capsys, "--float", "--tol", tol, "--report", "json",
                               command, str(path))
            assert code == 0
            found.append(json.loads(out)["family_dimension"])
        assert tuple(found) == dimensions
