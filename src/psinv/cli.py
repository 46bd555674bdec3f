"""Command-line front end.

Models live in JSON files (schema 1): rates and probabilities are strings
like "3/5" (exact) or finite numbers; words are integer arrays, and
integer fields take JSON integers only (not booleans).  Unknown keys are
rejected so that typos cannot silently drop data.  Reports are printed as
text or JSON; exit codes: 0 verdict computed (invariant where applicable),
1 not-invariant, 2 input error, 3 resource cap exceeded, 4 the criterion and
the brute-force oracle disagree (verify-cycle).
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

from . import criteria, models, oracle, search, segment
from .core import Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel
from .criteria import CriterionReport, WordTable, markov_context, product_context
from .lattice2d import check_product_2d
from .oracle import (CycleSpace, StateCapExceeded, TorusSpace, build_generator,
                     gibbs_measure, product_measure, stationarity_residual)
from .scalars import (DEFAULT_TOL, as_scalar, parse_float, parse_rational, ratio_repr,
                      scalar_repr)

EXIT_OK = 0
EXIT_NOT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_ORACLE = 4

_MODEL_KEYS = {"schema", "kappa", "range", "memory", "rates", "kernel", "rho",
               "beta_left", "beta_right", "two_dimensional", "square_rates"}
_RATE_KEYS = frozenset({"from", "to", "rate"})


class ModelFileError(ValueError):
    pass


@dataclass
class ModelFile:
    kappa: int
    range_: Optional[int]
    jrm: Optional[JumpRateMatrix]
    square: Optional[JumpRateMatrix]  # 2x2-square patterns
    kernel: Optional[MarkovKernel]
    rho: Optional[list]
    beta: Optional[BoundaryRates]


class _InvalidScalar(ValueError):
    """A boolean or a non-finite number where a rate or probability belongs;
    the caller names the field."""


def _parse_scalar(value, as_float: bool):
    """A rate or probability: a rational string, a JSON integer or a finite
    JSON number (never a boolean); a float under --float."""
    kind = type(value)
    if kind is bool or (kind is float and not math.isfinite(value)):
        raise _InvalidScalar(f"must be a finite number or a rational string, "
                             f"not {json.dumps(value)}")
    if not as_float:
        return parse_rational(value) if kind is str else as_scalar(value)
    try:
        return parse_float(value) if kind is str else float(as_scalar(value))
    except OverflowError as exc:
        raise _InvalidScalar(f"{value} is out of float range") from exc


def _named_scalar(value, as_float: bool, name: str):
    try:
        return _parse_scalar(value, as_float)
    except _InvalidScalar as exc:
        raise ModelFileError(f"{name} {exc}") from exc


def _integer(value, message: str) -> int:
    """A JSON integer (not a boolean, not a float with an integer value)."""
    if type(value) is not int:
        raise ModelFileError(message)
    return value


def _parse_rate_list(items, length, as_float, what):
    rates = {}
    for k, item in enumerate(items):
        if not _RATE_KEYS.issuperset(item):
            raise ModelFileError(f"{what}[{k}] has unknown keys {sorted(set(item) - _RATE_KEYS)}")
        try:
            src, dst = tuple(item["from"]), tuple(item["to"])
            rate = _parse_scalar(item["rate"], as_float)
        except _InvalidScalar as exc:
            raise ModelFileError(f"{what}[{k}] rate {exc}") from exc
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise ModelFileError(f"{what}[{k}] is malformed: {exc}") from exc
        for a in src + dst:
            if type(a) is not int:
                raise ModelFileError(f"{what}[{k}] words must list integer letters, not "
                                     f"{json.dumps(item['from'])} -> {json.dumps(item['to'])}")
        if len(src) != length or len(dst) != length:
            raise ModelFileError(f"{what}[{k}] words must have length {length}")
        rates[(src, dst)] = rates[(src, dst)] + rate if (src, dst) in rates else rate
    return rates


def load_model_file(path: str, as_float: bool = False) -> ModelFile:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    try:
        return _model_from_doc(doc, as_float)
    except ModelFileError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ModelFileError(f"malformed model file {path}: {exc}") from exc


def _model_from_doc(doc, as_float: bool) -> ModelFile:
    if not isinstance(doc, dict):
        raise ModelFileError("model file must hold a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ModelFileError(f"unknown keys {sorted(unknown)} in model file")
    schema = doc.get("schema")
    if type(schema) is not int or schema != 1:
        raise ModelFileError("model file must declare \"schema\": 1")
    kappa = _integer(doc.get("kappa"), "model file needs an integer \"kappa\"")
    alphabet = Alphabet(kappa)

    two_dimensional = bool(doc.get("two_dimensional", False)) or "square_rates" in doc
    jrm = None
    square = None
    range_ = None
    if two_dimensional:
        if "rates" in doc or "range" in doc:
            raise ModelFileError("two-dimensional models use square_rates, not rates/range")
        square = JumpRateMatrix(alphabet, 4, _parse_rate_list(
            doc.get("square_rates", []), 4, as_float, "square_rates"))
    else:
        range_ = _integer(doc.get("range"), "model file needs an integer \"range\"")
        jrm = JumpRateMatrix(alphabet, range_, _parse_rate_list(
            doc.get("rates", []), range_, as_float, "rates"))

    kernel = None
    if "kernel" in doc:
        memory = _integer(doc.get("memory", 1), "model file needs an integer \"memory\"")
        rows = doc["kernel"]
        contexts = list(alphabet.words(memory))
        if len(rows) != len(contexts):
            raise ModelFileError(f"kernel must have {len(contexts)} rows "
                                 "(contexts in lexicographic order)")
        entries = {}
        for r, (ctx_word, row) in enumerate(zip(contexts, rows)):
            if len(row) != kappa:
                raise ModelFileError("kernel rows must have kappa entries")
            for y, value in enumerate(row):
                entries[(ctx_word, y)] = _named_scalar(value, as_float, f"kernel[{r}][{y}]")
        kernel = MarkovKernel(alphabet, memory, entries)
    elif "memory" in doc:
        raise ModelFileError("\"memory\" is only meaningful next to \"kernel\"")

    rho = None
    if "rho" in doc:
        rho = [_named_scalar(v, as_float, f"rho[{a}]") for a, v in enumerate(doc["rho"])]
        if len(rho) != kappa:
            raise ModelFileError("rho must have kappa entries")

    beta = None
    if "beta_left" in doc or "beta_right" in doc:
        if range_ is None:
            raise ModelFileError("boundary rates require a one-dimensional model")
        beta = BoundaryRates(
            JumpRateMatrix(alphabet, range_ - 1,
                           _parse_rate_list(doc.get("beta_left", []), range_ - 1,
                                            as_float, "beta_left")),
            JumpRateMatrix(alphabet, range_ - 1,
                           _parse_rate_list(doc.get("beta_right", []), range_ - 1,
                                            as_float, "beta_right")))
    return ModelFile(kappa, range_, jrm, square, kernel, rho, beta)


def _rates_json(T: JumpRateMatrix) -> list:
    return [{"from": list(src), "to": list(dst), "rate": scalar_repr(rate)}
            for src, dst, rate in T.entries()]


def model_to_json(spec: models.ModelSpec) -> dict:
    doc = {"schema": 1}
    if spec.square is not None:
        doc["kappa"] = spec.square.alphabet.kappa
        doc["two_dimensional"] = True
        doc["square_rates"] = _rates_json(spec.square)
        return doc
    doc["kappa"] = spec.jrm.alphabet.kappa
    doc["range"] = spec.jrm.range_
    doc["rates"] = _rates_json(spec.jrm)
    if spec.kernel is not None:
        doc["memory"] = spec.kernel.memory
        doc["kernel"] = [[scalar_repr(v) for v in row] for row in spec.kernel.matrix()]
    if spec.rho is not None:
        doc["rho"] = [scalar_repr(v) for v in spec.rho]
    return doc


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _witness_json(witness):
    word, residual = witness
    return {"word": list(word) if word is not None else None,
            "residual": scalar_repr(residual) if not isinstance(residual, str) else residual}


def _table_json(table: WordTable) -> dict:
    """{word: scalar_repr of its entry} in word order, from the table's arrays."""
    letters = [str(a) for a in table.alphabet.letters]
    words = map("".join, itertools.product(letters, repeat=table.length))
    zero = itertools.repeat(False) if table.exact_zero is None else table.exact_zero.tolist()
    return {word: "0" if exact_zero else ratio_repr(entry, table.den)
            for word, entry, exact_zero in zip(words, table.entries.tolist(), zero)}


def report_json(report: CriterionReport, residuals=None) -> dict:
    doc = {"verdict": report.verdict, "criterion": report.criterion,
           "words_checked": report.words_checked}
    if report.witness is not None:
        doc["witness"] = _witness_json(report.witness)
    if report.certificate is not None:
        doc["certificate"] = _table_json(report.certificate.values)
    if report.details:
        doc["details"] = {k: str(v) for k, v in report.details.items()}
    if residuals is not None:
        doc["residuals"] = residuals
    return doc


def _emit(doc: dict, args) -> None:
    if args.report == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for key, value in doc.items():
        if key == "timings":
            continue
        print(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")


def _load(args) -> ModelFile:
    """The subcommand's model file: square models only reach check-2d, and
    one-dimensional models every other subcommand."""
    model = load_model_file(args.file, args.float_mode)
    wants_2d = args.command == "check-2d"
    if (model.square is not None) != wants_2d:
        raise ModelFileError(f"{args.command} needs a "
                             f"{'two' if wants_2d else 'one'}-dimensional model file")
    return model


def _law_from_file(model: ModelFile, tol):
    """The candidate law a 1D model file describes: kernel or product marginal."""
    if model.kernel is not None:
        return markov_context(model.jrm, model.kernel, tol)
    if model.rho is not None:
        return product_context(model.jrm, model.rho, tol)
    raise ModelFileError("model file carries neither a kernel nor a marginal rho")


def _verdict_exit(invariant: bool) -> int:
    return EXIT_OK if invariant else EXIT_NOT_INVARIANT


# ---------------------------------------------------------------------------
# subcommands: (args, model) -> (report, exit code)
# ---------------------------------------------------------------------------

def _cmd_check_markov(args, model: ModelFile):
    if model.kernel is None:
        raise ModelFileError("check-markov needs a \"kernel\" entry")
    ctx = markov_context(model.jrm, model.kernel, args.tol)
    oracle.check_state_cap(model.jrm.alphabet, ctx.window_length, args.max_states)
    report = criteria.check_markov_line(ctx)
    return report_json(report), _verdict_exit(report.invariant)


def _cmd_check_product(args, model: ModelFile):
    if model.rho is None:
        raise ModelFileError("check-product needs a \"rho\" entry")
    oracle.check_state_cap(model.jrm.alphabet, model.jrm.range_, args.max_states)
    report = criteria.check_product_line(model.jrm, model.rho, args.tol)
    return report_json(report), _verdict_exit(report.invariant)


def _cmd_find_markov(args, model: ModelFile):
    # kappa^(2n) bounds the basis and expanded family of the length-n system
    oracle.check_state_cap(model.jrm.alphabet, 2 * 3, args.max_states)
    result = search.find_markov(model.jrm, args.tol)
    def describe(c):
        return {
            "kernel": [[scalar_repr(v) for v in row] for row in c.kernel.matrix()],
            "stationary": [scalar_repr(c.law.rho[(a,)])
                           for a in c.kernel.alphabet.letters],
            "exact": c.exact,
            "provenance": c.provenance,
            "line_invariant": bool(c.line_report and c.line_report.invariant),
        }

    doc = {
        "verdict": "all-kernels" if result.all_kernels else
                   f"{len(result.candidates)} candidate kernel(s)",
        "criterion": "triple-measure search",
        "family_dimension": result.family.solution.dimension,
        "samples": len(result.family.samples),
        "candidates": [describe(c) for c in result.candidates],
        "numeric_candidates": [describe(c) for c in result.numeric_candidates],
        "notes": list(result.notes),
    }
    return doc, EXIT_OK


def _cmd_find_product(args, model: ModelFile):
    oracle.check_state_cap(model.jrm.alphabet, 2 * 2, args.max_states)
    result = search.find_product(model.jrm, args.tol)
    doc = {
        "verdict": "all-bernoulli" if result.bernoulli_all else
                   f"{len(result.candidates)} invariant product(s) found",
        "criterion": "symmetrized pair system",
        "family_dimension": result.family.solution.dimension,
        "candidates": [[scalar_repr(p) for p in rho] for rho, _ in result.candidates],
        "bernoulli_roots": [scalar_repr(p) for p in result.bernoulli_roots],
        "notes": list(result.notes),
    }
    return doc, EXIT_OK


def _cmd_verify_cycle(args, model: ModelFile):
    n = args.n
    ctx = _law_from_file(model, args.tol)
    if n < 1:
        raise ValueError("cycle length must be >= 1")
    # the build checks the state cap and the transition budget, and stores no
    # transitions yet, so it runs before the decider
    gen = build_generator(model.jrm, CycleSpace(n), max_states=args.max_states)
    report = criteria.check_markov_cycle(ctx, n)
    mu = gibbs_measure(model.kernel, n) if model.kernel else product_measure(model.rho, n)
    residual = stationarity_residual(gen, mu)
    doc = report_json(report, residuals={"oracle_max_residual": scalar_repr(residual)})
    doc["oracle_agrees"] = report.invariant == ctx.is_zero(residual)
    if not doc["oracle_agrees"]:
        return doc, EXIT_ORACLE
    return doc, _verdict_exit(report.invariant)


def _cmd_absorbing(args, model: ModelFile):
    oracle.check_state_cap(model.jrm.alphabet, args.n_max, args.max_states)
    if args.n_min < 1:  # before the sizes are listed: -10^9 would list 10^9 of them
        raise ValueError("cycle sizes must be a nonempty list of sizes >= 1")
    sizes = list(range(args.n_min, args.n_max + 1))
    verdict = oracle.absorbing_exclusion(model.jrm, sizes, max_states=args.max_states)
    doc = {
        "verdict": "no-full-support-markov-law" if verdict.excluded else "inconclusive",
        "criterion": "absorbing-sets",
        "memory_bound": verdict.memory_bound,
        "tested_sizes": list(verdict.tested_sizes),
        "proper_sizes": list(verdict.proper_sizes),
        "pattern_persists": verdict.excluded,
        "note": verdict.note,
    }
    return doc, EXIT_OK


def _cmd_check_2d(args, model: ModelFile):
    if model.rho is None:
        raise ModelFileError("check-2d needs a \"rho\" entry")
    report = check_product_2d(model.square, model.rho, args.tol)
    try:
        gen = build_generator(model.square, TorusSpace(3), max_states=args.max_states)
        residual = scalar_repr(stationarity_residual(gen, product_measure(model.rho, 9)))
    except StateCapExceeded as exc:
        residual = f"skipped: {exc}"
    doc = report_json(report, residuals={"torus3_max_residual": residual})
    if report.witness is not None:
        # the witness of a square check is a pattern on a shape of cells
        witness = doc["witness"]
        doc["witness"] = {"pattern": witness["word"], "residual": witness["residual"]}
    return doc, _verdict_exit(report.invariant)


def _cmd_segment(args, model: ModelFile):
    if model.kernel is None:
        raise ModelFileError("segment checks need a \"kernel\" entry")
    ctx = markov_context(model.jrm, model.kernel, args.tol)
    if args.construct_boundaries:
        oracle.check_state_cap(model.jrm.alphabet, segment.N0 + 1, args.max_states)
        built = segment.construct_boundaries(ctx)
        doc = {
            "verdict": "validated" if built.validation.invariant else "discrepancy",
            "criterion": f"boundary-construction-{built.variant}",
            "beta_left": _rates_json(built.boundary.left),
            "beta_right": _rates_json(built.boundary.right),
        }
        if built.validation.witness is not None:
            doc["witness"] = _witness_json(built.validation.witness)
        return doc, _verdict_exit(built.validation.invariant)
    if model.beta is None:
        raise ModelFileError("segment check needs beta_left/beta_right "
                             "(or --construct-boundaries)")
    oracle.check_state_cap(model.jrm.alphabet, args.n + 1, args.max_states)
    report = segment.check_segment(ctx, model.beta, args.n)
    return report_json(report), _verdict_exit(report.invariant)


def _cmd_equivalences(args, model: ModelFile):
    ctx = _law_from_file(model, args.tol)
    oracle.check_state_cap(model.jrm.alphabet, ctx.critical_length, args.max_states)
    panel = criteria.equivalence_panel(ctx)
    doc = {"verdict": "agree" if len(set(panel.values())) == 1 else "disagree",
           "criterion": "equivalence-panel",
           "panel": {k: bool(v) for k, v in panel.items()}}
    return doc, EXIT_OK


def _param_key(key: str):
    """JSON object keys of --params: "3" is the int 3, "1,2" the pair (1, 2)."""
    parts = key.split(",")
    if not all(p.strip().isdigit() for p in parts):
        return key
    numbers = tuple(int(p) for p in parts)
    return numbers if len(numbers) > 1 else numbers[0]


def _decode_params(value):
    if isinstance(value, dict):
        return {_param_key(k): _decode_params(v) for k, v in value.items()}
    return value


def _cmd_model(args) -> int:
    try:
        params = _decode_params(json.loads(args.params)) if args.params else {}
        spec = models.build(args.name, **params)
    except (TypeError, ValueError, KeyError, ZeroDivisionError) as exc:
        raise ModelFileError(str(exc)) from exc
    doc = model_to_json(spec)
    if args.emit:
        with open(args.emit, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        print(f"wrote {args.emit}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    if spec.notes:
        for note in spec.notes:
            print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


def _tolerance(text: str) -> float:
    """A --tol value: a finite float >= 0 (nan, inf or a negative tolerance
    would decide every zero test one way)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, not {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The psinv parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="psinv",
        description="Invariance criteria, searches and brute-force oracles "
                    "for translation-invariant particle systems.")
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--exact", dest="float_mode", action="store_false",
                        default=False, help="exact rational arithmetic (default)")
    parser.add_argument("--float", dest="float_mode", action="store_true",
                        help="coerce all inputs to floats")
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="zero tolerance in float mode")
    parser.add_argument("--max-states", type=int, default=oracle.DEFAULT_STATE_CAP,
                        help="cap on brute-force configuration spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler in (("check-markov", _cmd_check_markov),
                          ("check-product", _cmd_check_product),
                          ("find-markov", _cmd_find_markov),
                          ("find-product", _cmd_find_product),
                          ("check-2d", _cmd_check_2d),
                          ("equivalences", _cmd_equivalences)):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("file")

    p = sub.add_parser("verify-cycle")
    p.set_defaults(handler=_cmd_verify_cycle)
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("absorbing")
    p.set_defaults(handler=_cmd_absorbing)
    p.add_argument("file")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)

    p = sub.add_parser("segment")
    p.set_defaults(handler=_cmd_segment)
    p.add_argument("file")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--construct-boundaries", action="store_true")

    p = sub.add_parser("model")
    p.add_argument("name")
    p.add_argument("--params", help="JSON object of builder parameters")
    p.add_argument("--emit", help="write the model file here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "model":
            return _cmd_model(args)
        model = _load(args)
        start = time.perf_counter()
        doc, code = args.handler(args, model)
        doc["timings"] = {"total_s": time.perf_counter() - start}
        _emit(doc, args)
        return code
    except (ModelFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StateCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
