"""Golden CLI outputs: every catalog model through each subcommand that applies.

Each file under tests/golden/ holds the exit code and the standard output of
one `psinv` call, with the `timings` block dropped from JSON reports (it is
the only part that changes from run to run).  Refactors must reproduce these
files byte for byte.  Re-record them, only on purpose, with

    PYTHONPATH=src python tests/test_golden.py --record
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

import pytest

from psinv import cli, models

F = Fraction
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

HALF = ["1/2", "1/2"]
THIRDS = ["1/3", "1/3", "1/3"]
TASEP_KERNEL = {"memory": 1, "kernel": [["2/3", "1/3"], ["2/3", "1/3"]]}
GEOMETRIC4 = [str(F(2 ** (3 - u), 15)) for u in range(4)]

# model key -> (catalog name, builder parameters, keys spliced into the file)
MODELS = {
    "tasep": ("tasep", {}, {"rho": ["3/4", "1/4"], **TASEP_KERNEL}),
    "contact": ("contact", {"lam": 1}, {"rho": HALF}),
    "voter": ("voter", {}, {"rho": HALF}),
    "ising": ("stochastic_ising", {"x": F(1, 2)}, {}),
    "tasep3_121": ("tasep3", {"r10": 1, "r20": 2, "r21": 1}, {"rho": ["1/6", "1/3", "1/2"]}),
    "tasep3_111": ("tasep3", {"r10": 1, "r20": 1, "r21": 1}, {"rho": THIRDS}),
    "tasep3_cyclic": ("tasep3_cyclic", {"r02": 1, "r10": 1, "r21": 1}, {"rho": THIRDS}),
    "tasep3_exchange": ("tasep3_exchange",
                        {"rates": {(0, 1): 1, (1, 0): 1, (1, 2): 2, (2, 1): 2}},
                        {"rho": THIRDS}),
    "zero_range": ("zero_range", {"g": lambda a, k: 1, "kappa_trunc": 4},
                   {"rho": GEOMETRIC4}),
    "pushtasep_blocks": ("pushtasep_blocks", {"kappa_trunc": 3}, {"rho": ["4/7", "2/7", "1/7"]}),
    "hmc": ("hmc_example", {}, {}),
    "kappa2_general": ("kappa2_general", {"rates": {0: {3: F(4, 3)}, 3: {0: F(1, 3)},
                                                    2: {1: 1}}},
                       {"rho": ["1/3", "2/3"]}),
    "flip_2d": ("flip_2d", {"a": 4}, {"rho": ["2/3", "1/3"]}),
    "pair_flip_2d": ("pair_flip_2d", {"a": 1, "b": 2}, {"rho": HALF}),
    "rotation_2d": ("rotation_2d", {"a": 1, "b": 1, "c": 1, "d": 1}, {"rho": ["1/3", "2/3"]}),
    "three_colour_flip_2d": ("three_colour_flip_2d", {"a0": 1, "a1": 1, "a2": 1},
                             {"rho": THIRDS}),
    "ball_move_2d": ("ball_move_2d", {"kappa_trunc": 2}, {"rho": HALF}),
    "ball_cycle_2d": ("ball_cycle_2d", {"kappa_trunc": 2}, {"rho": HALF}),
    "urn_shift_2d": ("urn_shift_2d", {"kappa_trunc": 2}, {"rho": ["1/3", "2/3"]}),
}

RANGE2 = ("find-markov", "find-product")
SMALL_ABSORBING = ("absorbing", "--n-min", "3", "--n-max", "6")

# model key -> subcommands (each a tuple of arguments after the model file)
COMMANDS = {
    "tasep": [("check-markov",), ("check-product",), *[(c,) for c in RANGE2],
              ("equivalences",), SMALL_ABSORBING, ("verify-cycle", "--n", "5"),
              ("segment", "--construct-boundaries")],
    "contact": [("check-product",), *[(c,) for c in RANGE2], ("equivalences",),
                ("absorbing", "--n-min", "3", "--n-max", "8"), ("verify-cycle", "--n", "4")],
    "voter": [("check-product",), ("equivalences",), ("absorbing", "--n-min", "3", "--n-max", "8")],
    "ising": [("check-markov",), ("equivalences",), SMALL_ABSORBING,
              ("verify-cycle", "--n", "5")],
    "tasep3_121": [("check-product",), *[(c,) for c in RANGE2], ("equivalences",)],
    "tasep3_111": [("check-product",), ("find-product",), ("verify-cycle", "--n", "4")],
    "tasep3_cyclic": [("check-product",), *[(c,) for c in RANGE2]],
    "tasep3_exchange": [("check-product",), *[(c,) for c in RANGE2]],
    "zero_range": [("check-product",), *[(c,) for c in RANGE2]],
    "pushtasep_blocks": [("check-product",), *[(c,) for c in RANGE2]],
    "hmc": [("check-markov",), ("check-product",), ("verify-cycle", "--n", "4")],
    "kappa2_general": [("check-product",), *[(c,) for c in RANGE2]],
    **{key: [("check-2d",)] for key in ("flip_2d", "pair_flip_2d", "rotation_2d",
                                         "three_colour_flip_2d", "ball_move_2d",
                                         "ball_cycle_2d", "urn_shift_2d")},
}

# float-mode and text-report variants of a few calls: (model key, global
# flags, subcommand with its arguments).  The float oracle residuals depend on
# the order of the float sums, so they pin that order.
EXTRA_CASES = [
    ("tasep", ("--float",), ("check-product",)),
    ("ising", ("--float",), ("check-markov",)),
    ("contact", ("--float",), ("check-product",)),
    ("flip_2d", ("--float",), ("check-2d",)),
    ("tasep3_111", ("--report", "text"), ("check-product",)),
    ("hmc", ("--report", "text"), ("check-markov",)),
    ("ising", ("--float",), ("verify-cycle", "--n", "6")),
    ("hmc", ("--float",), ("verify-cycle", "--n", "5")),
    ("urn_shift_2d", ("--float",), ("check-2d",)),
    ("three_colour_flip_2d", ("--float",), ("check-2d",)),
    # text reports print the keys in the order the report is built
    ("pair_flip_2d", ("--report", "text"), ("check-2d",)),
    ("contact", ("--report", "text"), ("verify-cycle", "--n", "4")),
    ("contact", ("--report", "text"), ("absorbing", "--n-min", "3", "--n-max", "8")),
    ("tasep", ("--report", "text"), ("find-product",)),
    ("tasep", ("--report", "text"), ("segment", "--construct-boundaries")),
]


def _case_name(key, args):
    return "__".join([key] + [a.lstrip("-").replace("-", "_") for a in args])


def cases():
    out = []
    for key, commands in COMMANDS.items():
        for args in commands:
            out.append((_case_name(key, args), key, ("--report", "json", args[0]),
                        args[1:]))
    for key, flags, command in EXTRA_CASES:
        head = flags if "--report" in flags else ("--report", "json") + flags
        out.append((_case_name(key, flags + command), key, head + command[:1], command[1:]))
    return out


def write_model(key, directory):
    name, params, extra = MODELS[key]
    doc = cli.model_to_json(models.build(name, **params))
    doc.update(extra)
    path = os.path.join(directory, f"{key}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def render(key, head, tail, directory):
    """`exit: N` and the standard output of one CLI call, timings dropped."""
    argv = [*head, write_model(key, directory), *tail]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    if "json" in head:
        doc = json.loads(text)
        doc.pop("timings", None)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return f"exit: {code}\n{text}"


CASES = cases()


@pytest.mark.parametrize("name,key,head,tail", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, key, head, tail, tmp_path):
    with open(os.path.join(GOLDEN, f"{name}.out")) as handle:
        expected = handle.read()
    assert render(key, head, tail, str(tmp_path)) == expected


def test_every_catalog_model_is_covered():
    assert {MODELS[key][0] for key in COMMANDS} == set(models.catalog())


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, key, head, tail in CASES:
            with open(os.path.join(GOLDEN, f"{name}.out"), "w") as handle:
                handle.write(render(key, head, tail, scratch))
    print(f"recorded {len(CASES)} golden outputs in {GOLDEN}")
