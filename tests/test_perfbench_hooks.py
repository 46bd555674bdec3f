"""The benchmark's hook points in perfbench/layers.py must keep existing.

The benchmark times and counts psinv from outside: it wraps the functions
that layers.py names and reads attributes of their results.  A refactor that
renames one of them would leave a per-layer metric silently unfired.
"""
import importlib
import importlib.util
import os
from fractions import Fraction

from psinv.criteria import (check_markov_cycle, check_markov_line, markov_context,
                            product_context, z_table)
from psinv.linalg import perron_pair
from psinv.models import hmc_example, stochastic_ising, tasep
from psinv.oracle import CycleSpace, build_generator
from psinv.search import candidate_kernels, solve_cycle3_system, triple_from_kernel

from z_reference import reference_z_values

F = Fraction
LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"psinv.{module}")
    for part in path:
        obj = getattr(obj, part)
    return obj


def test_named_functions_exist():
    layers = _layers()
    traced = {f for _, _, source, _, _ in layers.METRICS for f in layers.functions_of(source)}
    traced |= set(layers.HOOKS)
    for name in traced | set(layers.EXTRA):
        assert callable(_resolve(name)), name
    # the tracer wraps public functions, plus the private ones and methods in EXTRA
    for name in traced - set(layers.EXTRA):
        assert not name.split(".")[-1].startswith("_"), f"{name} is not public"


def test_z_entries_counts_the_table_entries():
    # the criteria.z_entries hook adds len(z_table(ctx).values) per call
    spec = hmc_example()
    for ctx in (markov_context(spec.jrm, spec.kernel),
                product_context(tasep().jrm, [F(1, 3), F(2, 3)])):
        values = z_table(ctx).values
        assert len(values) == ctx.alphabet.kappa ** (2 * ctx.memory + ctx.range_)
        assert dict(values.items()) == reference_z_values(ctx)


def test_hooked_result_attributes_exist():
    ising = stochastic_ising(F(1, 2))
    ctx = markov_context(ising.jrm, ising.kernel)
    assert z_table(ctx).values
    assert check_markov_line(ctx).words_checked
    assert check_markov_cycle(ctx, 3).words_checked
    gen = build_generator(tasep().jrm, CycleSpace(3))
    assert gen.rows and gen.n_states == 8
    family = solve_cycle3_system(tasep().jrm)
    assert family.variables and family.samples
    nu = triple_from_kernel(ising.kernel)
    result = candidate_kernels(tasep().jrm, nu)
    assert all(isinstance(c.exact, bool) for c in result.candidates)
    assert result.candidates
    assert isinstance(perron_pair([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]).exact, bool)
