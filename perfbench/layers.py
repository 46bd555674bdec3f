"""The per-layer metrics: which psinv function each one times or counts, on
which workload it must fire, and which end-to-end metric it should move.

Layers are psinv's modules.  Times are busy time (sum of span durations) or
self time (busy time minus child spans) of the named public functions, per
pass over the workload's job list.  Counts are read from call results at
the same boundaries.  `EXACT_COUNTERS` must repeat exactly on every pass
and every run of one seed: they depend only on the inputs.
"""
from __future__ import annotations

MODULES = ("cli", "linalg", "criteria", "segment", "search", "oracle", "lattice2d")
# cli.main is the job itself; cli._emit renders and prints the report
SKIP = ("cli.main",)
EXTRA = ("cli._emit", "criteria.PotentialCertificate.check")


def _nnz(gen) -> int:
    return sum(len(row) for row in gen.rows)


def _build(tracer, args, kwargs, gen):
    nnz = _nnz(gen)
    tracer.memo[id(gen)] = nnz
    tracer.counters["oracle.states"] += gen.n_states
    tracer.counters["oracle.nnz"] += nnz


def _residual(tracer, args, kwargs, result):
    gen = args[0] if args else kwargs["gen"]
    nnz = tracer.memo.get(id(gen))
    tracer.counters["oracle.residual_nnz"] += _nnz(gen) if nnz is None else nnz


def _cycle3(tracer, args, kwargs, family):
    tracer.counters["search.cycle3_unknowns"] += len(family.variables)
    tracer.counters["search.samples"] += len(family.samples)


def _kernels(tracer, args, kwargs, result):
    tracer.counters["search.certified"] += sum(1 for c in result.candidates if c.exact)


def _perron(tracer, args, kwargs, pair):
    tracer.counters["linalg.perron_exact"] += bool(pair.exact)


def _count(counter: str, attribute: str):
    def hook(tracer, args, kwargs, result):
        value = getattr(result, attribute)
        tracer.counters[counter] += value if isinstance(value, int) else len(value)
    return hook


HOOKS = {
    "criteria.z_table": _count("criteria.z_entries", "values"),
    "criteria.check_markov_line": _count("criteria.anchor_words", "words_checked"),
    "criteria.check_markov_cycle": _count("criteria.cycle_words", "words_checked"),
    "oracle.build_generator": _build,
    "oracle.stationarity_residual": _residual,
    "search.solve_cycle3_system": _cycle3,
    "search.candidate_kernels": _kernels,
    "linalg.perron_pair": _perron,
}

EXACT_COUNTERS = ("criteria.z_entries", "criteria.anchor_words", "criteria.cycle_words",
                  "oracle.states", "oracle.nnz", "search.samples",
                  "search.cycle3_unknowns")

# name, unit, how it is computed, workload it must fire on, metric it should move
#   ("busy", fns) sum of busy time   ("self", fns) sum of self time
#   ("calls", fn)                    ("count", counter)
#   ("ratio", numerator counter or calls:fn, denominator counter or calls:fn)
#   ("ns_per", fn, counter) busy ns of fn per counted unit
METRICS = (
    ("cli.load_ms", "ms", ("busy", ("cli.load_model_file",)), "decide", "median_jobs_vs_seed"),
    ("cli.render_ms", "ms", ("busy", ("cli.report_json", "cli._emit")), "decide",
     "median_jobs_vs_seed"),
    ("linalg.stationary_ms", "ms", ("busy", ("linalg.stationary_distribution",)),
     "decide", "median_jobs_vs_seed"),
    ("linalg.solve_ms", "ms", ("busy", ("linalg.solve_linear",)), "search", "speedup_vs_seed"),
    ("linalg.solve_calls", "count", ("calls", "linalg.solve_linear"), "search",
     "speedup_vs_seed"),
    ("linalg.perron_ms", "ms", ("busy", ("linalg.perron_pair",)), "search", "speedup_vs_seed"),
    ("linalg.perron_exact_frac", "frac",
     ("ratio", "linalg.perron_exact", "calls:linalg.perron_pair"), "search", "speedup_vs_seed"),
    ("criteria.z_table_ms", "ms", ("busy", ("criteria.z_table",)), "decide", "speedup_vs_seed"),
    ("criteria.z_entries", "count", ("count", "criteria.z_entries"), "decide",
     "speedup_vs_seed"),
    ("criteria.line_check_self_ms", "ms", ("self", ("criteria.check_markov_line",)),
     "decide", "median_jobs_vs_seed"),
    ("criteria.anchor_words", "count", ("count", "criteria.anchor_words"), "decide",
     "median_jobs_vs_seed"),
    ("criteria.certificate_ms", "ms",
     ("busy", ("criteria.potential_from_table", "criteria.PotentialCertificate.check")),
     "decide", "median_jobs_vs_seed"),
    ("criteria.cycle_check_ms", "ms", ("busy", ("criteria.check_markov_cycle",)),
     "crosscheck", "speedup_vs_seed"),
    ("criteria.cycle_words", "count", ("count", "criteria.cycle_words"), "crosscheck",
     "speedup_vs_seed"),
    ("criteria.panel_ms", "ms", ("busy", ("criteria.equivalence_panel",)), "crosscheck",
     "speedup_vs_seed"),
    ("segment.check_ms", "ms", ("busy", ("segment.check_segment",)), "decide",
     "speedup_vs_seed"),
    ("segment.construct_ms", "ms", ("busy", ("segment.construct_boundaries",)), "decide",
     "speedup_vs_seed"),
    ("search.cycle3_ms", "ms", ("busy", ("search.solve_cycle3_system",)), "search",
     "speedup_vs_seed"),
    ("search.cycle3_unknowns", "count", ("count", "search.cycle3_unknowns"), "search",
     "speedup_vs_seed"),
    ("search.kernels_ms", "ms", ("busy", ("search.candidate_kernels",)), "search",
     "speedup_vs_seed"),
    ("search.samples", "count", ("count", "search.samples"), "search", "speedup_vs_seed"),
    ("search.yield", "frac", ("ratio", "search.certified", "search.samples"), "search",
     "speedup_vs_seed"),
    ("search.product_ms", "ms", ("busy", ("search.find_product",)), "search",
     "tail_jobs_vs_seed"),
    ("oracle.build_ms", "ms", ("busy", ("oracle.build_generator",)), "crosscheck",
     "speedup_vs_seed"),
    ("oracle.states", "count", ("count", "oracle.states"), "crosscheck", "peak_rss_mb"),
    ("oracle.nnz", "count", ("count", "oracle.nnz"), "crosscheck", "peak_rss_mb"),
    ("oracle.measure_ms", "ms", ("busy", ("oracle.gibbs_measure", "oracle.product_measure")),
     "crosscheck", "speedup_vs_seed"),
    ("oracle.residual_ms", "ms", ("busy", ("oracle.stationarity_residual",)), "crosscheck",
     "speedup_vs_seed"),
    ("oracle.residual_ns_per_nnz", "ns/nnz",
     ("ns_per", "oracle.stationarity_residual", "oracle.residual_nnz"), "crosscheck",
     "tail_jobs_vs_seed"),
    ("oracle.absorbing_ms", "ms", ("busy", ("oracle.absorbing_analysis",)), "crosscheck",
     "speedup_vs_seed"),
    ("lattice2d.check_ms", "ms", ("busy", ("lattice2d.check_product_2d",)), "crosscheck",
     "median_jobs_vs_seed"),
)


def functions_of(source) -> tuple:
    kind = source[0]
    if kind in ("busy", "self"):
        return source[1]
    if kind == "calls":
        return (source[1],)
    if kind == "ns_per":
        return (source[1],)
    return tuple(s[len("calls:"):] for s in source[1:] if s.startswith("calls:"))


def _amount(totals: dict, ref: str):
    if ref.startswith("calls:"):
        return totals["calls"][ref[len("calls:"):]]
    return totals["counters"][ref]


def evaluate(source, totals: dict, passes: int) -> float:
    """A metric's value per pass from traced totals (see `spans.Tracer.totals`)."""
    kind = source[0]
    if kind in ("busy", "self"):
        table = totals["busy_ns" if kind == "busy" else "self_ns"]
        return sum(table[f] for f in source[1]) / 1e6 / passes
    if kind == "calls":
        return totals["calls"][source[1]] / passes
    if kind == "count":
        return totals["counters"][source[1]] / passes
    if kind == "ratio":
        denominator = _amount(totals, source[2])
        return _amount(totals, source[1]) / denominator if denominator else 0.0
    if kind == "ns_per":
        units = totals["counters"][source[2]]
        return totals["busy_ns"][source[1]] / units if units else 0.0
    raise ValueError(f"unknown metric source {source!r}")


def unfired(totals: dict, workload: str):
    """Functions behind this workload's metrics that were never called."""
    missing = []
    for name, _, source, home, _ in METRICS:
        if home == workload:
            missing += [f"{name} ({f})" for f in functions_of(source)
                        if not totals["calls"][f]]
            if source[0] == "count" and not totals["counters"][source[1]]:
                missing.append(f"{name} (counter {source[1]})")
    return missing
