"""The metrics a run reports.

End-to-end metrics come from the untraced rounds of a run, per-layer
metrics from a Tracer after the traced rounds.  Self-time metrics sum the
self time of a group of wrapped functions, named ``<module>.<function>``
(methods as ``polyring.LaurentPoly.<method>``).  A name that a later version
of the package no longer has simply adds nothing.  Every value is per traced
round.
"""

import resource
import statistics

from workloads import FAMILIES

POLY = "polyring.LaurentPoly."

SELF_TIME = {
    "powersum.char_row": ["powersum.char_row"],
    "powersum.schur_to_p": ["powersum.schur_to_p"],
    "powersum.internal_product": ["powersum.internal_product"],
    "powersum.coefficient_of_p": ["powersum.schur_coefficient_of_p"],
    "powersum.plethysm_p": ["powersum.plethysm_p"],
    "polyring.mul": [POLY + "__mul__", POLY + "__pow__"],
    "polyring.add": [POLY + "__add__", POLY + "__sub__", POLY + "__neg__", POLY + "scale"],
    "polyring.divide": [POLY + "exact_divide", "polyring.divide_by_variable_difference"],
    "polyring.other": [
        POLY + name
        for name in (
            "shift",
            "invert_variables",
            "frobenius",
            "map_coefficients",
            "is_symmetric",
            "permuted",
            "leading_monomial",
            "min_exponents",
        )
    ]
    + ["polyring.t_factorial"],
    "schur.poly": [
        "schur.schur_poly",
        "schur.schur_poly_of_partition",
        "schur.schur_poly_ssyt",
        "schur.alternant",
        "schur.vandermonde",
    ],
    "schur.coefficient_of": ["schur.schur_coefficient_of"],
    "schur.coefficients": ["schur.schur_coefficients", "schur.expand_in_schur"],
    "schur.via_alternant": ["schur.schur_coefficients_via_alternant"],
    "hall_littlewood.hl_poly": [
        "hall_littlewood.hl_poly",
        "hall_littlewood.t_vandermonde",
        "hall_littlewood.v_poly",
    ],
    "hall_littlewood.expand_in_hl": ["hall_littlewood.expand_in_hl"],
    "hall_littlewood.charge": [
        "hall_littlewood.kostka_foulkes_charge",
        "hall_littlewood.charge",
        "hall_littlewood.charge_standard",
        "hall_littlewood.reading_word",
    ],
    "partitions.iter_ssyt": ["partitions.iter_ssyt"],
    "partitions.count_ssyt": ["partitions.count_ssyt"],
    "coefficients.lr": ["coefficients.lr_coefficient"],
    "coefficients.lr_oracle": ["coefficients.lr_coefficient_oracle"],
    "coefficients.kron": ["coefficients.kronecker_coefficient"],
    "coefficients.kron_oracle_table": [
        "coefficients.kronecker_oracle_table",
        "coefficients.kronecker_oracle",
    ],
    "coefficients.pleth": ["coefficients.plethysm_coefficient"],
    "coefficients.pleth_map": ["coefficients.plethysm_schur_map"],
    "coefficients.pleth_oracle": ["coefficients.plethysm_oracle"],
    "symmetries.verify_rule": ["symmetries.verify_rule", "symmetries.verify_all"],
    "symmetries.apply_rule": ["symmetries.apply_rule"],
    "symmetries.reduce": [
        "symmetries.reduce_kronecker",
        "symmetries.reduce_plethysm",
        "symmetries.reduce_indices",
    ],
}

# Whole-module self time: each layer's time busy.  The command line is one
# group of its own (cli.main.self_s), so it is not repeated here.
MODULES = (
    "partitions",
    "polyring",
    "powersum",
    "schur",
    "hall_littlewood",
    "coefficients",
    "symmetries",
)

CALLS = {
    "powersum.char_row": ["powersum.char_row"],
    "polyring.mul": [POLY + "__mul__"],
    "symmetries.apply_rule": ["symmetries.apply_rule"],
}

HIT_RATIO = {
    "schur.poly": ["schur.schur_poly", "schur.schur_poly_of_partition"],
    "hall_littlewood.hl_poly": ["hall_littlewood.hl_poly"],
    "partitions.partitions_of": ["partitions.partitions_of"],
}


def end_to_end(ops, scaled, setup_s):
    """Each operation's median sample at the reference speed, summed per
    family.  An operation is the same deterministic work from the same cold
    state every time it runs."""
    medians = [statistics.median(times) for times in scaled]
    family_s = dict.fromkeys(FAMILIES, 0.0)
    for op, seconds in zip(ops, medians):
        family_s[op.family] += seconds
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (sum(op.count for op in ops) / sum(medians), "1/s"),
    }
    for family, seconds in family_s.items():
        metrics[f"{family}_s"] = (seconds, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _ratio(hits, total):
    return hits / total if total else 0.0


def layer_metrics(tracer, traced_s, untraced_s):
    """Per-layer metrics per traced round, plus the tracing overhead: the
    median traced round against the median untraced round of the run."""
    rounds = len(traced_s)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def self_s(names):
        return sum(tracer.self_s.get(n, 0.0) for n in names) / rounds

    for group, names in SELF_TIME.items():
        put(f"{group}.self_s", self_s(names), "s")
    put("cli.main.self_s", self_s([n for n in tracer.self_s if n.startswith("cli.")]), "s")
    for module in MODULES:
        put(f"{module}.self_s", self_s([n for n in tracer.self_s if n.startswith(module + ".")]), "s")
    put("bench.self_s", self_s([n for n in tracer.self_s if n.startswith("bench.")]), "s")
    for group, names in CALLS.items():
        put(f"{group}.calls", sum(tracer.calls.get(n, 0) for n in names) / rounds, "count")
    put("polyring.mul.terms_out", tracer.terms_out.get(POLY + "__mul__", 0) / rounds, "count")
    for group, names in HIT_RATIO.items():
        hits = sum(tracer.cache_hits.get(n, 0) for n in names)
        misses = sum(tracer.cache_misses.get(n, 0) for n in names)
        put(f"{group}.hit_ratio", _ratio(hits, hits + misses), "ratio")
    stats = tracer.context_stats
    put("powersum.strip_memo.size", stats["strip_memo"] / rounds, "count")
    put("symmetries.pleth_maps.size", stats["pleth_maps"] / rounds, "count")
    lookups = stats["kron_lookups"]
    put("symmetries.kron_memo.hit_ratio", _ratio(lookups - stats["kron_entries"], lookups), "ratio")
    put("trace.calls", sum(tracer.calls.values()) / rounds, "count")
    put(
        "trace.overhead_frac",
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
        "ratio",
    )
    return out
