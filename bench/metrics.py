"""Names, units and directions of the benchmark's metrics.

``BENCHMARK.json`` lists the same names; ``test_bench.py`` checks that the
two agree and that every run emits all of them.
"""

WORKLOADS = ("pointwise", "solve", "sample", "cli")

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "task_p50_ms": ("ms", "lower"),
    "task_p90_ms": ("ms", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

# What ``work_per_s`` counts on each workload, and the name it is printed
# under in the human-readable report.
WORK_NAMES = {
    "pointwise": "checks_per_s",
    "solve": "entries_per_s",
    "sample": "trials_per_s",
    "cli": "cli_checks_per_s",
}

MODULES = ("tree", "dl_graph", "lamplighter", "walks", "kernels", "dirichlet", "serialize", "cli")
CLI_SUBCOMMANDS = (
    "kernel-eval", "harmonic-check", "dirichlet-solve", "decompose", "simulate",
    "estimate-f", "cayley-check", "defect", "graph-export",
)


def _calls_self(*names: str) -> list[str]:
    return [f"{n}.{m}" for n in names for m in ("calls", "self_s")]


PER_LAYER = [
    "tree.self_s",
    *_calls_self("tree.confluent_omega", "tree.busemann_wrt_end"),
    "tree.successor.calls", "tree.predecessor.calls", "tree.vertex_validations.calls",
    "dl_graph.self_s",
    *_calls_self("dl_graph.ball", "dl_graph.dl_neighbours", "dl_graph.dls_neighbours"),
    "dl_graph.factor_map.calls",
    "lamplighter.self_s",
    *_calls_self("lamplighter.encode", "lamplighter.decode", "lamplighter.cayley_neighbours"),
    "walks.self_s",
    *_calls_self("walks.transitions", "walks.apply", "walks.estimate_f"),
    "walks.estimate_f.trials", "walks.estimate_f.truncated_frac", "walks.estimate_f.escaped_frac",
    "walks.simulate.self_s",
    "kernels.self_s",
    *_calls_self("kernels.martin_kernel_tree"),
    "kernels.f_minus.calls", "kernels.f_plus.calls",
    *_calls_self("kernels.KernelSpec.evaluate", "kernels.HarmonicFunction.call"),
    "dirichlet.self_s",
    *_calls_self("dirichlet.build_truncation", "dirichlet.hitting_table"),
    "dirichlet.hitting_table.unknowns", "dirichlet.hitting_table.boundary_cols",
    "dirichlet.hitting_table.max_entry_bits",
    *_calls_self("dirichlet.verify_product_formula", "dirichlet.restricted_hitting",
                 "dirichlet.edge_factors"),
    "dirichlet.FiniteChain.index.calls", "dirichlet.HittingTable.value.calls",
    *_calls_self("dirichlet.decompose", "dirichlet.kernel_approx"),
    "dirichlet.represent.self_s",
    "serialize.self_s", "serialize.frac_str.calls",
    *_calls_self("cli.main"),
    *[f"cli.main.{sub}.total_s" for sub in CLI_SUBCOMMANDS],
    "trace.untraced_s", "trace.traced_s", "trace.overhead_s",
]


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("_frac"):
        return "ratio", "lower"
    if name.endswith("_bits"):
        return "bits", "lower"
    if name.endswith(".trials"):
        return "count", "higher"
    return "count", "lower"


