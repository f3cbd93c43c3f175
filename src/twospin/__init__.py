"""Two-state spin systems: exact partition sums, uniqueness calculus, and
the random-gadget reduction from two-variable parity equations, all at
desk scale with log-domain arithmetic.

Every public name below, and each submodule that defines them, resolves on
first use, importing only that submodule, so `import twospin` (and each
`twospin` command) loads no module it does not run."""

_EXPORTS = {
    "errors": ("RegimeError", "ResourceLimitError", "UsageError"),
    "graphs": ("BipartiteGadget", "MultiGraph", "graph_from_text", "graph_to_text",
               "read_graph", "write_graph"),
    "spins": ("FieldIdentityReport", "SpinParams", "field_identity_report",
              "log_config_weight", "log_partition", "log_partition_histogram",
              "log_profile_sum", "log_profile_sums", "partition_fraction",
              "remove_field"),
    "uniqueness": ("CaseParams", "DegreeScan", "OutsideSquareDegrees", "PhaseRegion",
                   "SplitCase", "UniquenessReport", "always_unique_bound", "case_split",
                   "classify_phase", "criticality_roots", "field_window",
                   "first_nonunique_degree", "fixed_point", "outside_square_degrees",
                   "phase_grid", "uniqueness_check"),
    "e2lin2": ("E2Lin2Instance", "best_assignment", "format_instance", "normalize",
               "occurrence_counts", "parse_instance", "random_instance", "read_instance",
               "satisfied_count", "write_instance"),
    "reduction": ("BoundsConstants", "GadgetParams", "ReductionGraph", "SandwichReport",
                  "StructureAudit", "audit_reduction_graph", "bounds_constants",
                  "build_reduction_graph", "decode_satisfied_estimate",
                  "log_majority_sums", "log_polarized_sum_brute",
                  "log_polarized_sum_closed", "read_blocks", "sample_gadget",
                  "sandwich_check", "write_blocks"),
    "analysis": ("CouplingReport", "ExpanderAudit", "MCEstimate", "RateBoundScan",
                 "coupling_sim", "entropy", "exact_rate", "expander_audit",
                 "expected_profile_sum_log", "expected_profile_sum_mc", "rate_bound",
                 "rate_bound_scan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path binds the submodule here and, unlike
    # importlib.import_module, shows in `python -X importtime`
    __import__(f"{__name__}.{module}")
    if name != module:  # later uses of the name skip this hook
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
