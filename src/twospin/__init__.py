"""Two-state spin systems: exact partition sums, uniqueness calculus, and
the random-gadget reduction from two-variable parity equations, all at
desk scale with log-domain arithmetic."""

from .errors import RegimeError, ResourceLimitError, UsageError
from .graphs import BipartiteGadget, MultiGraph, graph_from_text, graph_to_text, \
    read_graph, write_graph
from .spins import (FieldIdentityReport, SpinParams, field_identity_report,
                    log_config_weight, log_partition, log_partition_histogram,
                    log_profile_sum, log_profile_sums, partition_fraction,
                    remove_field)
from .uniqueness import (CaseParams, DegreeScan, OutsideSquareDegrees,
                         PhaseRegion, SplitCase, UniquenessReport,
                         always_unique_bound, case_split, classify_phase,
                         criticality_roots, field_window, first_nonunique_degree,
                         fixed_point, outside_square_degrees, phase_grid,
                         uniqueness_check)
from .e2lin2 import (E2Lin2Instance, best_assignment, format_instance,
                     normalize, occurrence_counts, parse_instance,
                     random_instance, read_instance, satisfied_count,
                     write_instance)
from .reduction import (BoundsConstants, GadgetParams, ReductionGraph,
                        SandwichReport, StructureAudit, audit_reduction_graph,
                        bounds_constants, build_reduction_graph,
                        decode_satisfied_estimate, log_majority_sums,
                        log_polarized_sum_brute, log_polarized_sum_closed,
                        read_blocks, sample_gadget, sandwich_check,
                        write_blocks)
from .analysis import (CouplingReport, ExpanderAudit, MCEstimate, RateBoundScan,
                       coupling_sim, entropy, exact_rate, expander_audit,
                       expected_profile_sum_log, expected_profile_sum_mc,
                       rate_bound, rate_bound_scan)

__version__ = "0.1.0"
