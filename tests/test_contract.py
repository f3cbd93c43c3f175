"""The library's argument contract, held by a fuzzer.

Every public callable in `twospin.__all__`, and a few public functions of
the submodules, has one small base call below.  Each of its scalar
arguments in turn takes each hostile value, under a time limit per call, and
the call must either return a result with no NaN anywhere in it or raise
UsageError or ResourceLimitError (RegimeError is a UsageError): never a bare
exception, a NaN or a hang.
"""

import dataclasses
import math
import numbers
import signal

import numpy as np
import pytest

import twospin
from twospin.analysis import (chi2_sf, coupling_sim, entropy,
                              enumerate_profile_sums_mean_log, exact_rate, expander_audit,
                              expected_profile_sum_log, expected_profile_sum_mc,
                              polarized_branch_rate_bound, rate_bound, rate_bound_grid,
                              rate_bound_scan)
from twospin.e2lin2 import (E2Lin2Instance, best_assignment, format_instance, normalize,
                            occurrence_counts, parse_instance, random_instance,
                            satisfied_count)
from twospin.errors import ResourceLimitError, UsageError
from twospin.graphs import (BipartiteGadget, MultiGraph, cycle_graph, graph_from_text,
                            graph_to_text)
from twospin.reduction import (BoundsConstants, GadgetParams, audit_reduction_graph,
                               bounds_constants, build_reduction_graph,
                               decode_satisfied_estimate, log_majority_sums,
                               log_polarized_sum_brute, log_polarized_sum_closed,
                               sample_gadget, sandwich_check)
from twospin.spins import (SpinParams, field_identity_report, log_config_weight,
                           log_partition, log_partition_histogram, log_profile_sum,
                           log_profile_sums, partition_fraction, remove_field)
from twospin.uniqueness import (SplitCase, always_unique_bound, case_split, classify_phase,
                                classify_phase_detail,
                                criticality_roots, field_window, first_nonunique_degree,
                                fixed_point, outside_square_degrees, phase_grid,
                                uniqueness_check)

HOSTILE = (math.nan, math.inf, -math.inf, 1.5, -1, 0, 2 ** 64, 10 ** 400, True)
TIME_LIMIT = 2.0  # seconds per call; every base call takes milliseconds

# the public names without a base call, each with its reason
UNFUZZED = {
    **dict.fromkeys(("read_graph", "write_graph", "read_instance", "write_instance",
                     "read_blocks", "write_blocks"),
                    "a path reader or writer: the text it reads is fuzzed in test_formats"),
    **dict.fromkeys(("PhaseRegion", "SplitCase"), "an enum"),
    **dict.fromkeys(("RegimeError", "ResourceLimitError", "UsageError"), "an exception type"),
    **dict.fromkeys(("BoundsConstants", "CaseParams", "CouplingReport", "DegreeScan",
                     "ExpanderAudit", "FieldIdentityReport", "MCEstimate",
                     "OutsideSquareDegrees", "RateBoundScan", "ReductionGraph",
                     "SandwichReport", "StructureAudit", "UniquenessReport"),
                    "a report dataclass, built by the library"),
}


def _listed(generator):
    return lambda **kwargs: list(generator(**kwargs))


P = SpinParams(0.4, 0.7)
FIELDED = SpinParams(0.4, 0.7, 1.3)
G = cycle_graph(4)
H = sample_gadget(2, 2, 0)
INST = E2Lin2Instance(2, ((0, 1, 1),))
RG = build_reduction_graph(INST, GadgetParams(1, 1, 1, 0))
BELOW_HALF = SplitCase.BETA_BELOW_HALF

BASE = {
    "BipartiteGadget": (BipartiteGadget, dict(graph=H.graph, left=H.left, right=H.right)),
    "E2Lin2Instance": (E2Lin2Instance, dict(num_vars=2, equations=((0, 1, 1),))),
    "GadgetParams": (GadgetParams, dict(delta=2, delta_prime=1, block_size=1, seed=0)),
    "MultiGraph": (MultiGraph, dict(num_vertices=3, edges=((0, 1), (1, 2, 2)))),
    "SpinParams": (SpinParams, dict(beta=0.4, gamma=0.7, mu=1.3)),
    "always_unique_bound": (always_unique_bound, dict(beta=0.4, gamma=0.7)),
    "audit_reduction_graph": (audit_reduction_graph, dict(rg=RG)),
    "best_assignment": (best_assignment, dict(inst=INST, max_vars=24)),
    "bounds_constants": (bounds_constants, dict(p=P, delta=2, delta_prime=1, case=BELOW_HALF)),
    "build_reduction_graph": (build_reduction_graph,
                              dict(inst=INST, params=GadgetParams(1, 1, 1, 0))),
    "case_split": (case_split, dict(beta=0.3, gamma=0.6, delta_star=10, L=2)),
    "classify_phase": (classify_phase, dict(p=P, d=4, h=1000.0)),
    "coupling_sim": (coupling_sim, dict(n=4, b=0.5, d=2, seed=0, trials=100, a=1.0,
                                        chi2_alpha=1e-3)),
    "criticality_roots": (criticality_roots, dict(beta=0.2, gamma=0.5, d=10)),
    "decode_satisfied_estimate": (decode_satisfied_estimate, dict(
        log_estimate=30.0, n=6, m=8, constants=BoundsConstants(0.5, 0.2, BELOW_HALF),
        relative_error=1e-4, slack=0.03)),
    "entropy": (entropy, dict(x=0.3)),
    "exact_rate": (exact_rate, dict(a=0.25, b=0.5, delta=4, delta_prime=1, beta=0.3,
                                    gamma=0.9)),
    "expander_audit": (expander_audit, dict(h=H, eps=0.5, factor=0.25)),
    "expected_profile_sum_log": (expected_profile_sum_log, dict(
        n_side=3, delta=2, delta_prime=1, p=P, a=1 / 3, b=2 / 3)),
    "expected_profile_sum_mc": (expected_profile_sum_mc, dict(
        n_side=2, delta=1, delta_prime=1, p=P, a=0.5, b=0.5, trials=10, seed=0)),
    "field_identity_report": (field_identity_report, dict(g=G, p=FIELDED)),
    "field_window": (field_window, dict(beta=0.2, gamma=0.5, d=10)),
    "first_nonunique_degree": (first_nonunique_degree, dict(p=SpinParams(0.5, 0.5), d_max=8)),
    "fixed_point": (fixed_point, dict(p=FIELDED, d=4)),
    "format_instance": (format_instance, dict(inst=INST)),
    "graph_from_text": (graph_from_text, dict(text="p graph 2 1\ne 0 1 3\n")),
    "graph_to_text": (graph_to_text, dict(g=G)),
    "log_config_weight": (log_config_weight, dict(g=G, p=P, bits=(0, 1, 0, 1))),
    "log_majority_sums": (log_majority_sums, dict(rg=RG, p=P)),
    "log_partition": (log_partition, dict(
        g=G, p=FIELDED, fixed={0: 1}, max_vertices=28, threads=1)),
    "log_partition_histogram": (log_partition_histogram, dict(
        g=G, p=P, profile=None, num_buckets=3, max_vertices=28)),
    "log_polarized_sum_brute": (log_polarized_sum_brute, dict(rg=RG, bits=(1, 0), p=P)),
    "log_polarized_sum_closed": (log_polarized_sum_closed, dict(rg=RG, bits=(1, 0), p=P)),
    "log_profile_sum": (log_profile_sum, dict(h=H, p=P, delta_prime=1, a=0.5, b=0.5)),
    "log_profile_sums": (log_profile_sums, dict(h=H, p=P, delta_prime=1)),
    "normalize": (normalize, dict(inst=E2Lin2Instance(4, ((0, 3, 1),)))),
    "occurrence_counts": (occurrence_counts, dict(inst=INST)),
    "outside_square_degrees": (outside_square_degrees, dict(beta=0.5, gamma=1.5)),
    "parse_instance": (parse_instance, dict(text="p e2lin2 2 1\n1 2 1\n")),
    "partition_fraction": (partition_fraction, dict(g=G, beta=0.5, gamma=1.5, mu=2)),
    "phase_grid": (_listed(phase_grid), dict(betas=[0.2, 2.0], gammas=[0.3, 2.0], mu=1.0,
                                             d=4, h=1000.0)),
    "random_instance": (random_instance, dict(n=3, m=3, seed=0)),
    "rate_bound": (rate_bound, dict(a=0.3, b=0.4, c=8000.0)),
    "rate_bound_scan": (rate_bound_scan, dict(c=8000.0, min_fraction=0.1, step=0.25)),
    "remove_field": (remove_field, dict(p=FIELDED, d=3)),
    "sample_gadget": (sample_gadget, dict(n_side=3, delta=2, seed=0)),
    "sandwich_check": (sandwich_check, dict(rg=RG, p=P, tolerance=1e-9, threads=1)),
    "satisfied_count": (satisfied_count, dict(inst=INST, bits=(0, 1))),
    "uniqueness_check": (uniqueness_check, dict(p=P, d=4)),
}
# public functions of the submodules that twospin.__all__ does not list
SUBMODULE_BASE = {
    "chi2_sf": (chi2_sf, dict(stat=3.0, dof=4)),
    "classify_phase_detail": (classify_phase_detail, dict(p=P, d=4, h=1000.0)),
    "enumerate_profile_sums_mean_log": (enumerate_profile_sums_mean_log, dict(
        n_side=2, delta=1, delta_prime=1, p=P)),
    "polarized_branch_rate_bound": (polarized_branch_rate_bound, dict(degree_ratio=8000)),
    "rate_bound_grid": (_listed(rate_bound_grid), dict(c=8000.0, min_fraction=0.1, step=0.25)),
}


DATACLASSES = tuple(getattr(twospin, name) for name in twospin.__all__
                    if dataclasses.is_dataclass(getattr(twospin, name)))


class _Hung(Exception):
    pass


def _has_nan(value) -> bool:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "fc" and bool(np.isnan(value).any())
    if isinstance(value, (tuple, list)):
        return any(map(_has_nan, value))
    if isinstance(value, dict):
        return any(map(_has_nan, value.values()))
    if isinstance(value, (MultiGraph, *DATACLASSES)):  # the library's own records
        return any(map(_has_nan, vars(value).values()))
    return False


def _outcome(func, kwargs) -> str:
    """'ok' or 'refused', or what went wrong: a bare exception, NaN or a hang."""
    def hung(signum, frame):
        raise _Hung

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        result = func(**kwargs)
    except (UsageError, ResourceLimitError):
        return "refused"
    except _Hung:
        return f"ran past {TIME_LIMIT} s"
    except Exception as exc:  # the contract allows no other exception
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return "NaN in the result" if _has_nan(result) else "ok"


def test_every_public_callable_has_a_base_call_or_a_reason():
    assert set(BASE).isdisjoint(UNFUZZED)
    assert set(BASE) | set(UNFUZZED) == set(twospin.__all__)


@pytest.mark.parametrize("name", sorted({**BASE, **SUBMODULE_BASE}))
def test_hostile_scalars_are_refused_or_harmless(name):
    func, base = {**BASE, **SUBMODULE_BASE}[name]
    assert _outcome(func, base) == "ok"
    faults = []
    for arg, value in base.items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            continue  # a graph, a parameter record, pins, bits or a case
        for hostile in HOSTILE:
            outcome = _outcome(func, {**base, arg: hostile})
            if outcome not in ("ok", "refused"):
                faults.append(f"{arg}={hostile if hostile != 10 ** 400 else '10**400'}: "
                              f"{outcome}")
    assert not faults, f"{name}: " + "; ".join(faults)
