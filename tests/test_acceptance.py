"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance and time budget is pinned here; nothing is
deferred to later calibration.
"""

import math
import subprocess
import sys
import time

import numpy as np

from corpus import independent_set_corpus, regular_corpus
from oracles import (independent_set_count, recursion_value,
                     sequential_indicator_law)
from twospin.analysis import (coupling_sim, enumerate_profile_sums_mean_log,
                              expected_profile_sum_log, expected_profile_sum_mc,
                              rate_bound_scan)
from twospin.e2lin2 import E2Lin2Instance, random_instance
from twospin.reduction import (GadgetParams, audit_reduction_graph,
                               build_reduction_graph, log_polarized_sum_brute,
                               log_polarized_sum_closed, sample_gadget,
                               sandwich_check)
from twospin.spins import SpinParams, field_identity_report, log_partition, \
    partition_fraction
from twospin.uniqueness import (always_unique_bound, criticality_roots,
                                field_window, first_nonunique_degree,
                                fixed_point, magnitude_grid,
                                outside_square_degrees, uniqueness_check)

_SUITE_START = time.time()


def _gate(name, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"{name}: {detail} ({elapsed:.1f}s of {budget:.0f}s)"


def _toy_instances():
    mk = E2Lin2Instance
    return [
        mk(2, ((0, 1, 1),)),                                   # n=2 m=1
        mk(2, ((0, 1, 0), (0, 1, 1))),                         # n=2 m=2
        mk(2, ((0, 1, 0), (0, 1, 1), (0, 1, 0))),              # n=2 m=3
        mk(3, ((0, 1, 1), (1, 2, 0))),                         # n=3 m=2
        mk(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1))),              # n=3 m=3
    ]


def test_criterion_01_polarized_closed_form_identity():
    """Closed form equals brute force over the full toy matrix, 1e-9 log-relative."""
    start = time.time()
    rng = np.random.default_rng(20250809)
    pairs = [(float(rng.uniform(1e-3, 1.0)), float(rng.uniform(1e-3, 1.0)))
             for _ in range(20)]
    worst = 0.0
    cases = 0
    for inst in _toy_instances():
        for t in (1, 2):
            for delta in (1, 2, 3):
                for delta_prime in (1, 2):
                    rg = build_reduction_graph(
                        inst, GadgetParams(delta, delta_prime, t,
                                           seed=1000 + cases))
                    for beta, gamma in pairs:
                        p = SpinParams(beta, gamma)
                        for enc in range(1 << inst.num_vars):
                            bits = tuple((enc >> i) & 1
                                         for i in range(inst.num_vars))
                            closed = log_polarized_sum_closed(rg, bits, p)
                            brute = log_polarized_sum_brute(rg, bits, p)
                            gap = abs(closed - brute) / max(1.0, abs(closed))
                            worst = max(worst, gap)
                            cases += 1
    elapsed = time.time() - start
    _gate("criterion 1 (polarized closed form = brute force)",
          worst <= 1e-9, f"{cases} cases, worst relative gap {worst:.2e}",
          elapsed, 60.0)


def test_criterion_02_independent_set_oracle():
    """Hardcore partition sums count independent sets exactly on 30 graphs."""
    start = time.time()
    p = SpinParams(0.0, 1.0, 1.0)
    graphs = independent_set_corpus()
    checked = 0
    for g in graphs:
        pairs = [(u, v) for u, v, _ in g.edges]
        expect = independent_set_count(g.num_vertices, pairs)
        got = log_partition(g, p)
        assert round(math.exp(got)) == expect
        assert abs(got - math.log(expect)) <= 1e-12 * max(1.0, abs(got))
        if g.num_vertices <= 10:  # exact rational mode integer-equal
            assert partition_fraction(g, 0, 1, 1) == expect
        checked += 1
    elapsed = time.time() - start
    _gate("criterion 2 (independent-set counts, exact)",
          checked == 30, f"{checked} graphs matched the enumeration oracle",
          elapsed, 10.0)


def test_criterion_03_field_translation_identity():
    """Fielded sum equals prefactor times translated sum on regular graphs."""
    start = time.time()
    rng = np.random.default_rng(333)
    worst = 0.0
    runs = 0
    for g in regular_corpus():
        for _ in range(20):
            p = SpinParams(float(rng.uniform(0.0, 1.5)),
                           float(rng.uniform(0.05, 1.5)),
                           float(10 ** rng.uniform(-2, 2)))
            rep = field_identity_report(g, p)
            worst = max(worst, rep.gap)
            runs += 1
    elapsed = time.time() - start
    _gate("criterion 3 (field-translation identity)",
          worst <= 1e-9, f"{runs} runs, worst log-relative gap {worst:.2e}",
          elapsed, 30.0)


def test_criterion_04_gadget_expectation():
    """Exact expectation matches tuple enumeration; Monte Carlo within 4 SE."""
    start = time.time()
    rng = np.random.default_rng(44)
    worst = 0.0
    for n_side in (1, 2, 3):
        for delta in (1, 2):
            for _ in range(4):
                p = SpinParams(float(rng.uniform(0.05, 1.2)),
                               float(rng.uniform(0.05, 1.2)))
                for delta_prime in (1, 2):
                    table = enumerate_profile_sums_mean_log(
                        n_side, delta, delta_prime, p)
                    for an in range(n_side + 1):
                        for bn in range(n_side + 1):
                            a, b = an / n_side, bn / n_side
                            lhs = expected_profile_sum_log(
                                n_side, delta, delta_prime, p, a, b)
                            rhs = float(table[an, bn])
                            if lhs == rhs:  # both exactly zero sums
                                continue
                            worst = max(worst,
                                        abs(lhs - rhs) / max(1.0, abs(lhs)))
    p = SpinParams(0.4, 0.7)
    target = math.exp(expected_profile_sum_log(3, 2, 1, p, 1 / 3, 1 / 3))
    est = expected_profile_sum_mc(3, 2, 1, p, 1 / 3, 1 / 3,
                                  trials=100000, seed=99)
    mc_ok = est.within(target, 4.0)
    elapsed = time.time() - start
    _gate("criterion 4 (gadget-mean formula and Monte Carlo)",
          worst <= 1e-9 and mc_ok,
          f"worst formula gap {worst:.2e}; MC {est.mean:.6f} vs exact "
          f"{target:.6f} (SE {est.std_error:.2e})",
          elapsed, 120.0)


def test_criterion_05_rate_bound_ceiling():
    """Grid-plus-refinement maximum of the rate bound stays below 1.21."""
    start = time.time()
    scan = rate_bound_scan(c=8000.0, min_fraction=9e-5, step=1e-3)
    elapsed = time.time() - start
    _gate("criterion 5 (rate-bound grid maximum < 1.21)",
          scan.max_value < 1.21,
          f"max {scan.max_value:.6f} at (a={scan.arg_a:.5g}, b={scan.arg_b:.5g}), "
          f"margin {1.21 - scan.max_value:.2e}; also < 1.22 with margin "
          f"{1.22 - scan.max_value:.2e}",
          elapsed, 60.0)


def test_criterion_06_uniqueness_calculus():
    """Residuals, closed-form roots, field windows, thresholds."""
    start = time.time()
    rng = np.random.default_rng(606)
    # fixed-point residuals over a 1000-point random sweep
    worst_resid = 0.0
    count = 0
    while count < 1000:
        beta = float(rng.uniform(0, 1.5))
        gamma = float(rng.uniform(0.02, 1.5))
        if beta * gamma >= 0.98:
            continue
        p = SpinParams(beta, gamma, float(10 ** rng.uniform(-6, 6)))
        d = int(rng.integers(1, 201))
        x = fixed_point(p, d)
        worst_resid = max(worst_resid,
                          abs(recursion_value(p, d, x) - x) / max(1.0, x))
        count += 1
    resid_ok = worst_resid <= 1e-12
    # closed-form roots: defining-equation residual and both root identities
    worst_root = 0.0
    worst_vieta = 0.0
    for _ in range(100):
        beta = float(rng.uniform(0.01, 0.95))
        gamma = float(rng.uniform(0.01, min(1.5, 0.95 / beta)))
        d = int(math.ceil(always_unique_bound(beta, gamma))) + int(rng.integers(0, 60))
        x1, x2 = criticality_roots(beta, gamma, d)
        for x in (x1, x2):
            worst_root = max(worst_root, abs(
                d * (1 - beta * gamma) * x / ((beta * x + 1) * (x + gamma)) - 1))
        b_coef = -1 - beta * gamma + d * (1 - beta * gamma)
        worst_vieta = max(
            worst_vieta,
            abs(x1 * x2 - gamma / beta) / (gamma / beta),
            abs(x1 + x2 - b_coef / beta) / (b_coef / beta))
    roots_ok = worst_root <= 1e-10 and worst_vieta <= 1e-10
    # field-free uniqueness floor: every degree below it is unique for all mu
    mus = 10 ** np.linspace(-6, 6, 100)
    sweep_ok = True
    for _ in range(100):
        beta = float(rng.uniform(0.02, 0.98))
        gamma = float(rng.uniform(0.02, min(0.98, 0.9 / beta)))
        bound = always_unique_bound(beta, gamma)
        ds = [d for d in range(1, int(math.ceil(bound))) if d < bound]
        if not ds:
            continue
        bb = np.repeat(beta, len(ds) * 100)
        gg = np.repeat(gamma, len(ds) * 100)
        mm = np.tile(mus, len(ds))
        dd = np.repeat(np.array(ds, dtype=float), 100)
        _, mags = magnitude_grid(bb, gg, mm, dd)
        sweep_ok = sweep_ok and bool(np.all(mags < 1.0))
    # field-window boundaries flip the criterion
    flips_ok = True
    tested = 0
    while tested < 10:
        beta = float(rng.uniform(0.02, 0.6))
        gamma = float(rng.uniform(beta + 0.05, min(1.4, 0.9 / beta)))
        d = int(math.ceil(always_unique_bound(beta, gamma))) + int(rng.integers(1, 25))
        if math.sqrt(beta * gamma) > (d - 1) / (d + 1):
            continue
        mu1, mu2 = field_window(beta, gamma, d)
        if mu2 / mu1 < 1.05:
            continue
        for frac in np.linspace(0.1, 0.9, 5):
            mu = mu1 * (mu2 / mu1) ** float(frac)
            flips_ok = flips_ok and not uniqueness_check(
                SpinParams(beta, gamma, mu), d).unique
        for mu in (mu1 * 0.5, mu1 * 0.99, mu2 * 1.01, mu2 * 2.0):
            flips_ok = flips_ok and uniqueness_check(
                SpinParams(beta, gamma, mu), d).unique
        tested += 1
    threshold_ok = first_nonunique_degree(SpinParams(0.5, 0.5), 10).degree == 3
    elapsed = time.time() - start
    _gate("criterion 6 (uniqueness calculus)",
          resid_ok and roots_ok and sweep_ok and flips_ok and threshold_ok,
          f"worst fixed-point residual {worst_resid:.2e}; worst root residual "
          f"{worst_root:.2e}; Vieta {worst_vieta:.2e}; floor sweep "
          f"{'ok' if sweep_ok else 'FAILED'}; window flips "
          f"{'ok' if flips_ok else 'FAILED'}; symmetric threshold 3 "
          f"{'ok' if threshold_ok else 'FAILED'}",
          elapsed, 30.0)


def test_criterion_07_outside_square_degree_facts():
    """Ceiling-degree inequalities hold strictly; region flag matches."""
    start = time.time()
    rng = np.random.default_rng(777)
    checked = 0
    ok = True
    while checked < 100:
        gamma = float(1 + 10 ** rng.uniform(-6, -0.3))
        beta = float(rng.uniform(1e-4, 1.0))
        if beta * gamma >= 1:
            continue
        plan = outside_square_degrees(beta, gamma)
        ok = ok and gamma ** plan.delta_star >= math.e > gamma ** (plan.delta_star - 1)
        ok = ok and (beta * gamma) ** plan.delta_prime <= 1 / math.e
        ok = ok and plan.in_hard_region == (
            plan.delta_star >= 8000 * plan.delta_prime)
        checked += 1
    elapsed = time.time() - start
    _gate("criterion 7 (degree-plan inequalities)",
          ok, f"{checked} random parameter pairs", elapsed, 5.0)


def test_criterion_08_sandwich_and_structure():
    """Bracketing holds on 20 seeded toy reductions; audits all pass."""
    start = time.time()
    worst = -math.inf
    audits_ok = True
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(max(1, (n + 1) // 2), 4))
        inst = random_instance(n, m, int(rng.integers(1 << 31)))
        params = GadgetParams(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                              1, int(rng.integers(1 << 31)))
        rg = build_reduction_graph(inst, params)
        audit = audit_reduction_graph(rg)
        audits_ok = audits_ok and audit.passed
        p = SpinParams(float(rng.uniform(0.05, 1.0)),
                       float(rng.uniform(0.05, 1.0)))
        rep = sandwich_check(rg, p, tolerance=1e-9)
        worst = max(worst,
                    rep.log_max_restricted - rep.log_total,
                    rep.log_total - rep.log_sum_restricted)
    elapsed = time.time() - start
    _gate("criterion 8 (sandwich bracketing and structure audits)",
          worst <= 1e-9 and audits_ok,
          f"20 seeded reductions, worst bracketing violation {worst:.2e}, "
          f"audits {'all pass' if audits_ok else 'FAILED'}",
          elapsed, 60.0)


def test_criterion_09_coupling():
    """Domination holds exactly; first step matches b; joint law accepted."""
    start = time.time()
    rep = coupling_sim(4, 0.5, 3, seed=90, trials=100000)
    law = sequential_indicator_law(4, 2, 4)
    law_total = sum(law.values())
    elapsed = time.time() - start
    _gate("criterion 9 (domination coupling)",
          rep.domination_violations == 0 and rep.z1_within_4_sigma
          and rep.chi2_pvalue > 1e-3 and abs(law_total - 1) < 1e-12,
          f"0 violations over {rep.sequences} sequences; first-step freq "
          f"{rep.z1_frequency:.4f} vs {rep.z1_expected}; chi2 p-value "
          f"{rep.chi2_pvalue:.4f} (dof {rep.chi2_dof})",
          elapsed, 60.0)


def test_criterion_10_expander_audit():
    """Full sides score exactly 1; fixed big pairs average near expectation."""
    start = time.time()
    n_side, delta, seeds = 8, 6, 200
    full_ok = True
    prefix_pairs = {s: [] for s in range(3, 9)}
    mean_ratios = []
    for seed in range(seeds):
        h = sample_gadget(n_side, delta, seed)
        mat = np.zeros((n_side, n_side))
        for u, v, m in h.graph.edges:
            mat[u, v - n_side] += m
        # full sides: every edge crosses, so the ratio is identically 1
        full = float(mat.sum()) * n_side / (delta * n_side * n_side)
        full_ok = full_ok and full == 1.0
        for s in range(3, 9):
            prefix_pairs[s].append(float(mat[:s, :s].sum()))
        from twospin.analysis import expander_audit
        audit = expander_audit(h, eps=2 / n_side)
        mean_ratios.append(audit.mean_ratio)
    mean_ok = True
    details = []
    for s, counts in prefix_pairs.items():
        expected = delta * s * s / n_side
        ratio = float(np.mean(counts)) / expected
        mean_ok = mean_ok and abs(ratio - 1.0) <= 0.05
        details.append(f"s={s}: {ratio:.3f}")
    elapsed = time.time() - start
    _gate("criterion 10 (expansion audit)",
          full_ok and mean_ok,
          f"{seeds} seeds; full-sides ratio exactly 1: {full_ok}; mean edge "
          f"counts vs expectation within 5%: {', '.join(details)}; "
          f"audited mean ratio {np.mean(mean_ratios):.4f}",
          elapsed, 120.0)


def test_criterion_11_determinism_and_budget(tmp_path):
    """Seeded commands are byte-identical; the suite stays inside its budget."""
    start = time.time()
    edge = tmp_path / "edge.g"
    edge.write_text("p graph 2 1\ne 0 1 1\n")
    inst = tmp_path / "i.e2"
    inst.write_text("p e2lin2 3 3\n1 2 1\n2 3 1\n3 1 1\n")
    commands = [
        ["z", "--graph", str(edge), "--beta", "0.7", "--gamma", "1.2",
         "--mu", "2.0", "--threads", "2"],
        ["uniqueness", "--beta", "0.3", "--gamma", "0.9", "--mu", "1.5",
         "--degree", "6"],
        ["threshold", "--beta", "0.5", "--gamma", "0.5"],
        ["translate-field", "--beta", "0.5", "--gamma", "2", "--mu", "4",
         "--degree", "2"],
        ["theta-star", "--instance", str(inst)],
        ["gadget", "--side", "5", "--delta", "4", "--seed", "17",
         "--out", str(tmp_path / "h.graph")],
        ["reduce", "--instance", str(inst), "--delta", "2", "--delta-prime",
         "1", "--block-size", "1", "--seed", "9", "--out-prefix",
         str(tmp_path / "r")],
        ["decode", "--log-y", "4.2", "--n", "3", "--m", "3", "--log-c",
         "-0.2", "--log-d", "0.9"],
        ["phase-map", "--beta-min", "0.2", "--beta-max", "0.8", "--beta-steps",
         "3", "--gamma-min", "0.2", "--gamma-max", "0.8", "--gamma-steps",
         "3", "--degree", "10", "--out", str(tmp_path / "grid.csv")],
        ["verify", "coupling", "--trials", "20000", "--seed", "4"],
        ["verify", "expander", "--side", "6", "--delta", "40", "--seeds", "3",
         "--eps", "0.34"],
    ]
    tracked_files = ["h.graph", "r.graph", "r.blocks", "grid.csv"]
    identical = True
    for argv in commands:
        outputs = []
        files = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "twospin"] + argv,
                                  capture_output=True, text=True, check=False)
            assert proc.returncode == 0, (argv, proc.stderr)
            outputs.append(proc.stdout)
            files.append({name: (tmp_path / name).read_bytes()
                          for name in tracked_files
                          if (tmp_path / name).exists()})
        identical = identical and outputs[0] == outputs[1] \
            and files[0] == files[1]
    elapsed = time.time() - start
    total = time.time() - _SUITE_START
    _gate("criterion 11 (byte-identical reruns, suite budget)",
          identical and total < 600.0,
          f"{len(commands)} commands byte-identical; acceptance module total "
          f"{total:.0f}s of 600s",
          elapsed, 300.0)
