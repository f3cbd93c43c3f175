"""numeric-scans: the uniqueness calculus and the analysis layer.

One pass is a 33 x 33 `uniqueness.phase_grid`, called one beta row at a
time (33 ops, so that the host-speed calibration between ops brackets
short spans), the vectorized `magnitude_grid` on the same grid,
`first_nonunique_degree`, `analysis.rate_bound_scan` at step 5e-3, an
exhaustive `expander_audit` at side 12, `coupling_sim` and
`expected_profile_sum_mc`.  The seed draws the
grid ranges, weights, degrees, the gadget and the Monte Carlo seeds; grid
sizes, scan steps and sample counts are fixed, so every seed does the same
amount of work.
"""

import math
import resource

import numpy as np

from harness import Op, Tracer, Workload
import oracles

from twospin import analysis, reduction, spins, uniqueness

GRID_SIDE = 33
MAX_DEGREE = 64
RATE_STEP = 5e-3
EXPANDER_SIDE = 12
COUPLING = dict(n=8, b=0.5, d=3, trials=20000)
MC_SHAPE = dict(n_side=3, delta=2, delta_prime=1, a=1 / 3, b=1 / 3)
MC_TRIALS = 20000
# A correct coupling fails a level-alpha chi-square test with probability
# alpha; the benchmark uses a level at which runs do not fail by chance.
CHI2_ALPHA = 1e-6
MAG_TOLERANCE = 1e-9
RATIO_TOLERANCE = 1e-12


def _close(value, reference, tolerance=MAG_TOLERANCE):
    return abs(value - reference) <= tolerance * max(1.0, abs(reference))


def _grid_ops(rng):
    betas = np.linspace(rng.uniform(0.05, 0.15), rng.uniform(0.85, 0.95), GRID_SIDE)
    gammas = np.linspace(rng.uniform(0.05, 0.15), rng.uniform(0.85, 0.95), GRID_SIDE)
    mu = float(np.exp(rng.uniform(-0.5, 0.5)))
    d = int(rng.integers(3, 13))
    # the magnitude grid's oracle re-solves one seeded cell per row
    sample = [(i, int(rng.integers(GRID_SIDE))) for i in range(GRID_SIDE)]

    def phase_row(beta):
        def work(tr):
            # phase_grid yields rows lazily; the span covers consuming them
            with tr.span("uniqueness.phase_grid"):
                rows = list(uniqueness.phase_grid([beta], gammas.tolist(), mu, d))
            return rows, {"uniqueness.phase_cells": float(GRID_SIDE)}

        def check(tr, rows):
            _, mags = tr.call(uniqueness.magnitude_grid, beta, gammas, mu, d)
            return len(rows) == mags.size and all(
                _close(row["deriv_mag"], mag)
                and (row["region"] == uniqueness.PhaseRegion.UNIQUENESS.value) == (mag < 1.0)
                for row, mag in zip(rows, mags.tolist()))

        return Op("phase-row", work, check)

    def magnitude(tr):
        _, mags = tr.call(uniqueness.magnitude_grid, betas[:, None], gammas[None, :], mu, d)
        return mags, {"uniqueness.magnitude_cells": float(GRID_SIDE * GRID_SIDE)}

    def magnitude_check(tr, mags):
        return mags.shape == (GRID_SIDE, GRID_SIDE) and all(
            _close(mags[i, j], oracles.derivative_magnitude(betas[i], gammas[j], mu, d))
            for i, j in sample)

    return ([phase_row(float(beta)) for beta in betas]
            + [Op("magnitude-grid", magnitude, magnitude_check)])


def _threshold_op(rng):
    p = spins.SpinParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)),
                         float(np.exp(rng.uniform(-0.5, 0.5))))

    def work(tr):
        return tr.call(uniqueness.first_nonunique_degree, p, MAX_DEGREE), {}

    def check(tr, scan):
        def mag(d):
            return oracles.derivative_magnitude(p.beta, p.gamma, p.mu, d)
        if scan.exhausted:
            return scan.degree is None and mag(MAX_DEGREE) < 1.0 + MAG_TOLERANCE
        d = scan.degree
        return (mag(d) >= 1.0 - MAG_TOLERANCE
                and (d == 1 or mag(d - 1) < 1.0 + MAG_TOLERANCE))

    return Op("threshold", work, check)


def _rate_op(rng):
    min_fraction = float(rng.uniform(9e-5, 2e-4))
    # the scan's grid: steps from min_fraction, clipped, closed at 1
    grid = np.clip(np.arange(min_fraction, 1.0 + 0.5 * RATE_STEP, RATE_STEP), min_fraction, 1.0)
    side = len(grid) + (grid[-1] != 1.0)
    cells = float(side * side)

    def work(tr):
        scan = tr.call(analysis.rate_bound_scan, min_fraction=min_fraction, step=RATE_STEP)
        return scan, {"analysis.rate_cells": cells}

    def check(tr, scan):
        return (scan.max_value < analysis.RATE_BOUND_CEILING
                and scan.max_value >= scan.coarse_max
                and min_fraction <= scan.arg_a <= 1.0
                and min_fraction <= scan.arg_b <= 1.0)

    return Op("rate-scan", work, check)


def _expander_op(rng):
    delta = int(rng.integers(3, 7))
    h = reduction.sample_gadget(EXPANDER_SIDE, delta, int(rng.integers(1 << 31)))

    def work(tr):
        audit = tr.call(analysis.expander_audit, h, mode="exhaustive")
        full = tr.call(analysis.expander_audit, h, eps=1.0, mode="exhaustive")
        return (audit, full), {"analysis.expander_pairs": float(audit.pairs_checked)}

    def check(tr, result):
        audit, full = result
        witness = oracles.crossing_ratio(h.graph.edges, audit.witness_left,
                                         audit.witness_right, delta, EXPANDER_SIDE)
        return (full.worst_ratio == 1.0
                and audit.pairs_checked == oracles.big_subset_pairs(EXPANDER_SIDE, audit.eps)
                and abs(audit.worst_ratio - witness) <= RATIO_TOLERANCE
                and audit.worst_ratio <= 1.0)

    return Op("expander", work, check)


def _coupling_op(rng):
    seed = int(rng.integers(1 << 31))

    def work(tr):
        rep = tr.call(analysis.coupling_sim, COUPLING["n"], COUPLING["b"], COUPLING["d"],
                      seed, COUPLING["trials"], chi2_alpha=CHI2_ALPHA)
        return rep, {"analysis.sequences": float(rep.sequences)}

    def check(tr, rep):
        return (rep.passed and rep.domination_violations == 0
                and rep.sequences == COUPLING["trials"] * COUPLING["d"])

    return Op("coupling", work, check)


def _gadget_mc_op(rng):
    p = spins.SpinParams(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0)))
    seed = int(rng.integers(1 << 31))

    def work(tr):
        est = tr.call(analysis.expected_profile_sum_mc, p=p, trials=MC_TRIALS,
                      seed=seed, **MC_SHAPE)
        return est, {}

    def check(tr, est):
        target = math.exp(tr.call(analysis.expected_profile_sum_log, p=p, **MC_SHAPE))
        return est.trials == MC_TRIALS and abs(est.mean - target) <= 4.0 * est.std_error

    return Op("gadget-mc", work, check)


def build(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = _grid_ops(rng) + [_threshold_op(rng), _rate_op(rng), _expander_op(rng),
                            _coupling_op(rng), _gadget_mc_op(rng)]

    def warmup():
        p = spins.SpinParams(0.5, 0.6)
        list(uniqueness.phase_grid([0.2, 0.4], [0.3, 0.5], 1.0, 3))
        uniqueness.magnitude_grid(0.2, 0.3, 1.0, 3)
        uniqueness.first_nonunique_degree(p, 8)
        analysis.rate_bound(0.3, 0.4)
        analysis.expander_audit(reduction.sample_gadget(4, 3, 0))
        analysis.coupling_sim(4, 0.5, 2, 0, 100)
        analysis.expected_profile_sum_mc(p=p, trials=100, seed=0, **MC_SHAPE)

    return Workload(ops, warmup=warmup)


def expander_peak_rss_mb(seed: int) -> float:
    """Peak RSS of this process after the workload's expander op; meant to
    run in a fresh child, so that no other op has raised the peak."""
    op = next(op for op in build(seed).ops if op.kind == "expander")
    tracer = Tracer(False)
    op.check(tracer, op.work(tracer)[0])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
