"""Uniqueness calculus for two-state spin systems on regular trees.

For parameters (beta, gamma, mu) and degree d, the tree recursion

    f(x) = mu * ((beta*x + 1) / (x + gamma))**d

has a unique positive fixed point x_hat whenever beta*gamma < 1 (f is then
strictly decreasing).  The system is in the uniqueness phase on d-regular
trees iff

    |f'(x_hat)| = d * (1 - beta*gamma) * x_hat / ((beta*x_hat + 1) * (x_hat + gamma)) < 1.

This module computes fixed points (one vectorized solver for every
gamma >= 0: safeguarded Newton steps in log x inside the bracket [0, f(0)],
then a bisection of a bracket a few ulps wide, about 17 evaluations of the
ratio in all; the result is a sign change of the floating-point
log f(x) - log x, as a bisection of the whole bracket gives), the
derivative criterion, threshold degrees, the closed-form criticality
roots and field windows, the degree plan for the regime 0 < beta < 1 < gamma,
the three-way case split used by the gadget reduction, and a phase
classifier for parameter grids.
"""

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import (FLOAT_MAX, INT64_MAX, RegimeError, ResourceLimitError, UsageError,
                     check_int, check_real, shown)
from .spins import SpinParams, remove_field

BISECT_ITERATIONS = 200
TINY_BETA = 2.0 ** -20           # beta below which _log_ratio drops its log1p form
DEFAULT_CASE_SCALE = 12 * 10**8  # the published L; K = 4L
HARD_DEGREE_RATIO = 8000         # delta_star >= ratio * delta_prime
DEFAULT_REGION_CONSTANT = 1000.0  # configurable h in d >= h/(1 - beta*gamma)
PHASE_BLOCK_CELLS = 1 << 16      # phase_grid cells solved per magnitude_grid call
MAX_SCAN_DEGREE = 1 << 20        # first_nonunique_degree's d_max: about 0.7 s and 220 MB at the cap


def _log_ratio(beta, gamma):
    """The map x -> log((beta*x + 1)/(x + gamma)) for fixed parameters.

    The ratio falls from 1/gamma at x = 0 towards beta.  It is fed through
    log1p as 1 + ((beta-1)x + (1-gamma))/(x+gamma), which keeps the rounding
    error of the d-fold exponent proportional to log(f/mu) instead of d
    itself; the log1p argument stays above beta - 1.  Entries with
    beta < TINY_BETA would let that argument round to -1 at large x, so they
    take log1p(beta*x) - log(x + gamma) instead; the form is picked here,
    once per parameter set.  At x = gamma = 0 the map is +inf: evaluate it
    under np.errstate(divide="ignore", over="ignore").
    """
    bm1, omg = beta - 1.0, 1.0 - gamma

    def shifted(x):
        return np.log1p((bm1 * x + omg) / (x + gamma))

    tiny = np.less(beta, TINY_BETA)
    if not tiny.any():
        return shifted
    return lambda x: np.where(tiny, np.log1p(beta * x) - np.log(x + gamma),
                              shifted(x))


def _bisect(lo, hi, g):
    """Bisect [lo, hi] onto the sign change of a decreasing g.

    An exact hit g(mid) = 0 collapses the bracket, so knife-edge parameters
    return the root exactly.  A halving is a pure function of (lo, hi), so
    once one leaves every entry unchanged the rest would too: the loop stops
    there, with the bits that BISECT_ITERATIONS halvings give.  It tests
    every 8th halving, which keeps the test cheap; a NaN entry never
    compares equal, so it runs to the cap.
    """
    for i in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        v = g(mid)
        new_lo = np.where(v >= 0, mid, lo)
        new_hi = np.where(v <= 0, mid, hi)
        if i % 8 == 7 and not ((new_lo != lo).any() or (new_hi != hi).any()):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _newton_bracket(lo, hi, v, g, slope, in_logs):
    """Narrow the sign bracket [lo, hi] of a decreasing g, in place, by
    Newton steps g/slope(x) in y = log x from v, which is x, or y in_logs.

    A step that moves v but not strictly into the bracket halves it.  A cell
    stops at its first step within 2**-50 of its scale (x, or max(|y|, 1)),
    so that its result does not depend on the other cells.  Where g changes
    sign across 2**-48 of scale about v, that is the bracket returned.
    """
    scale = (lambda v: np.maximum(np.abs(v), 1.0)) if in_logs else (lambda v: v)
    moving = np.ones(np.shape(v), dtype=bool)
    for _ in range(BISECT_ITERATIONS):
        step = g(v)
        np.copyto(lo, v, where=step >= 0)
        np.copyto(hi, v, where=step <= 0)
        step /= slope(np.exp(v) if in_logs else v)
        step = step + v if in_logs else v * np.exp(step)
        np.copyto(step, 0.5 * (lo + hi), where=~((lo < step) & (step < hi) | (step == v)))
        np.copyto(step, v, where=~moving)
        moving &= np.abs(step - v) > 2.0 ** -50 * scale(v)
        v = step
        if not moving.any():
            break
    width = 2.0 ** -48 * scale(v)
    sure = (g(v - width) >= 0) & (g(v + width) <= 0)
    np.copyto(lo, v - width, where=sure)
    np.copyto(hi, v + width, where=sure)
    return lo, hi


def _fixed_point_array(beta, gamma, mu, d) -> np.ndarray:
    """Vectorized fixed point, for beta*gamma < 1 and gamma >= 0.

    f is decreasing, so the fixed point lies below f(0) = mu/gamma**d.  Where
    gamma = 0 makes f(0) infinite, x_hat = f(x_hat) bounds it instead: with
    L = log(mu) + d*log1p(beta), x_hat <= e**L if x_hat >= 1, and
    x_hat**(d+1) <= e**L if x_hat < 1.  Brackets up to 1e15 are solved for
    x, wider ones for log x, as the sign change of the floating-point
    g = log f(x) - log x: Newton steps in log x, whose slope is minus the
    closed form 1 + |f'(x)|, then _bisect on a bracket a few ulps wide.  A
    phase-grid row takes about 17 evaluations of the ratio, not 72-104.
    """
    beta, gamma, mu, d = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (beta, gamma, mu, d)))
    if np.any(beta * gamma >= 1):
        raise RegimeError(
            "fixed-point bisection requires beta*gamma < 1 (f strictly decreasing)")
    logmu = np.log(mu)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # f(0) in plain arithmetic where it is finite (so that clean brackets
        # like [0, 16] bisect onto exact fixed points), else in logs
        hi = mu / np.power(gamma, d)
        log_hi = logmu - d * np.log(gamma)
        bound = logmu + d * np.log1p(beta)
        log_hi = np.where(np.isposinf(log_hi), np.maximum(bound, bound / (d + 1)),
                          log_hi)
        hi = np.where(np.isfinite(hi), hi, np.exp(np.minimum(log_hi, 700.0)))
        hi = np.maximum(hi, 1e-300)
        del log_hi, bound
        # the cap only matters if the fixed point itself overflows a double;
        # allow float noise when the bracket top essentially equals the fixed
        # point (gamma > 1 with f(0) tiny), where the excess can be +O(d*eps)
        if np.any(logmu + d * _log_ratio(beta, gamma)(hi) - np.log(hi) > 1e-6):
            raise RegimeError("fixed point overflows double precision")

        out = np.empty(hi.shape, dtype=float)
        wide = hi > 1e15
        for sel, in_logs in ((~wide, False), (wide, True)):
            if not np.any(sel):
                continue
            if sel.ndim and sel.all():  # views: no copies of broadcast parameters
                sel = ...
            log_ratio = _log_ratio(beta[sel], gamma[sel])
            lm, ds, bs, gs = logmu[sel], d[sel], beta[sel], gamma[sel]
            cs = ds * (1.0 - bs * gs)
            x_of, log_of = (np.exp, lambda y: y) if in_logs else (lambda x: x, np.log)
            g = lambda v: lm + ds * log_ratio(x_of(v)) - log_of(v)
            slope = lambda x: 1.0 + cs / ((bs * x + 1.0) * (1.0 + gs / x))  # 1 + |f'(x)|
            # -737 lies below the log of any normal double; the linear lo
            # reaches 0 when the fixed point underflows
            lo = np.full_like(lm, -737.0 if in_logs else 0.0)
            top = np.log(hi[sel]) if in_logs else hi[sel]
            # start at g's root with log(ratio) cut to its pieces -log(gamma),
            # -log(x), log(beta), so that no step jumps between g's flat ends
            y = np.clip(lm / (ds + 1.0), lm + ds * np.log(bs), lm - ds * np.log(gs))
            start = np.clip(y if in_logs else np.exp(y), lo, top)
            out[sel] = x_of(_bisect(*_newton_bracket(lo, top, start, g, slope, in_logs), g))
    return out


def fixed_point(p: SpinParams, d: int) -> float:
    """The positive fixed point of the tree recursion, for beta*gamma < 1."""
    x_hat, _ = magnitude_grid(p.beta, p.gamma, p.mu, d)
    return float(x_hat)


@dataclass(frozen=True)
class UniquenessReport:
    x_hat: float
    derivative_magnitude: float
    unique: bool


def uniqueness_check(p: SpinParams, d: int) -> UniquenessReport:
    """Fixed point plus the derivative criterion |f'(x_hat)| < 1."""
    x_hat, mag = (float(v) for v in magnitude_grid(p.beta, p.gamma, p.mu, d))
    return UniquenessReport(x_hat=x_hat, derivative_magnitude=mag, unique=mag < 1.0)


def magnitude_grid(beta, gamma, mu, d) -> Tuple[np.ndarray, np.ndarray]:
    """(x_hat, |f'|) over broadcast arrays of parameters; beta*gamma < 1 only.

    The module's one solver entry; |f'| is the closed form, taken in logs."""
    check_int("degree", d, 1, INT64_MAX, floats=True)
    beta, gamma, mu, d = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (beta, gamma, mu, d)))
    x = _fixed_point_array(beta, gamma, mu, d)
    with np.errstate(divide="ignore"):
        logmag = (np.log(d) + np.log1p(-(beta * gamma)) + np.log(x)
                  - np.log1p(beta * x) - np.log(x + gamma))
    return x, np.exp(logmag)


@dataclass(frozen=True)
class DegreeScan:
    """First non-uniqueness degree, or none with the cap-exhausted flag set."""

    degree: Optional[int]
    exhausted: bool


def first_nonunique_degree(p: SpinParams, d_max: int) -> DegreeScan:
    """Smallest d <= d_max failing the uniqueness criterion; d_max is capped
    at MAX_SCAN_DEGREE.

    Inside the unit square non-uniqueness is monotone in d, and a found
    threshold is spot-checked at d + 1.
    """
    if (d_max := check_int("d_max", d_max, 1, math.inf, floats=True)) > MAX_SCAN_DEGREE:
        raise ResourceLimitError(f"d_max {shown(d_max)} exceeds cap {MAX_SCAN_DEGREE}")
    _, mags = magnitude_grid(p.beta, p.gamma, p.mu,
                             np.arange(1, d_max + 1, dtype=float))
    hits = np.nonzero(mags >= 1.0)[0]
    if hits.size == 0:
        return DegreeScan(degree=None, exhausted=True)
    d = int(hits[0]) + 1
    if 0 < p.beta <= 1 and 0 < p.gamma <= 1:
        nxt = uniqueness_check(p, d + 1)
        if nxt.unique:
            raise RuntimeError(
                f"monotonicity spot check failed: non-unique at d={d} "
                f"but unique at d={d + 1}")
    return DegreeScan(degree=d, exhausted=False)


def always_unique_bound(beta: float, gamma: float) -> float:
    """Degree bound below which uniqueness holds for every external field.

    Returns (1 + sqrt(beta*gamma)) / (1 - sqrt(beta*gamma)); any integer
    degree strictly below it satisfies the uniqueness criterion for all mu.
    """
    check_real("beta", beta, 0, FLOAT_MAX)
    check_real("gamma", gamma, 0, FLOAT_MAX)
    if beta * gamma >= 1:
        raise UsageError("bound defined for beta*gamma < 1 only")
    r = math.sqrt(beta * gamma)
    return (1 + r) / (1 - r)


def criticality_roots(beta: float, gamma: float, d: int) -> Tuple[float, float]:
    """The two positive x with d*(1-beta*gamma)*x = (beta*x+1)*(x+gamma).

    These are the points where |f'| equals 1; they exist once d reaches the
    always-unique bound.  Computed in the cancellation-free form and
    re-verified against the defining equation to 1e-10 relative.
    """
    check_real("beta", beta, -FLOAT_MAX, FLOAT_MAX)
    check_real("gamma", gamma, -FLOAT_MAX, FLOAT_MAX)
    check_int("degree", d, 1, INT64_MAX, floats=True)
    if beta <= 0:
        raise RegimeError("closed-form roots need beta > 0 (formula divides by beta)")
    if gamma <= 0:
        raise RegimeError("closed-form roots need gamma > 0 (root x1 = 0 is not positive)")
    if beta * gamma >= 1:
        raise RegimeError("closed-form roots need beta*gamma < 1")
    bg = beta * gamma
    b_coef = -1.0 - bg + d * (1.0 - bg)
    disc = b_coef * b_coef - 4.0 * bg
    if disc < 0:
        if disc > -1e-9 * max(1.0, b_coef * b_coef):
            disc = 0.0
        else:
            raise RegimeError(
                f"degree {d} is below the always-unique bound "
                f"{always_unique_bound(beta, gamma):.6g}: no real roots")
    if b_coef <= 0:
        raise RegimeError(f"degree {d} is below the always-unique bound: no positive roots")
    s = math.sqrt(disc)
    x2 = (b_coef + s) / (2.0 * beta)
    x1 = 2.0 * gamma / (b_coef + s)
    for x in (x1, x2):
        resid = abs(d * (1.0 - bg) * x / ((beta * x + 1.0) * (x + gamma)) - 1.0)
        if not resid <= 1e-10:  # NaN too: a root that passes the doubles
            raise RegimeError(f"root {x} fails the defining equation, residual {resid}: "
                              "beta or gamma is past the doubles' range or resolution")
    return x1, x2


def field_window(beta: float, gamma: float, d: int) -> Tuple[float, float]:
    """Field interval (mu1, mu2) of non-uniqueness at degree d.

    Valid for gamma > beta > 0 with beta*gamma < 1 and
    sqrt(beta*gamma) <= (d-1)/(d+1): the system is unique iff mu < mu1 or
    mu > mu2, with mu_i = x_i * ((x_i + gamma)/(beta*x_i + 1))**d at the
    criticality roots x_i.
    """
    check_real("gamma", gamma, -FLOAT_MAX, FLOAT_MAX)  # and beta by gamma > beta > 0
    check_int("degree", d, 1, INT64_MAX, floats=True)
    if not (gamma > beta > 0):
        raise RegimeError("field window needs gamma > beta > 0")
    if beta * gamma >= 1:
        raise RegimeError("field window needs beta*gamma < 1")
    if math.sqrt(beta * gamma) > (d - 1) / (d + 1):
        raise RegimeError(
            f"degree {d} is below the always-unique bound: window is empty")
    x1, x2 = criticality_roots(beta, gamma, d)
    mus = []
    for x in (x1, x2):
        log_mu = math.log(x) + d * (math.log(x + gamma) - math.log1p(beta * x))
        if log_mu > math.log(FLOAT_MAX):  # exp would overflow
            raise RegimeError(f"window end mu = exp({log_mu:.6g}) passes the doubles")
        mus.append(math.exp(log_mu))
    mu1, mu2 = mus
    if mu1 > mu2:
        raise RuntimeError(f"window ends out of order: {mu1} > {mu2}")
    return mu1, mu2


# ---------------------------------------------------------------------------
# Degree plans and case split for the gadget reduction


@dataclass(frozen=True)
class OutsideSquareDegrees:
    """Degree plan for 0 < beta < 1 < gamma with beta*gamma < 1.

    delta_prime = ceil(-1/log(beta*gamma)) makes (beta*gamma)**delta_prime <= 1/e;
    delta_star = ceil(1/log(gamma)) makes gamma**delta_star >= e > gamma**(delta_star-1).
    in_hard_region marks delta_star >= 8000 * delta_prime.
    """

    delta_prime: int
    delta_star: int
    in_hard_region: bool


def outside_square_degrees(beta: float, gamma: float) -> OutsideSquareDegrees:
    check_real("gamma", gamma, 0, FLOAT_MAX)
    if not (0 < beta < 1 < gamma):
        raise UsageError("need 0 < beta < 1 < gamma")
    if beta * gamma >= 1:
        raise UsageError("need beta*gamma < 1")
    log_bg = math.log(beta) + math.log(gamma)
    delta_prime = math.ceil(-1.0 / log_bg)
    delta_star = math.ceil(1.0 / math.log(gamma))
    if not (gamma ** delta_star >= math.e > gamma ** (delta_star - 1)):
        raise RuntimeError("degree plan violates gamma**delta_star >= e > gamma**(delta_star-1)")
    if not (beta * gamma) ** delta_prime <= 1.0 / math.e:
        raise RuntimeError("degree plan violates (beta*gamma)**delta_prime <= 1/e")
    return OutsideSquareDegrees(
        delta_prime=delta_prime,
        delta_star=delta_star,
        in_hard_region=delta_star >= HARD_DEGREE_RATIO * delta_prime,
    )


class SplitCase(str, Enum):
    BETA_BELOW_HALF = "beta-below-half"
    BETA_ABOVE_HALF = "beta-above-half"
    BETA_ABOVE_GAMMA_POWER = "beta-above-gamma-power"


@dataclass(frozen=True)
class CaseParams:
    """Degree split (delta, delta_prime) and constants for one parameter case.

    toy_mode flags a scale constant L below the published 12e8: the split is
    still exact, but no hardness guarantee is implied at toy scale.
    """

    case: SplitCase
    delta: int
    delta_prime: int
    scale: int        # L
    expander_floor: int  # K = 4L, the degree needed by the expansion property
    toy_mode: bool


def case_split(beta: float, gamma: float, delta_star: int,
               L: Optional[int] = None) -> CaseParams:
    """Three-way parameter split with the matching (delta, delta_prime) plan.

    Cases (for 0 < beta <= gamma <= 1, (beta, gamma) != (1, 1)):
      beta < 1/2 and beta <= gamma**L   -> floor/ceil split over L+1
      beta >= 1/2 and beta <= gamma**L  -> same split
      beta > gamma**L                   -> split over L*(L+1)+1
    Always delta + delta_prime = delta_star.
    """
    if not (0 < beta <= gamma <= 1):
        raise UsageError("case split needs 0 < beta <= gamma <= 1")
    if beta == 1 and gamma == 1:
        raise UsageError("(beta, gamma) = (1, 1) is excluded")
    check_int("delta_star", delta_star, 1, math.inf, floats=True)
    scale = DEFAULT_CASE_SCALE if L is None else check_int("L", L, 1, INT64_MAX, floats=True)
    toy = scale != DEFAULT_CASE_SCALE
    # beta <= gamma**L, in logs (gamma**L underflows for any gamma < 1)
    below_power = math.log(beta) <= scale * math.log(gamma)
    if below_power:
        case = SplitCase.BETA_BELOW_HALF if beta < 0.5 else SplitCase.BETA_ABOVE_HALF
        delta_prime = -((-delta_star) // (scale + 1))   # ceil
        delta = (scale * delta_star) // (scale + 1)     # floor
    else:
        case = SplitCase.BETA_ABOVE_GAMMA_POWER
        den = scale * (scale + 1) + 1
        delta_prime = delta_star // den                 # floor
        delta = delta_star - delta_prime                # = ceil(L(L+1) delta_star / den)
    if delta + delta_prime != delta_star:
        raise RuntimeError("split does not sum to delta_star")
    return CaseParams(case=case, delta=delta, delta_prime=delta_prime,
                      scale=scale, expander_floor=4 * scale, toy_mode=toy)


# ---------------------------------------------------------------------------
# Phase classification


class PhaseRegion(str, Enum):
    FERROMAGNETIC = "ferromagnetic"
    UNIQUENESS = "uniqueness"
    NONUNIQUE_UNIT_SQUARE = "non-uniqueness+unit-square-region"
    NONUNIQUE_OUTSIDE_SQUARE = "non-uniqueness+outside-square-region"
    NONUNIQUE_UNCLASSIFIED = "non-uniqueness-unclassified"


@dataclass(frozen=True)
class PhaseReport:
    region: PhaseRegion
    x_hat: Optional[float]
    derivative_magnitude: Optional[float]
    region_constant: float  # the h used for the unit-square region test


def _classify_block(params, d: int, h: float):
    """The PhaseReports of the cells `params` at degree d, in order.

    Cells with beta*gamma < 1 are solved by one magnitude_grid call;
    beta*gamma > 1 is ferromagnetic, and beta*gamma = 1 (a constant
    recursion, outside the solver's regime) is trivially unique.  Non-unique
    cells are tagged on the field-free translated parameters
    (beta*mu**(1/d), gamma*mu**(-1/d)); their product beta*gamma is
    translation-invariant.
    """
    beta, gamma, mu = np.array([(p.beta, p.gamma, p.mu) for p in params], dtype=float).T
    bg = beta * gamma
    solve = bg < 1
    x_hat, mag = np.empty_like(bg), np.empty_like(bg)
    if np.any(solve):
        x_hat[solve], mag[solve] = magnitude_grid(beta[solve], gamma[solve], mu[solve], d)
    reports = []
    for p, prod, x, m in zip(params, bg.tolist(), x_hat.tolist(), mag.tolist()):
        if prod > 1:
            region, x, m = PhaseRegion.FERROMAGNETIC, None, None
        elif prod == 1:
            region, x, m = PhaseRegion.UNIQUENESS, None, 0.0
        elif m < 1.0:
            region = PhaseRegion.UNIQUENESS
        else:
            eff, _ = remove_field(p, d)
            region = PhaseRegion.NONUNIQUE_UNCLASSIFIED
            if (0 <= eff.beta <= 1 and 0 <= eff.gamma <= 1
                    and (eff.beta, eff.gamma) not in ((0.0, 0.0), (1.0, 1.0))
                    and d >= h / (1.0 - prod)):
                region = PhaseRegion.NONUNIQUE_UNIT_SQUARE
            for lo, hi in ((eff.beta, eff.gamma), (eff.gamma, eff.beta)):
                if 0 < lo < 1 < hi:  # so not in the unit square
                    plan = outside_square_degrees(lo, hi)
                    if plan.in_hard_region and d == plan.delta_star:
                        region = PhaseRegion.NONUNIQUE_OUTSIDE_SQUARE
                    break
        reports.append(PhaseReport(region, x, m, h))
    return reports


def classify_phase_detail(p: SpinParams, d: int,
                          h: float = DEFAULT_REGION_CONSTANT) -> PhaseReport:
    """Classify (beta, gamma, mu, d) into a phase/hardness region.

    The label is uniqueness iff uniqueness_check finds |f'| < 1, for
    beta*gamma < 1.  The constant h is configuration, not derivation: every
    report echoes it.
    """
    check_int("degree", d, 1, INT64_MAX, floats=True)
    check_real("h", h, -FLOAT_MAX, FLOAT_MAX)
    return _classify_block([p], d, h)[0]


def classify_phase(p: SpinParams, d: int,
                   h: float = DEFAULT_REGION_CONSTANT) -> PhaseRegion:
    return classify_phase_detail(p, d, h).region


def phase_grid(betas, gammas, mu: float, d: int,
               h: float = DEFAULT_REGION_CONSTANT):
    """Classified rows over a (beta, gamma) grid, suitable for CSV dumps.

    Yields dicts with keys beta, gamma, mu, d, region, x_hat, deriv_mag
    (the last two are None in regions where the solver does not apply),
    row-major with beta outermost.  Cells are taken lazily in blocks of at
    most PHASE_BLOCK_CELLS, each classified as classify_phase_detail
    classifies one cell; an error raised for a block comes before any of
    its rows.
    """
    check_int("degree", d, 1, INT64_MAX, floats=True)
    check_real("h", h, -FLOAT_MAX, FLOAT_MAX)
    gammas = list(gammas)
    cells = ((beta, gamma) for beta in betas for gamma in gammas)
    while block := list(itertools.islice(cells, PHASE_BLOCK_CELLS)):
        params = [SpinParams(beta, gamma, mu) for beta, gamma in block]
        for p, rep in zip(params, _classify_block(params, d, h)):
            yield {
                "beta": p.beta, "gamma": p.gamma, "mu": mu, "d": d,
                "region": rep.region.value,
                "x_hat": rep.x_hat,
                "deriv_mag": rep.derivative_magnitude,
            }
