"""The invariant battery: the identities and inequalities that check the
exact engine, the generating map and the spectral data against each other.

Each invariant is one function of explicit inputs that returns (ok,
detail), with ok its verdict at the tolerance given (by default the
module constant beside it) or None when the model lacks its hypothesis,
and detail a short line with the measured value or the missing hypothesis.
``battery`` binds the twelve checks ``stopbp verify`` runs on one
model; it builds the kernel once and the first-passage table at most once,
and looks ``exact_engine.one_step_kernel`` up on the module, so a test can
substitute a faulty kernel.  ``run`` times each check and turns an
``ArithmeticError`` or ``spectral.OutsideTheoremError`` raised by one into
a failed check carrying its message, so the rest still run.  The tests call
the same functions at their own inputs and tolerances.
"""

from __future__ import annotations

import functools
import itertools
import math
import time

import numpy as np

from stopbp import exact_engine, genfun, spectral
from stopbp.model import BranchingModel, StoppingSet, unit_state

TOL = 1e-12  # composition, first passage, semigroup, survival, dominance, extinction
ROUTE_TOL = 1e-10  # three absorption routes
PERRON_TOL = 1e-10  # eigen residuals
INCREMENT_TOL = 1e-15  # absorption may not fall with the horizon, nor R below 0
STATES = math.comb(32, 2)  # 496: the space of two types at total 30


def kernel_rows_stochastic(kernel: exact_engine.TransitionKernel,
                           tol: float = exact_engine.KERNEL_TOL):
    """Every kernel row is a probability vector; ``validate`` raises otherwise."""
    kernel.validate(tol=tol)
    return True, f"rows stochastic within {tol:g}"


def kernel_composition(kernel: exact_engine.TransitionKernel, splits, tol: float = TOL):
    """Chapman-Kolmogorov, K^(a+b) = K^a K^b, for each split (a, b); each
    power is one product from the last."""
    powers = {1: kernel.matrix}
    for n in range(2, max(a + b for a, b in splits) + 1):
        powers[n] = powers[n - 1] @ kernel.matrix
    worst = max(float(np.max(np.abs(powers[a + b] - powers[a] @ powers[b]))) for a, b in splits)
    return worst <= tol, f"composition residual {worst:.3g}"


def first_passage_dual_route(kernel: exact_engine.TransitionKernel,
                             restricted: exact_engine.RestrictedKernel, tol: float = TOL):
    """The first-passage table by the masked recursion equals the table by
    inclusion-exclusion over the free chain."""
    other = exact_engine.restricted_via_inclusion_exclusion(
        kernel, restricted.stopping, restricted.t_max)
    worst = float(np.max(np.abs(restricted.values - other)))
    return worst <= tol, f"dual-route gap {worst:.3g}"


def first_passage_dominated(kernel: exact_engine.TransitionKernel,
                            restricted: exact_engine.RestrictedKernel, tol: float = TOL):
    """A first passage to a target at step t is a free-chain visit at t."""
    free = exact_engine.hitting_columns(kernel, restricted.targets, restricted.t_max)
    worst = float(np.max(restricted.values - free[1:]))
    return worst <= tol, f"max excess {worst:.3g}"


def three_routes(kernel: exact_engine.TransitionKernel, stopping: StoppingSet, starts, r,
                 t_list, tol: float = ROUTE_TOL):
    """The stopped chain, the stop-coefficient formula and the first-passage
    partial sums of ``absorption_table`` give the same q(n -> r, t) as the
    backward stopped column, for every start and horizon."""
    table = exact_engine.absorption_table(kernel, stopping, starts, r, t_list)
    col = exact_engine.stopped_hitting_column(kernel, stopping, r, max(t_list))
    backward = col[np.ix_(t_list, [kernel.space.ordinal(n) for n in starts])].T.reshape(-1, 1)
    # one row per start and t: direct, formula, restricted, backward
    q = np.hstack([np.array([row.q for row in table.rows]).reshape(-1, 3), backward])
    worst = float(np.abs(q[:, 1:] - q[:, :1]).max(initial=0.0))
    return worst <= tol, f"worst route gap {worst:.3g}"


def absorption_monotone(kernel: exact_engine.TransitionKernel, stopping: StoppingSet, r,
                        t_max: int, tol: float = INCREMENT_TOL):
    """Absorption at r by step t does not decrease in t, from every state."""
    col = exact_engine.stopped_hitting_column(kernel, stopping, r, t_max)
    worst = float(np.min(np.diff(col, axis=0)))
    return worst >= -tol, f"min increment {worst:.3g}"


def generating_semigroup(model: BranchingModel, s, t: int, tau: int, tol: float = TOL):
    """h(t + tau) = h(t) o h(tau), read across the two forms of the map:
    1 - h(t + tau, s) by plain composition against t survival-form steps
    (``genfun.survival_path``) from 1 - h(tau, s).  The forms share no
    arithmetic, so a fault in either shows as a gap."""
    plain = 1.0 - genfun.iterate_h(model, t + tau, s)
    survival = genfun.survival_path(model, t, 1.0 - genfun.iterate_h(model, tau, s))[-1]
    worst = float(np.max(np.abs(plain - survival)))
    return worst <= tol, f"worst semigroup gap {worst:.3g}"


def survival_bounds(model: BranchingModel, s, horizons, tol: float = TOL):
    """0 <= R(t, s) <= Q(t) at each horizon t, with R(t, s) = 1 - h(t, s)
    and Q(t) = R(t, 0), read off one survival path from the s and from 0."""
    horizons = list(horizons)
    start = np.vstack([1.0 - np.atleast_2d(np.asarray(s, dtype=float)), np.ones(model.k)])
    path = genfun.survival_path(model, max(horizons), start)[horizons]
    r, excess = path[:, :-1], path[:, :-1] - path[:, -1:]
    ok = bool(np.all(r >= -INCREMENT_TOL) and np.all(excess <= tol))
    return ok, f"min R {r.min():.3g}, max R - Q {excess.max():.3g}"


def mean_dominance(model: BranchingModel, s, tol: float = TOL):
    """A(1 - s) >= 1 - h(s) over the arguments s, by concavity of h; the
    worst violation is 0 when none."""
    r = 1.0 - np.asarray(s, dtype=float)
    gap = r @ spectral.first_moments(model).T - genfun.survival_map(model, r)
    worst = float(max(0.0, -gap.min()))
    return worst <= tol, f"worst violation {worst:.3g}"


def _missing_hypothesis(summary: spectral.SpectralSummary) -> str:
    """The first hypothesis of the theorem the model lacks, or ""."""
    if not summary.indecomposable:
        return "decomposable"
    if summary.period != 1:
        return f"period {summary.period}"
    return "" if summary.criticality == "subcritical" else summary.criticality


def perron_residuals(summary: spectral.SpectralSummary, tol: float = PERRON_TOL):
    """|A f - delta f| and |nu A - delta nu| of the computed Perron triple;
    ok is None when the model has none (decomposable or periodic)."""
    if summary.period != 1:
        return None, f"skipped: {_missing_hypothesis(summary)}"
    worst = max(summary.residual_f, summary.residual_nu)
    return worst <= tol, f"eigen residual {worst:.3g}"


def survival_constants_positive(model: BranchingModel, summary: spectral.SpectralSummary,
                                l_max: int):
    """K_j > 0 for every type; ``spectral.survival_constants`` raises
    otherwise; ok is None for a model outside the theorem."""
    missing = _missing_hypothesis(summary)
    if missing:
        return None, f"skipped: {missing}"
    K = spectral.survival_constants(model, l_max, summary)
    return True, f"K = {np.array2string(K, precision=4)}"


def extinction_matches_generating_map(model: BranchingModel,
                                      kernel: exact_engine.TransitionKernel, t: int,
                                      tol: float = TOL):
    """The kernel's t-step mass at 0 from one type-i particle equals h(t, 0)_i,
    up to the mass that left the capped space."""
    space = kernel.space
    h = genfun.iterate_h(model, t, np.zeros(model.k))
    worst = 0.0
    for i in range(1, model.k + 1):
        *_, v = kernel.forward(unit_state(i, model.k), t)  # the row e_i K^t
        worst = max(worst, abs(float(v[0]) - float(h[i - 1])) - float(v[space.overflow]))
    return worst <= tol, f"worst gap beyond overflow {worst:.3g}"


def battery(model: BranchingModel, stopping: StoppingSet, cap: int):
    """The (name, check) pairs ``stopbp verify`` runs on one model; each
    check takes no argument and returns (ok, detail).

    The kernel lives on the space of the largest total <= cap with at most
    ``STATES`` states, C(total + k, k) <= 496, or of total r0 <= cap if that
    is larger, since the checks need the stopping set inside (``check_starts``
    refuses r0 > cap before anything is built); it is built here, and the
    first-passage table to 8 steps by the first check that reads it.
    """
    largest = next(c for c in itertools.count() if math.comb(c + 1 + model.k, model.k) > STATES)
    cap = min(cap, max(largest, stopping.max_total))
    r = stopping.sorted_members()[0]
    exact_engine.check_starts(stopping, (), r, cap)
    space = exact_engine.enumerate_states(model.k, cap)
    kernel = exact_engine.one_step_kernel(model, space)
    summary = spectral.classify(spectral.moments(model))
    restricted = functools.cache(lambda: exact_engine.restricted_kernel(kernel, stopping, 8))
    starts = [space.state(i) for i in range(1, min(space.n_states, 25))]
    starts = [n for n in starts if n not in stopping]

    def draws(seed, points):
        return np.random.default_rng(seed).uniform(0, 1, size=(points, model.k))

    return [
        ("kernel rows stochastic", lambda: kernel_rows_stochastic(kernel)),
        ("kernel composition", lambda: kernel_composition(kernel, [(2, 3)])),
        ("first-passage dual route", lambda: first_passage_dual_route(kernel, restricted())),
        ("first-passage dominated by free", lambda: first_passage_dominated(kernel, restricted())),
        ("three absorption routes agree",
         lambda: three_routes(kernel, stopping, starts, r, [1, 4, 8])),
        ("absorption monotone in horizon", lambda: absorption_monotone(kernel, stopping, r, 15)),
        ("generating map semigroup", lambda: generating_semigroup(model, draws(0, 20), 3, 4)),
        ("survival inequalities", lambda: survival_bounds(model, draws(1, 200), (1, 5, 15))),
        ("mean dominance", lambda: mean_dominance(model, genfun.make_s_grid(model.k, 200))),
        ("Perron residuals", lambda: perron_residuals(summary)),
        ("survival constants positive", lambda: survival_constants_positive(model, summary, 50)),
        ("extinction matches generating map",
         lambda: extinction_matches_generating_map(model, kernel, 6)),
    ]


def run(model: BranchingModel, stopping: StoppingSet, cap: int):
    """Yield (name, ok, detail, seconds) for each check of ``battery``."""
    for name, check in battery(model, stopping, cap):
        start = time.perf_counter()
        try:
            ok, detail = check()
        except (ArithmeticError, spectral.OutsideTheoremError) as exc:
            ok, detail = False, str(exc)
        yield name, ok, detail, time.perf_counter() - start
