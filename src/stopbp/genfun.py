"""Generating-function evaluation, survival functionals, and Yaglom limits.

The probability generating map h sends s in [0,1]^k to the vector of
per-type offspring pgf values; its t-fold composition gives the law of the
population at time t.  Survival quantities 1 - h(t, s) are iterated in
"survival form" via expm1/log1p so they remain accurate in relative terms
even when many orders of magnitude below machine epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from stopbp import exact_engine
from stopbp.model import BranchingModel, PopulationState, unit_state

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
SNAPSHOT_LAG = 5


@lru_cache(maxsize=32)
def _law_arrays(model: BranchingModel) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per type: (atom count matrix, probability vector); built once per model
    and read-only, since every caller shares them."""
    out = []
    for law in model.laws:
        counts = np.array([state.counts for state, _ in law.atoms], dtype=float)
        probs = np.array([p for _, p in law.atoms])
        counts.flags.writeable = probs.flags.writeable = False
        out.append((counts, probs))
    return tuple(out)


def _check_unit_box(s: np.ndarray, k: int):
    if s.shape[-1] != k:
        raise ValueError(f"argument has dimension {s.shape[-1]}, model has {k} types")
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("argument must lie in [0, 1]^k")


def eval_h(model: BranchingModel, s) -> np.ndarray:
    """One-step generating map h(s); accepts a vector or a batch (m, k)."""
    s = np.asarray(s, dtype=float)
    _check_unit_box(s, model.k)
    batch = np.atleast_2d(s)
    out = np.empty_like(batch)
    for i, (counts, probs) in enumerate(_law_arrays(model)):
        # batch (m, k) against atoms (a, k): product over types per atom
        powers = batch[:, None, :] ** counts[None, :, :]
        out[:, i] = powers.prod(axis=2) @ probs
    return out.reshape(s.shape)


def survival_map(model: BranchingModel, r) -> np.ndarray:
    """Stable evaluation of 1 - h(1 - r) for survival vectors r in [0, 1]^k.

    Uses 1 - prod_j (1 - r_j)^c_j = -expm1(sum_j c_j log1p(-r_j)); exact in
    relative terms for r arbitrarily close to 0, where the plain form would
    cancel to zero.
    """
    r = np.asarray(r, dtype=float)
    _check_unit_box(r, model.k)
    batch = np.atleast_2d(r)
    with np.errstate(divide="ignore"):
        logs = np.log1p(-batch)  # -inf where r = 1
    out = np.empty_like(batch)
    for i, (counts, probs) in enumerate(_law_arrays(model)):
        with np.errstate(invalid="ignore"):
            raw = counts[None, :, :] * logs[:, None, :]
        # c = 0 contributes nothing even where log1p(-r) = -inf
        raw = np.where(counts[None, :, :] > 0, raw, 0.0)
        exponents = raw.sum(axis=2)
        out[:, i] = -(np.expm1(exponents) @ probs)
    return out.reshape(r.shape)


def iterate_survival(model: BranchingModel, t: int, s=None, r0=None) -> np.ndarray:
    """Survival vector 1 - h(t, s), iterated in survival form.

    Start either from an argument ``s`` (r0 = 1 - s) or directly from a
    survival vector ``r0``.
    """
    if (s is None) == (r0 is None):
        raise ValueError("give exactly one of s or r0")
    if r0 is None:
        s = np.asarray(s, dtype=float)
        _check_unit_box(s, model.k)
        r = 1.0 - s
    else:
        r = np.asarray(r0, dtype=float).copy()
    for _ in range(t):
        r = survival_map(model, r)
    return r


@dataclass(eq=False)
class GenFunEvaluation:
    """Value of the t-step generating map with its survival companions.

    ``h`` comes from plain t-fold composition; ``R`` = 1 - h(t, s) and
    ``Q`` = 1 - h(t, 0) are iterated in survival form on first read, so R
    and 1 - h agree only up to accumulated rounding once survival drops near
    epsilon.
    """

    model: BranchingModel
    t: int
    s: np.ndarray
    h: np.ndarray

    @cached_property
    def R(self) -> np.ndarray:
        return iterate_survival(self.model, self.t, s=self.s)

    @cached_property
    def Q(self) -> np.ndarray:
        return iterate_survival(self.model, self.t, r0=np.ones(self.model.k))


def iterate_h(model: BranchingModel, t: int, s) -> GenFunEvaluation:
    """t-fold composition of the generating map, plus survival vectors."""
    if t < 0:
        raise ValueError("t must be >= 0")
    s = np.array(s, dtype=float)  # a copy: R is iterated from it on first read
    _check_unit_box(s, model.k)
    h = s.copy()
    for _ in range(t):
        h = eval_h(model, h)
    return GenFunEvaluation(model=model, t=t, s=s, h=h)


def truncated_laws(model: BranchingModel, space, counts, steps: int):
    """Yield, for l = 1..steps, P_n(Z_l = beta) for every row n of ``counts``
    and every state beta of ``space`` (columns by ordinal).

    These are the coefficients of prod_i F_l^(i)(s)^(n_i), F_l the l-th
    iterate of h, truncated at total degree ``space.cap``.  Each factor is
    expanded around its constant term: with r = 1 - F(0), iterated in
    survival form, and v = (F - F(0)) / r, F^c = sum_m Bin(c, r)(m) v^m,
    and v^m starts at degree m, so m <= cap suffices for any c.  The
    binomial weights are taken in logs (log C(c, m) as a sum of logs), so c
    may be huge; every other sum has nonnegative terms, so every coefficient
    keeps its relative precision.  Laws count as normalised, as in
    ``survival_map``.
    """
    k, cap, size = space.k, space.cap, space.n_states
    states = space.states_array()
    # truncated products: pairs (a, b) with a + b in the space, grouped by a + b
    a, b = np.nonzero(states.sum(1)[:, None] + states.sum(1)[None, :] <= cap)
    c = space.ordinals(states[a] + states[b])
    order = np.argsort(c, kind="stable")
    a, b, groups = a[order], b[order], np.searchsorted(c[order], np.arange(size))

    def product(x, y):
        return np.add.reduceat(x[..., a] * y[..., b], groups, axis=-1)

    laws = _law_arrays(model)
    n_atoms = sum(len(probs) for _, probs in laws)
    owner = np.concatenate([np.full(len(probs), i) for i, (_, probs) in enumerate(laws)])
    mix = np.zeros((k, n_atoms))  # F_l^(i) = mix[i] @ (atom powers of F_(l-1))
    mix[owner, np.arange(n_atoms)] = np.concatenate([probs for _, probs in laws])
    rows = np.concatenate([x for x, _ in laws] + [np.asarray(counts, dtype=float)])
    rows = rows[:, :, None]
    m = np.arange(cap + 1, dtype=float)
    excess = rows - m
    with np.errstate(divide="ignore"):  # log C(c, m) = -inf for m > c
        falling = np.log(np.maximum(excess[..., :-1], 0.0)).cumsum(axis=2)
    log_binom = np.concatenate([np.zeros(rows.shape), falling], axis=2)
    log_binom -= np.concatenate([[0.0], np.log(m[1:]).cumsum()])
    rest, taken, atom_rows = excess > 0, m > 0, rows[:n_atoms, :, 0]

    r = np.ones(k)  # F_0^(i)(s) = s_i: r = 1, v = s_i
    v = np.zeros((k, size))
    if cap:
        v[range(k), space.ordinals(np.eye(k, dtype=np.int64))] = 1.0
    for l in range(steps + 1):
        vpow = [np.eye(1, size).repeat(k, 0)]
        for _ in range(cap):
            vpow.append(product(vpow[-1], v))
        with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 or r = 1
            log_a0 = np.log1p(-r)
            weights = np.exp(log_binom + np.where(rest, excess * log_a0[:, None], 0.0)
                             + np.where(taken, m * np.log(r)[:, None], 0.0))
            dead = np.where(atom_rows > 0, atom_rows * log_a0, 0.0).sum(1)
        factors = np.einsum("njm,mjs->njs", weights, np.array(vpow))
        powers = factors[:, 0]
        for j in range(1, k):
            powers = product(powers, factors[:, j])
        if l:
            yield powers[n_atoms:]
        if l < steps:
            f = mix @ powers[:n_atoms]
            r = -(mix @ np.expm1(dead))  # survival_map's 1 - h(1 - r)
            v = np.divide(f, r[:, None], out=np.zeros_like(f), where=r[:, None] > 0.0)
            v[:, 0] = 0.0


def make_s_grid(k: int, n_points: int) -> np.ndarray:
    """Deterministic argument grid in [0, 1)^k.

    A Kronecker additive-recurrence lattice (irrational steps sqrt(prime)),
    prefixed, for k <= 5, with the product grid {0, 0.5, 0.9}^k.  Stable
    across runs by construction; no RNG involved.
    """
    if k > len(_PRIMES):
        raise ValueError(f"grids support up to {len(_PRIMES)} types")
    rows = []
    if k <= 5:
        mesh = np.meshgrid(*([np.array([0.0, 0.5, 0.9])] * k), indexing="ij")
        rows.append(np.stack([m.ravel() for m in mesh], axis=1))
    alpha = np.sqrt(np.array(_PRIMES[:k], dtype=float))
    m = np.arange(1, n_points + 1)[:, None]
    rows.append((m * alpha[None, :]) % 1.0)
    return np.concatenate(rows, axis=0)


# ---------------------------------------------------------------------------
# ratio convergence table


@dataclass(eq=False)
class RatioRecord:
    t: int
    s: np.ndarray
    ratios: np.ndarray
    deviation_nu: float
    deviation_fixed_point: float


@dataclass(eq=False)
class RatioLimitTable:
    """Convergence table for the survival-ratio vector R^i / (f_k R^k).

    ``target_nu`` is the invariant-measure target; ``target_fixed_point``
    is f_i / f_k^2, the value the ratio actually converges to when survival
    vectors align with the eigenfunction direction f.  Both deviations are
    tracked so the table documents which law the data follows.
    """

    k_ref: int  # 1-based
    target_nu: np.ndarray
    target_fixed_point: np.ndarray
    records: list[RatioRecord]

    def worst_deviation_nu(self, t: int) -> float:
        return max(r.deviation_nu for r in self.records if r.t == t)

    def worst_deviation_fixed_point(self, t: int) -> float:
        return max(r.deviation_fixed_point for r in self.records if r.t == t)


def ratio_limit(
    model: BranchingModel,
    summary,
    k_ref: int,
    s_grid: np.ndarray,
    t_max: int,
    t_record: Optional[Sequence[int]] = None,
) -> RatioLimitTable:
    """Track R^i(t, s) / (f_k R^k(t, s)) across the grid and horizons.

    Errors out if the reference component's survival vanishes at some grid
    point (which happens exactly at s = 1, excluded by assumption).
    """
    if not 1 <= k_ref <= model.k:
        raise ValueError(f"reference type {k_ref} out of range 1..{model.k}")
    s_grid = np.atleast_2d(np.asarray(s_grid, dtype=float))
    _check_unit_box(s_grid, model.k)
    if np.any(np.all(s_grid == 1.0, axis=1)):
        raise ValueError("the all-ones argument is excluded (survival is zero there)")
    f = np.asarray(summary.f, dtype=float)
    nu = np.asarray(summary.nu, dtype=float)
    fk = f[k_ref - 1]
    fixed_point = f / (fk * fk)
    if t_record is None:
        t_record = range(1, t_max + 1)
    record_set = set(int(t) for t in t_record)
    records = []
    r = 1.0 - s_grid
    for t in range(1, t_max + 1):
        r = survival_map(model, r)
        if t not in record_set:
            continue
        ref = r[:, k_ref - 1]
        if np.any(ref <= 0.0):
            raise ValueError(f"reference survival component vanished at t={t}")
        ratios = r / (fk * ref[:, None])
        for row in range(s_grid.shape[0]):
            records.append(
                RatioRecord(
                    t=t,
                    s=s_grid[row],
                    ratios=ratios[row],
                    deviation_nu=float(np.max(np.abs(ratios[row] - nu))),
                    deviation_fixed_point=float(
                        np.max(np.abs(ratios[row] - fixed_point))
                    ),
                )
            )
    return RatioLimitTable(
        k_ref=k_ref,
        target_nu=nu,
        target_fixed_point=fixed_point,
        records=records,
    )


def mean_dominance(model: BranchingModel, s_grid: np.ndarray, A=None) -> float:
    """Worst violation of A(1-s) >= 1 - h(s) over the grid (0 when none).

    The one-step survival vector is dominated componentwise by the mean
    matrix applied to 1 - s; concavity of the generating map makes the
    difference nonnegative for every s in the unit box.
    """
    from stopbp.spectral import first_moments

    if A is None:
        A = first_moments(model)
    s_grid = np.atleast_2d(np.asarray(s_grid, dtype=float))
    _check_unit_box(s_grid, model.k)
    ones_minus = 1.0 - s_grid
    lhs = ones_minus @ np.asarray(A, dtype=float).T
    rhs = survival_map(model, ones_minus)
    gap = lhs - rhs
    return float(max(0.0, -gap.min()))


# ---------------------------------------------------------------------------
# Yaglom conditional limit


@dataclass(eq=False)
class YaglomData:
    """Conditional law of the population at a horizon, given non-extinction.

    ``p`` is indexed by state-space ordinal (entry 0, the zero state, is
    zero by construction); ``deficit`` is the conditional mass that left
    the capped space, reported and never renormalized away.
    """

    source_type: int  # 1-based
    t: int
    space: exact_engine.StateSpace
    p: np.ndarray
    deficit: float
    snapshot_distance: float  # TV distance between horizons t and t - lag
    snapshot_lag: int

    def probability(self, state: PopulationState) -> float:
        return float(self.p[self.space.ordinal(state)])

    def support(self) -> list[PopulationState]:
        return [self.space.state(i) for i in np.nonzero(self.p)[0]]

    def mean_vector(self) -> np.ndarray:
        return self.p @ self.space.states_array()

    def tv_distance(self, other: "YaglomData") -> float:
        if other.space is not self.space:
            raise ValueError("distributions live on different spaces")
        return 0.5 * float(np.abs(self.p - other.p).sum()) + 0.5 * abs(
            self.deficit - other.deficit
        )


def _conditional_split(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Conditional law given non-extinction, from a distribution vector.

    The non-extinction mass is summed over the nonzero entries directly
    (never as 1 minus the extinction mass, which cancels catastrophically
    once extinction is nearly certain).
    """
    alive = float(v[1:].sum())
    if alive <= 0.0:
        raise ArithmeticError("no surviving mass to condition on")
    # p covers real states only; the overflow share becomes the deficit
    p = np.zeros(v.shape[0] - 1)
    p[1:] = v[1:-1] / alive
    return p, float(v[-1] / alive)


def yaglom(
    model: BranchingModel,
    space: exact_engine.StateSpace,
    j: int,
    t: int,
) -> YaglomData:
    """Conditional population law at horizon t from one type-j particle.

    Requires enough cap that the conditional overflow deficit stays below
    1 percent; raises otherwise.
    """
    if not 1 <= j <= model.k:
        raise ValueError(f"type index {j} out of range 1..{model.k}")
    if t < 1:
        raise ValueError("t must be >= 1")
    kernel = exact_engine.one_step_kernel(model, space)
    earlier = None
    lag = min(SNAPSHOT_LAG, t - 1) if t > 1 else 0
    for step, v in enumerate(kernel.forward(unit_state(j, space.k), t), 1):
        if lag and step == t - lag:
            earlier = v
    p, deficit = _conditional_split(v)
    if deficit >= 0.01:
        raise exact_engine.CapacityError(
            f"conditional overflow deficit {deficit:.3g} >= 0.01; raise the cap"
        )
    if earlier is not None:
        p_prev, d_prev = _conditional_split(earlier)
        snapshot = 0.5 * float(np.abs(p - p_prev).sum()) + 0.5 * abs(deficit - d_prev)
    else:
        snapshot = float("nan")
    return YaglomData(
        source_type=j,
        t=t,
        space=space,
        p=p,
        deficit=deficit,
        snapshot_distance=snapshot,
        snapshot_lag=lag,
    )


def h_star(data: YaglomData, s) -> np.ndarray:
    """Generating function of the conditional law at the tabulated horizon."""
    s = np.asarray(s, dtype=float)
    _check_unit_box(s, data.space.k)
    batch = np.atleast_2d(s)
    counts = data.space.states_array()  # (n, k)
    powers = batch[:, None, :] ** counts[None, :, :].astype(float)
    values = powers.prod(axis=2) @ data.p[: data.space.n_states]
    return values.reshape(s.shape[:-1]) if s.ndim > 1 else float(values[0])


@dataclass(eq=False)
class YaglomResidualReport:
    """Fixed-point-relation residuals of the conditional-limit pgf."""

    max_residual: float
    boundary_at_zero: float  # h*(0), should be 0
    boundary_at_one: float  # h*(1), equals 1 - deficit
    delta: float
    rows: list[tuple[np.ndarray, float, float]]  # (s, lhs, rhs)


def yaglom_residual(
    model: BranchingModel, data: YaglomData, summary, s_grid: np.ndarray
) -> YaglomResidualReport:
    """Check 1 - h*(h(s)) = delta (1 - h*(s)) over a grid.

    Uses the truncated conditional law as-is; the residual honestly carries
    the truncation deficit.
    """
    s_grid = np.atleast_2d(np.asarray(s_grid, dtype=float))
    _check_unit_box(s_grid, model.k)
    delta = float(summary.delta)
    hs = np.atleast_2d(eval_h(model, s_grid))
    lhs = 1.0 - np.atleast_1d(h_star(data, hs))
    rhs = delta * (1.0 - np.atleast_1d(h_star(data, s_grid)))
    rows = [(s_grid[i], float(lhs[i]), float(rhs[i])) for i in range(s_grid.shape[0])]
    zero = np.zeros(model.k)
    one = np.ones(model.k)
    return YaglomResidualReport(
        max_residual=float(np.max(np.abs(lhs - rhs))),
        boundary_at_zero=float(h_star(data, zero)),
        boundary_at_one=float(h_star(data, one)),
        delta=delta,
        rows=rows,
    )


def single_offspring_matrix(model: BranchingModel) -> np.ndarray:
    """M[i, j] = probability that a type-i parent leaves exactly one type-j child.

    Positivity of some column entry for every j is the precondition for the
    conditional-limit law to charge every single-particle state.
    """
    k = model.k
    M = np.zeros((k, k))
    for i, law in enumerate(model.laws):
        for state, p in law.atoms:
            if state.total == 1:
                M[i, state.counts.index(1)] += p
    return M


def single_offspring_reachable(model: BranchingModel) -> bool:
    """True when every type appears as some parent's single-child outcome."""
    return bool(np.all(single_offspring_matrix(model).max(axis=0) > 0.0))
