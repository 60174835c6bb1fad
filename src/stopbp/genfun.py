"""Generating-function evaluation, survival functionals, and Yaglom limits.

The probability generating map h sends s in [0,1]^k to the vector of
per-type offspring pgf values; its t-fold composition gives the law of the
population at time t.  Survival quantities 1 - h(t, s) are iterated in
"survival form" via expm1/log1p so they remain accurate in relative terms
even when many orders of magnitude below machine epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from stopbp import exact_engine
from stopbp.model import BranchingModel, PopulationState, unit_state

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
SNAPSHOT_LAG = 5


@lru_cache(maxsize=32)
def _law_arrays(model: BranchingModel) -> tuple[np.ndarray, np.ndarray]:
    """The offspring laws as ``atoms`` (a, k), every type's atoms stacked,
    and ``mix`` (k, a), type i's probabilities in row i, so h(s) = mix @
    prod_j s_j^atoms; built once per model and read-only, as callers share them."""
    atoms = np.array([state.counts for law in model.laws for state, _ in law.atoms],
                     dtype=float)
    owner = np.repeat(np.arange(model.k), [len(law.atoms) for law in model.laws])
    mix = np.zeros((model.k, len(atoms)))
    mix[owner, np.arange(len(atoms))] = [p for law in model.laws for _, p in law.atoms]
    atoms.flags.writeable = mix.flags.writeable = False
    return atoms, mix


def _check_unit_box(s: np.ndarray, k: int):
    if s.shape[-1] != k:
        raise ValueError(f"argument has dimension {s.shape[-1]}, model has {k} types")
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("argument must lie in [0, 1]^k")


def _pgf(s: np.ndarray, counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_a weights[a] prod_j s_j^counts[a, j] for each row of the batch s
    (m, k).  s_j^c for c = 0..max count is taken once per coordinate,
    gathered by the counts and multiplied over the types in order; the
    product is copied C-contiguous, since another layout takes another BLAS
    path in the @ and moves the last bits."""
    counts = counts.astype(np.intp, copy=False)
    table = s[:, :, None] ** np.arange(counts.max() + 1, dtype=float)
    powers = table[:, 0, counts[:, 0]]  # (m, a)
    for j in range(1, s.shape[1]):
        powers = powers * table[:, j, counts[:, j]]
    return np.ascontiguousarray(powers) @ weights


def eval_h(model: BranchingModel, s) -> np.ndarray:
    """One-step generating map h(s); accepts a vector or a batch (m, k)."""
    s = np.asarray(s, dtype=float)
    _check_unit_box(s, model.k)
    atoms, mix = _law_arrays(model)
    return _pgf(np.atleast_2d(s), atoms, mix.T).reshape(s.shape)


_LOG_ZERO = -1e3  # stands for log 0: below log(5e-324), so exp gives 0 exactly


def _survival_step(atoms: np.ndarray, mix: np.ndarray, r: np.ndarray) -> np.ndarray:
    """1 - h(1 - r) by 1 - prod_j (1 - r_j)^c_j = -expm1(sum_j c_j log1p(-r_j)),
    exact in relative terms for r arbitrarily close to 0, where the plain form
    cancels to zero; r >= 1 counts as log 0, which a count c = 0 zeroes."""
    logs = np.log1p(-r, out=np.full(r.shape, _LOG_ZERO), where=r < 1.0)
    return -(np.expm1(logs @ atoms.T) @ mix.T)


def survival_map(model: BranchingModel, r) -> np.ndarray:
    """``_survival_step`` on survival vectors r in [0, 1]^k, a vector or a batch (m, k)."""
    r = np.asarray(r, dtype=float)
    _check_unit_box(r, model.k)
    return _survival_step(*_law_arrays(model), r)


def survival_path(model: BranchingModel, t: int, r) -> np.ndarray:
    """Survival vectors 1 - h(l, 1 - r) for l = 0..t on a new leading axis,
    from the survival vector (or batch) r, iterated in survival form."""
    if t < 0:
        raise ValueError("t must be >= 0")
    r = np.asarray(r, dtype=float)
    _check_unit_box(r, model.k)
    atoms, mix = _law_arrays(model)
    path = np.empty((t + 1,) + r.shape)
    path[0] = r
    for l in range(t):
        path[l + 1] = _survival_step(atoms, mix, path[l])
    return path


def iterate_h(model: BranchingModel, t: int, s) -> np.ndarray:
    """t-fold composition h(t, s) of the generating map, in plain form."""
    if t < 0:
        raise ValueError("t must be >= 0")
    h = np.array(s, dtype=float)
    _check_unit_box(h, model.k)
    for _ in range(t):
        h = eval_h(model, h)
    return h


LAW_BLOCK_BYTES = 1 << 21  # working memory of one block of ``truncated_laws``


@lru_cache(maxsize=8)
def _truncated_pairs(k: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (a, b) of states with a + b of total <= cap, sorted by the
    ordinal of a + b, and where each ordinal's group starts."""
    space = exact_engine.enumerate_states(k, cap)
    states = space.counts
    # graded order: the partners b of a are the first C(cap - |a| + k, k)
    # states, so the pairs come a-major with b ascending
    partners = np.array([math.comb(cap - d + k, k) for d in range(cap + 1)])[states.sum(1)]
    a = np.repeat(np.arange(space.n_states), partners)
    b = np.arange(len(a)) - np.repeat(np.cumsum(partners) - partners, partners)
    c = space.ordinals(states[a] + states[b])
    order = np.argsort(c, kind="stable")
    return a[order], b[order], np.searchsorted(c[order], np.arange(space.n_states))


def _product(pairs, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of power series in monomials (last axis, by ordinal),
    truncated at the total degree of the pair table ``pairs``
    (``_truncated_pairs``); every sum has nonnegative terms when x and y do."""
    a, b, groups = pairs
    return np.add.reduceat(x.take(a, -1) * y.take(b, -1), groups, -1)


def _fill_powers(pairs, powers: np.ndarray):
    """powers[..., p, :] = v^p for p >= 2, with v = powers[..., 1, :]."""
    for p in range(2, powers.shape[-2]):
        powers[..., p, :] = _product(pairs, powers[..., p - 1, :], powers[..., 1, :])


def _present_rows(counts: np.ndarray) -> list[np.ndarray]:
    """Per type j, the rows of ``counts`` (rows, k) with c_j > 0."""
    return [np.flatnonzero(column > 0) for column in np.asarray(counts).T]


def _multiply_types(pairs, factors: np.ndarray, present: list[np.ndarray]) -> np.ndarray:
    """prod_j factors[j] (rows on axis -2), multiplying each row by
    factors[j] only where ``present[j]`` lists it: a factor with exponent
    c_j = 0 is the unit series, and a product with it only adds exact zeros.
    Overwrites factors[0]."""
    out = factors[0]
    for j in range(1, len(present)):
        rows = present[j]
        if len(rows):
            out[..., rows, :] = _product(pairs, out.take(rows, -2), factors[j].take(rows, -2))
    return out


def truncated_laws(space, pairs, counts, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P_n(Z_l = beta) for a block of steps l, every row n of ``counts`` and
    every state beta of ``space``: ``out[i, n, beta]`` at the step of r[i].

    These are the coefficients of prod_j F_l^(j)(s)^(n_j), F_l the l-th
    iterate of h, truncated at total degree ``space.cap`` (``pairs`` is its
    pair table), with F_l^(j) = 1 - r[i, j] + r[i, j] v[i, j]
    (``truncated_law_blocks``).  Each factor is expanded around its constant
    term, F^c = sum_m Bin(c, r)(m) v^m, and v^m starts at degree m, so m <=
    cap suffices for any c.  The binomial weights are taken in logs (log
    C(c, m) as a sum of logs, log a0 = log1p(-r)), so c may be huge; every
    other sum has nonnegative terms, so every coefficient keeps its relative
    precision.
    """
    rows = np.asarray(counts, dtype=float)[:, :, None]  # (n, k, 1)
    m = np.arange(space.cap + 1, dtype=float)
    excess = rows - m
    with np.errstate(divide="ignore"):  # log C(c, m) = -inf for m > c
        falling = np.log(np.maximum(excess[..., :-1], 0.0)).cumsum(axis=2)
    log_binom = np.concatenate([np.zeros(rows.shape), falling], axis=2)
    log_binom -= np.concatenate([[0.0], np.log(m[1:]).cumsum()])
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 or r = 1
        log_a0 = np.log1p(-r)[:, None, :, None]
        log_r = np.log(r)[:, None, :, None]
        weights = np.exp(log_binom + np.where(excess > 0, excess * log_a0, 0.0)
                         + np.where(m > 0, m * log_r, 0.0))  # (steps, n, k, cap + 1)
    powers = np.zeros(v.shape[:-1] + (space.cap + 1, v.shape[-1]))
    powers[..., 0, 0] = 1.0
    if space.cap:
        powers[..., 1, :] = v
        _fill_powers(pairs, powers)
    factors = weights.transpose(0, 2, 1, 3) @ powers  # (steps, k, n, size)
    return _multiply_types(pairs, factors.swapaxes(0, 1), _present_rows(rows[..., 0]))


def _check_budget(k: int, cap: int, n_pairs: int, step_entries: int):
    """Raise ``CapacityError`` unless the pair table at (k, cap), built at
    (2k + 6) int64 entries per pair (its traced peak is 7.0 to 23.1 for k =
    1..10), and ``step_entries`` float64 entries fit ``MEMORY_BUDGET``."""
    need = 8 * ((2 * k + 6) * n_pairs + step_entries)
    if need > exact_engine.MEMORY_BUDGET:
        raise exact_engine.CapacityError(
            f"laws truncated at degree {cap} in {k} types need about {need} bytes "
            f"({n_pairs} monomial pairs), above the budget {exact_engine.MEMORY_BUDGET}"
        )


def truncated_law_blocks(model: BranchingModel, space, counts, steps: int):
    """Yield (l, laws) for consecutive blocks of the steps 1..steps, with
    ``laws[i, n, beta]`` = P_n(Z_(l+i) = beta) from ``truncated_laws``.

    The loop over steps carries only the k per-type iterates F_l, truncated
    at total degree ``space.cap``, as r = 1 - F_l(0) and v = (F_l - F_l(0))
    / r.  r does not depend on v, so it is read off one ``survival_path``
    from r = 1, in survival form, and laws count as normalised.
    F_(l+1)^(i) is the mix over type i's atoms of prod_j F_l^(j)^(c_j), and
    an offspring count c is small, so each factor is sum_m C(c, m) a0^(c-m)
    r^m v^m with integer binomials and powers of v up to min(cap, largest
    count).  The weights depend on r alone, so they are taken for a whole
    block of steps at once; a step takes the powers of v in one buffer and
    multiplies an atom's row by the factor of type j only where c_j > 0.
    Every ``LAW_BLOCK_BYTES`` of working memory, the steps gathered so far
    go to ``truncated_laws`` at once.  Before the pair table is built, it
    and one step's working memory are checked against
    ``exact_engine.MEMORY_BUDGET`` (``CapacityError``).
    """
    k, size = space.k, space.n_states
    atoms, mix = _law_arrays(model)  # F_(l+1)^(i) = mix[i] @ (atom powers of F_l)
    counts_int = atoms.astype(np.int64)
    most = int(atoms.max())
    m = np.arange(min(space.cap, most) + 1)
    pascal = np.array([[math.comb(c, j) for j in m] for c in range(most + 1)], dtype=float)
    binom = pascal[counts_int]  # C(c, m) per atom and type
    # a0^(c - m) read off the (k, most + 1) table of a0^e, flattened
    at = np.arange(k)[:, None] * (most + 1) + np.maximum(counts_int[:, :, None] - m, 0)
    exponents = np.arange(most + 1)

    # float64 entries per step of a block: its weights, then in
    # truncated_laws the powers of v and their products, and per row the
    # weights, the factors and their products; the step itself holds the
    # powers of v, the factors and their products once
    n_pairs = math.comb(space.cap + 2 * k, 2 * k)
    per_row = k * (4 * (space.cap + 1) + size) + (k > 1) * n_pairs
    per_step = binom.size + k * ((space.cap + 1) * size + n_pairs) + len(counts) * per_row
    step = k * len(m) * size + len(atoms) * (k * size + 3 * n_pairs)
    _check_budget(k, space.cap, n_pairs, per_step + step)
    pairs = _truncated_pairs(k, space.cap)
    present = _present_rows(atoms)
    survival = survival_path(model, steps, np.ones(k))  # r of F_0, ..., F_steps
    scale = np.where(survival > 0.0, survival, np.inf)[:, :, None]  # f / inf = 0 where r = 0
    block = max(1, min(steps, LAW_BLOCK_BYTES // (8 * per_step)))
    v_block = np.empty((block, k, size))
    # v^p of the current step for p < len(m) (``used``), and v in row 1 even
    # when len(m) = 1: its constant term stays 0, and a step divides f into
    # the rest of it
    powers = np.zeros((k, max(len(m), 2), size))
    powers[:, 0, 0] = 1.0
    if space.cap:  # F_0^(i)(s) = s_i: r = 1, v = s_i
        powers[range(k), 1, space.ordinals(np.eye(k, dtype=np.int64))] = 1.0
    used, v, v_rest = powers[:, : len(m)], powers[:, 1], powers[:, 1, 1:]
    for l in range(1, steps + 1):
        i = (l - 1) % block
        if i == 0:  # (steps, k, atoms, len(m)) for the steps l, l + 1, ... of this block
            r = survival[l - 1: l - 1 + block]
            a0_powers = ((1.0 - r)[:, :, None] ** exponents).reshape(len(r), -1)
            weights = binom * a0_powers[:, at] * (r[:, :, None] ** m)[:, None]
            weights = weights.transpose(0, 2, 1, 3)
        _fill_powers(pairs, used)
        f = mix @ _multiply_types(pairs, weights[i] @ used, present)
        np.divide(f[:, 1:], scale[l], out=v_rest)
        v_block[i] = v
        if i == block - 1 or l == steps:
            yield l - i, truncated_laws(space, pairs, counts, survival[l - i: l + 1],
                                        v_block[: i + 1])


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
    path = survival_path(model, t_max, 1.0 - s_grid)  # checks the grid
    for t in sorted(record_set & set(range(1, t_max + 1))):
        r = path[t]
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
        return self.p @ self.space.counts

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
    values = _pgf(np.atleast_2d(s), data.space.counts, data.p[: data.space.n_states])
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


def single_offspring_reachable(model: BranchingModel) -> bool:
    """True when every type appears as some parent's single-child outcome:
    the precondition for the conditional-limit law to charge every
    single-particle state."""
    atoms, mix = _law_arrays(model)
    singles = atoms[(atoms.sum(1) == 1) & (mix.sum(0) > 0.0)]
    return bool(np.all(singles.any(0)))
