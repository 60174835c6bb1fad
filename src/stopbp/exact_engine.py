"""Exact dynamic programming for stopped branching processes.

Works on a capped state space: every population vector with total count up
to ``cap``, plus one absorbing overflow sentinel that collects probability
mass leaving the cap.  All absorption probabilities computed on it are exact
for the truncated chain; the accumulated overflow mass is reported as the
truncation error bound against the uncapped model.

The paper gives three routes to the absorption probability q(n -> r, t):
the stopped chain, the stop-coefficient expansion over free-chain hitting
probabilities, and the partial sums of first-passage (restricted)
transition probabilities.

The state space is one read-only (S, k) count array in graded-lex order.
An ordinal is the rank of a count vector in the combinatorial number system
of that order (``StateSpace.ordinals``), so enumeration, the atom shift
tables and each kernel row's parent are array operations.

``absorption_table``, behind ``stopbp stop-prob`` and the verify battery,
computes all three routes from one forward block of rows, multiplied by the
kernel once per step: the masked (first-passage) chain from each start, whose
partial sums at r are both the stopped chain's and the restricted route's
value, the masked chain from each stopping state, and the free chain from
each start.  ``TransitionKernel.backward`` returns the table of columns
K^l C, l = 0..steps, with stopping rows masked for first passage or pinned;
one call of it gives each route on its own: ``stopped_hitting_column``
(stopped chain), ``restricted_kernel`` with ``stop_coefficients`` (first
passage) and ``hitting_columns`` (free chain).  The verify battery and the
tests check the table against them.

Every dense start is checked once, by ``check_starts``, which needs only
the stopping set and the cap, so a bad start fails before a kernel exists.
``series_absorptions`` is the one series pipeline that ``stopbp series``
and the probe run, and it takes no cap and no kernel: every stopping state
has total <= r0, so the laws P(Z_l = beta), beta in S, come from generating
functions truncated at degree r0 (``genfun.truncated_law_blocks``), a block
of steps at a time.  They are summed into expected visits to S, and one
|S| x |S| solve turns the visits into first entrances, with the factor it
adds to the tail bound read off the same solve; nothing is sized by the
number of steps.  The tests check it against a dense pinned backward pass
of the stopped chain.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from stopbp.model import (
    BranchingModel,
    PopulationState,
    StoppingSet,
    check_absorption_starts,
)
from stopbp.spectral import require_subcritical

KERNEL_TOL = 1e-12
MAX_SERIES_TERMS = 100_000


def _memory_budget() -> int:
    """Half of physical memory, in bytes."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: assume 8 GiB
        memory = 8 << 30
    return memory // 2


# the one memory budget: the dense kernel's state limit and the size check
# of the cap-free laws (``genfun.truncated_law_blocks``) are both read off it
MEMORY_BUDGET = _memory_budget()
# largest state count S whose dense float64 kernel, (S+1)^2 * 8 bytes with
# the overflow sentinel, fits the budget
STATE_LIMIT = math.isqrt(MEMORY_BUDGET // 8) - 1


class CapacityError(RuntimeError):
    """State space or stopping set does not fit the configured bounds."""


# ---------------------------------------------------------------------------
# state space


@dataclass(eq=False)
class StateSpace:
    """All population vectors with total <= cap, graded-lex ordered.

    ``counts`` holds the vectors as one read-only (n_states, k) integer
    array in ordinal order.  Ordinal ``n_states`` is the absorbing overflow
    sentinel, and the zero state always has ordinal 0.
    """

    k: int
    cap: int
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        # _binom[R, p] = C(R + p, p): compositions of at most R into p parts
        binom = np.ones((self.cap + 1, self.k + 1), dtype=np.int64)
        for p in range(1, self.k + 1):
            binom[:, p] = np.cumsum(binom[:, p - 1])
        self._binom = binom

    @property
    def n_states(self) -> int:
        return len(self.counts)

    @property
    def overflow(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        """Number of ordinals including the overflow sentinel."""
        return len(self.counts) + 1

    def ordinals(self, counts) -> np.ndarray:
        """Ordinals of the count vectors along the last axis of ``counts``,
        each of which must lie in the space.

        The combinatorial number system of graded-lex order: C(t - 1 + k, k)
        states have a total below t, and within total t each leading count
        c_i, with R_i left to place over the p_i = k - 1 - i types after
        it, passes C(R_i + p_i, p_i) - C(R_i - c_i + p_i, p_i) states.
        """
        counts = np.asarray(counts, dtype=np.int64)
        binom, k = self._binom, self.k
        rest = counts.sum(axis=-1)
        out = np.where(rest > 0, binom[np.maximum(rest - 1, 0), k], 0)
        for i in range(k - 1):
            p, c = k - 1 - i, counts[..., i]
            out += binom[rest, p] - binom[rest - c, p]
            rest = rest - c
        return out

    def ordinal(self, state: PopulationState) -> int:
        if state not in self:
            raise ValueError(f"state {state.label()} not in the capped space")
        return int(self.ordinals(state.counts))

    def state(self, ordinal: int) -> PopulationState:
        return PopulationState(tuple(self.counts[ordinal].tolist()))

    def __contains__(self, state: PopulationState) -> bool:
        return len(state.counts) == self.k and state.total <= self.cap


def enumerate_states(k: int, cap: int) -> StateSpace:
    """Enumerate every state with total <= cap in graded-lex order; more than
    ``STATE_LIMIT`` states raise ``CapacityError``.

    Graded-lex order is the lexicographic order of (total, c_1, ..., c_(k-1)),
    with c_k the remainder, so the array is built a column at a time: each
    row is repeated once per value 0..R of the next count, R the total it
    still has to place.
    """
    if k < 1:
        raise ValueError("need at least one type")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    count = math.comb(cap + k, k)
    if count > STATE_LIMIT:
        raise CapacityError(
            f"{count} states for k={k}, cap={cap} exceeds the limit {STATE_LIMIT}: "
            f"the dense kernel would take {(count + 1) ** 2 * 8} bytes"
        )
    rest = np.arange(cap + 1, dtype=np.int64)  # per row: total left to place
    columns = []
    for _ in range(k - 1):
        reps = rest + 1
        value = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        columns = [np.repeat(c, reps) for c in columns] + [value]
        rest = np.repeat(rest, reps) - value
    counts = np.column_stack(columns + [rest])
    counts.flags.writeable = False
    return StateSpace(k=k, cap=cap, counts=counts)


# ---------------------------------------------------------------------------
# transition kernels


@dataclass(eq=False)
class TransitionKernel:
    """Dense one-step transition matrix over a capped space.

    ``matrix[i, j]`` is the probability of moving from ordinal i to ordinal
    j in one step; the last ordinal is the absorbing overflow sentinel.
    """

    space: StateSpace
    matrix: np.ndarray

    def validate(self, tol: float = KERNEL_TOL):
        """Raise if any row is not a probability vector within ``tol``."""
        sums = self.matrix.sum(axis=1)
        worst = float(np.abs(sums - 1.0).max())
        if worst > tol:
            raise ArithmeticError(f"kernel row sums deviate by {worst:.3e} > {tol:.1e}")
        low = float(self.matrix.min())
        if low < -tol:
            raise ArithmeticError(f"negative kernel entry {low:.3e}")

    def forward(self, start: PopulationState, steps: int):
        """Yield the rows e_start K^l for l = 1..steps, one vector-matrix
        product each; every yielded row is a new array."""
        v = np.zeros(self.space.size)
        v[self.space.ordinal(start)] = 1.0
        for _ in range(steps):
            v = v @ self.matrix
            yield v

    def backward(self, cols: np.ndarray, steps: int, mask=None, pin=None) -> np.ndarray:
        """The table ``out[l]`` = K^l cols for l = 0..steps, one matrix
        product per step; ``out[0]`` is ``cols``.

        ``mask`` (ordinals) zeroes those rows before every product but the
        first (first passage); ``pin`` (ordinals) resets those rows to their
        values in ``cols`` after every product (the stopped chain).
        """
        if mask is not None:
            keep = np.ones((len(cols),) + (1,) * (cols.ndim - 1))
            keep[list(mask)] = 0.0
        if pin is not None:
            pin = list(pin)
            frozen = cols[pin]
        out = np.empty((steps + 1,) + cols.shape)
        out[0] = cols
        for l in range(1, steps + 1):
            prev = keep * out[l - 1] if mask is not None and l > 1 else out[l - 1]
            out[l] = self.matrix @ prev
            if pin is not None:
                out[l, pin] = frozen
        return out


def _atom_shift_tables(model: BranchingModel, space: StateSpace):
    """Per type: the extinction probability p0 (0 if the law has no zero
    atom) and (probability, ordinal-shift array) per atom of positive total.

    ``shift[s]`` is the ordinal reached from ordinal s when one extra
    offspring vector is added; totals beyond the cap land on the overflow
    sentinel, and overflow maps to itself.  In graded-lex order the states
    that stay inside the cap come first: those with total <= cap - |atom|.
    The zero atom's shift would be the identity, so it gets none.
    """
    tables = []
    for law in model.laws:
        p0, moving = 0.0, []
        for state, p in law.atoms:
            if state.is_zero:
                p0 = p
                continue
            room = space.cap - state.total
            inside = math.comb(room + space.k, space.k) if room >= 0 else 0
            shift = np.full(space.size, space.overflow, dtype=np.int64)
            shift[:inside] = space.ordinals(space.counts[:inside] + state.counts)
            moving.append((p, shift))
        tables.append((p0, moving))
    return tables


def one_step_kernel(model: BranchingModel, space: StateSpace) -> TransitionKernel:
    """Single-generation kernel: each particle draws offspring independently.

    The row for a state is built from the row of its parent, the state with
    one particle removed, convolved with that particle's offspring law.  The
    particle is of the present type whose law has the fewest atoms of
    positive total (the first such type on a tie), picked for every state by
    one ``argmin`` over the count array.  The extinction atom leaves every
    state where it is, so its term is the parent row scaled by p0; each atom
    of positive total adds one ``bincount`` of the shifted parent row, in
    atom order.  Partial sums that leave the cap are routed to the overflow
    sentinel (exact, since counts only accumulate).  Parents come from one
    rank of the whole state array.
    """
    if model.k != space.k:
        raise ValueError(f"model has {model.k} types, space has {space.k}")
    size = space.size
    tables = _atom_shift_tables(model, space)
    counts = space.counts
    moving = np.array([len(atoms) for _, atoms in tables])
    # cheapest present type; 0 for the zero state, whose row is fixed below
    cheapest = np.argmin(np.where(counts > 0, moving, moving.max() + 1), axis=1)
    parents = counts.copy()
    parents[np.arange(len(counts)), cheapest] -= 1
    parent = space.ordinals(parents).tolist()
    matrix = np.zeros((size, size))
    matrix[0, 0] = 1.0  # extinction is absorbing
    matrix[space.overflow, space.overflow] = 1.0
    weights = np.empty(size)
    for ordinal, i in enumerate(cheapest[1:].tolist(), 1):
        base, row = matrix[parent[ordinal]], matrix[ordinal]
        p0, atoms = tables[i]
        np.multiply(base, p0, out=row)
        for p, shift in atoms:
            row += np.bincount(shift, weights=np.multiply(base, p, out=weights), minlength=size)
    return TransitionKernel(space=space, matrix=matrix)


def hitting_columns(
    kernel: TransitionKernel, targets: Sequence[PopulationState], t_max: int
) -> np.ndarray:
    """``out[t, s, j]`` = t-step probability from ordinal s to target j.

    Computed by backward column iteration; costs t_max matrix-vector
    products instead of full matrix powers.  ``out[0]`` is the indicator.
    """
    space = kernel.space
    cols = np.zeros((space.size, len(targets)))
    cols[list(map(space.ordinal, targets)), range(len(targets))] = 1.0
    return kernel.backward(cols, t_max)


# ---------------------------------------------------------------------------
# restricted (first-passage) probabilities


@dataclass(eq=False)
class RestrictedKernel:
    """First-passage probabilities into the stopping set.

    ``values[t-1, s, j]`` is the probability of being at target j after t
    steps from ordinal s while avoiding the whole stopping set at steps
    1..t-1.  Targets are the stopping members in graded-lex order.
    """

    stopping: StoppingSet
    targets: tuple[PopulationState, ...]
    target_ordinals: tuple[int, ...]
    t_max: int
    values: np.ndarray


def _stopping_ordinals(space: StateSpace, stopping: Iterable[PopulationState]) -> list[int]:
    ordinals = []
    for member in stopping:
        if member not in space:
            raise CapacityError(
                f"stopping state {member.label()} lies outside the capped space"
            )
        ordinals.append(space.ordinal(member))
    return ordinals


def restricted_kernel(
    kernel: TransitionKernel, stopping: StoppingSet, t_max: int
) -> RestrictedKernel:
    """Tabulate first-passage probabilities for t = 1..t_max.

    Recursion: the t-step value from s is the one-step kernel applied to
    the (t-1)-step values, with rows inside the stopping set masked out.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    space = kernel.space
    targets = tuple(stopping.sorted_members())
    ordinals = _stopping_ordinals(space, stopping)
    cols = np.zeros((space.size, len(targets)))
    cols[ordinals, range(len(targets))] = 1.0
    return RestrictedKernel(
        stopping=stopping,
        targets=targets,
        target_ordinals=tuple(ordinals),
        t_max=t_max,
        values=kernel.backward(cols, t_max, mask=ordinals)[1:],
    )


def restricted_via_inclusion_exclusion(
    kernel: TransitionKernel, stopping: StoppingSet, t_max: int
) -> np.ndarray:
    """Independent route to the first-passage table.

    Subtracts, from the free t-step hitting probability, every path that
    already visited the stopping set at an earlier step.  Shape matches
    ``RestrictedKernel.values``; used to cross-check the recursion route.
    """
    space = kernel.space
    targets = tuple(stopping.sorted_members())
    ordinals = _stopping_ordinals(space, stopping)
    free = hitting_columns(kernel, targets, t_max)  # free[l, s, j]
    values = np.empty((t_max, space.size, len(targets)))
    values[0] = free[1]
    for l in range(2, t_max + 1):
        # paths hitting some stopping state at an earlier step l-i, then
        # first-passing to the target in the remaining i steps
        acc = free[l].copy()
        for i in range(1, l):
            acc -= free[l - i] @ values[i - 1][ordinals, :]
        values[l - 1] = acc
    return values


# ---------------------------------------------------------------------------
# stop coefficients


@dataclass(eq=False)
class StopCoefficients:
    """Coefficients expanding absorption over free-chain hitting probabilities.

    The table is triangular with a shift symmetry, so only the first column
    c(t, 1) is stored: c(t, l) = c(t - l + 1, 1).  ``limits`` carries the
    large-t limits c_inf, truncated at the first-passage horizon.
    """

    states: tuple[PopulationState, ...]
    first_column: np.ndarray  # (n_alpha, n_r, t_max), [a, r, t-1] = c(t, 1)
    limits: np.ndarray  # (n_alpha, n_r)


def geometric_tail_bound(summary, counts: Sequence[int], after: int) -> float:
    """Bound on the total free-chain mass on nonzero states beyond step ``after``.

    Uses the positive vector f of the spectral summary and its factor
    ``delta_bar``, with A f <= delta_bar f for the computed f: P_n(Z_l != 0)
    <= E_n[Z_l . f] / min(f) = n A^l f / min(f) <= (n . f) delta_bar^l /
    min(f), and summing the geometric series over l > after bounds the
    probability of being anywhere nonzero (hence in any stopping state).
    Valid for subcritical models only; any other raises
    ``spectral.OutsideTheoremError``.
    """
    require_subcritical(summary, "geometric tail bound")
    delta = summary.delta_bar
    f = np.asarray(summary.f, dtype=float)
    weight = float(np.dot(np.asarray(counts, dtype=float), f)) / float(f.min())
    return weight * delta ** (after + 1) / (1.0 - delta)


def stop_coefficients(restricted: RestrictedKernel) -> StopCoefficients:
    """Tabulate stop coefficients and their limits from first-passage data.

    c(1,1) is the identity indicator; c(t,1) subtracts the first-passage
    probabilities up to step t-1; higher columns follow by the shift rule
    c(t, l) = c(t-l+1, 1).  (Expanding the partial absorption sum through
    the first-passage identity fixes the t-1 upper limit; one term fewer
    breaks the route equality already at t=2.)
    The limit subtracts the whole tabulated first-passage series; for a
    subcritical model its truncation is at most ``geometric_tail_bound`` of
    the stopping state beyond ``restricted.t_max``.
    """
    t_max = restricted.t_max
    states = restricted.targets
    m = len(states)
    ords = restricted.target_ordinals
    # ptab[a, r, u-1] = first-passage probability alpha -> r in u steps
    ptab = restricted.values[:, ords, :].transpose(1, 2, 0)
    ident = np.eye(m)

    first_column = np.empty((m, m, t_max))
    cum = np.concatenate(
        [np.zeros((m, m, 1)), np.cumsum(ptab, axis=2)], axis=2
    )  # cum[..., u] = sum of first u passage terms
    for t in range(1, t_max + 1):
        first_column[:, :, t - 1] = ident - cum[:, :, t - 1]

    return StopCoefficients(
        states=states,
        first_column=first_column,
        limits=ident - cum[:, :, t_max],
    )


# ---------------------------------------------------------------------------
# absorption probabilities


def check_starts(
    stopping: StoppingSet,
    starts: Iterable[PopulationState],
    r: PopulationState,
    cap: int,
):
    """Reject absorption requests before any state space is built.

    The cap-free checks of ``check_absorption_starts`` run first; then a
    start whose total exceeds ``cap`` raises ``CapacityError``, as does a
    stopping set reaching beyond the cap.
    """
    starts = list(starts)
    check_absorption_starts(stopping, starts, r)
    for n in starts:
        if n.total > cap:
            raise CapacityError(
                f"start {n.label()} has total {n.total} above the cap {cap}; raise the cap"
            )
    if stopping.max_total > cap:
        raise CapacityError(
            f"stopping set reaches total {stopping.max_total} above the cap {cap}"
        )


def stopped_hitting_column(
    kernel: TransitionKernel, stopping: StoppingSet, r: PopulationState, t_max: int
) -> np.ndarray:
    """``out[t, s]`` = stopped-chain probability of sitting at r after t steps.

    Equals the probability of having been absorbed at r by time t.  Avoids
    materializing the stopped matrix: applies the free kernel and pins the
    stopping rows each step.
    """
    space = kernel.space
    ordinals = _stopping_ordinals(space, stopping)
    col = np.zeros(space.size)
    col[space.ordinal(r)] = 1.0
    return kernel.backward(col, t_max, pin=ordinals)


def _formula_sum(c: np.ndarray, hits: np.ndarray, t: int) -> float:
    """sum over l <= t of c(t, l) . hits[l], with c[:, u] = c(u + 1, 1) for
    one target and hits[l] = P_n(Z_l = alpha) over the stopping states."""
    q = 0.0
    for l in range(1, t + 1):
        q += float(np.dot(c[:, t - l], hits[l]))  # c(t, l) = c(t - l + 1, 1)
    return q


@dataclass(eq=False)
class LimitingAbsorption:
    """Series value for the infinite-horizon absorption probability."""

    value: float
    tail_bound: float
    terms: int


def _horizon(summary, counts, tol: float) -> tuple[int, float]:
    """First step T, and its bound, with ``geometric_tail_bound(summary,
    counts, T - 1) < tol``: absorption after T needs Z_T != 0, whose
    probability that bound dominates.  The bound is b delta_bar^T, so T is
    read off its log and then confirmed by the same test at T - 1 and T."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = geometric_tail_bound(summary, counts, -1)
    guess = (math.log(tol) - math.log(scale)) / math.log(summary.delta_bar)
    t = min(max(math.floor(guess) + 1, 1), MAX_SERIES_TERMS + 1)
    while t > 1 and geometric_tail_bound(summary, counts, t - 2) < tol:
        t -= 1
    while t <= MAX_SERIES_TERMS:
        bound = geometric_tail_bound(summary, counts, t - 1)
        if bound < tol:
            return t, bound
        t += 1
    raise ArithmeticError(f"series did not meet tol={tol} in {MAX_SERIES_TERMS} terms")


def series_absorptions(
    model: BranchingModel,
    stopping: StoppingSet,
    summary,
    starts: Sequence[PopulationState],
    r: PopulationState,
    tol: float = 1e-10,
) -> list[LimitingAbsorption]:
    """Infinite-horizon absorption probabilities from ``starts``, cap-free.

    The pipeline behind ``stopbp series`` and the probe; it takes no cap,
    and its starts pass ``check_absorption_starts`` alone.  Every state of S
    has total <= r0 = ``stopping.max_total``, so only the laws P(Z_l = beta),
    beta in S, enter, and ``genfun.truncated_law_blocks`` gives them at
    degree r0, from every alpha in S and every start n, a block of steps at
    a time.  They are summed in step order, so that a block's length moves
    no digit, into the expected visits to S,
    B[alpha, beta] = sum_(l <= T*) P_alpha(Z_l = beta) and H_n[beta] =
    sum_(l <= T_n) P_n(Z_l = beta), with T_n the horizon of n at tol / 2
    and T* the largest.  Every visit is a first entrance followed by the
    visits from there, so H_n = g_n (I + B) up to the visits after T_n, and
    the first-entrance value at r is read off one |S| x |S| solve,
    g_n[r] = H_n (I + B)^-1 e_r.

    The reported ``tail_bound`` is b_n (1 + phi_r), with b_n the geometric
    tail bound of n at T_n and phi_r = max_alpha |(I + B)^-1[alpha, r]|:
    b_n covers the entrances after T_n, and b_n phi_r the visits after T_n
    that the solve takes for entrances.  Untruncated, (I + B)^-1 = I - G,
    with G the substochastic law of the first return to S, so phi_r <= 1
    and the bound stays below tol.  The value is clipped to [0, 1], where
    q lies, so rounding in the signed solve never reports a negative
    probability and the clip never adds to the error.  ``terms`` is T_n.
    """
    from stopbp import genfun  # genfun imports this module

    starts = list(starts)
    check_absorption_starts(stopping, starts, r)
    horizons = [_horizon(summary, n.counts, tol / 2) for n in starts]
    terms = np.array([t for t, _ in horizons], dtype=np.int64)
    steps = int(terms.max(initial=0))
    r0 = stopping.max_total
    monomials = math.comb(r0 + model.k, model.k)
    if monomials > STATE_LIMIT:
        raise CapacityError(
            f"stopping set reaches total r0={r0}: laws truncated at degree r0 in "
            f"k={model.k} types have C(r0 + k, k) = {monomials} monomials, above the "
            f"limit {STATE_LIMIT}"
        )
    space = enumerate_states(model.k, r0)
    members = stopping.sorted_members()
    cols = space.ordinals([a.counts for a in members])
    counts = np.array([a.counts for a in members] + [n.counts for n in starts])
    m = len(members)
    last = np.concatenate([np.full(m, steps), terms])  # the last step each row sums
    visits = np.zeros((len(counts), m))  # B, then H_n per start
    for l, laws in genfun.truncated_law_blocks(model, space, counts, steps):
        due = ((l + np.arange(len(laws)))[:, None] <= last)[..., None]
        visits = np.cumsum(np.concatenate([visits[None], due * laws[..., cols]]), axis=0)[-1]
    column = np.linalg.solve(np.eye(m) + visits[:m], np.eye(m)[:, members.index(r)])
    phi = float(np.abs(column).max())
    return [
        LimitingAbsorption(value=float(value), tail_bound=bound * (1.0 + phi), terms=t)
        for (t, bound), value in zip(horizons, np.clip(visits[m:] @ column, 0.0, 1.0))
    ]


# ---------------------------------------------------------------------------
# absorption tables and CSV export


@dataclass(eq=False)
class AbsorptionRow:
    n: PopulationState
    r: PopulationState
    t: Optional[int]  # None for limiting values
    method: str
    q: float
    overflow_bound: float


@dataclass(eq=False)
class AbsorptionTable:
    rows: list[AbsorptionRow] = field(default_factory=list)

    def add(self, n, r, t, method, q, overflow_bound=0.0):
        self.rows.append(AbsorptionRow(n, r, t, method, q, overflow_bound))

    def write_csv(self, fh):
        fh.write("n,r,t,method,q,overflow_bound\n")
        for row in self.rows:
            t_txt = "" if row.t is None else str(row.t)
            fh.write(
                f'"{row.n.label()}","{row.r.label()}",{t_txt},{row.method},'
                f"{row.q:.17g},{row.overflow_bound:.17g}\n"
            )


def absorption_table(
    kernel: TransitionKernel,
    stopping: StoppingSet,
    n_list: Iterable[PopulationState],
    r: PopulationState,
    t_list: Sequence[int],
) -> AbsorptionTable:
    """Tabulate q(n -> r, t) by all three routes from one forward block.

    Each step multiplies one block of 2n + m rows by the kernel, V <- V K:
    * the masked chain from each of the n starts: the stopping columns are
      zeroed before every product but the first, so row l holds the first
      passages at step l.  Their partial sums in column r are the restricted
      route, and also the direct one: the stopped chain from n agrees with
      this row outside S, and at r holds exactly these partial sums, so one
      array serves both;
    * the masked chain from each of the m stopping states alpha: its
      stopping columns are the first-passage table of the stop coefficients;
    * the free chain from each start n: its stopping columns are the hits of
      the formula route, and its overflow entry at t fills the overflow bound
      column, the free-chain mass that has left the capped space by time t
      (an upper bound on what truncation can cost any of the routes).
    """
    n_list = list(n_list)
    space = kernel.space
    check_starts(stopping, n_list, r, space.cap)
    t_max = max(t_list)
    members = stopping.sorted_members()
    stops = _stopping_ordinals(space, members)
    j = members.index(r)
    n, m = len(n_list), len(members)
    starts = [space.ordinal(x) for x in n_list]
    free = n + m  # rows: masked n | masked alpha | free n
    block = np.zeros((free + n, space.size))
    block[range(free + n), starts + stops + starts] = 1.0
    cols = np.array(stops + [space.overflow])
    in_s = cols[:m]
    seen = np.zeros((t_max + 1, free + n, m + 1))  # seen[l] = block[:, cols] after step l
    for l in range(1, t_max + 1):
        if l > 1:
            block[:free, in_s] = 0.0
        block = block @ kernel.matrix
        seen[l] = block[:, cols]
    absorbed = np.cumsum(seen[:, :n, j], axis=0)
    hits, overflow = seen[:, free:, :m], seen[:, free:, m]
    # c[alpha, u] = c(u + 1, 1) for target r: 1{alpha = r} minus first
    # passages alpha -> r in at most u steps
    c = np.eye(m)[:, j, None] - np.cumsum(seen[:t_max, n:free, j], axis=0).T
    table = AbsorptionTable()
    for i, x in enumerate(n_list):
        for t in t_list:
            bound, q = float(overflow[t, i]), float(absorbed[t, i])
            table.add(x, r, t, "direct", q, bound)
            table.add(x, r, t, "formula", _formula_sum(c, hits[:, i], t), bound)
            table.add(x, r, t, "restricted", q, bound)
    return table
