"""Exact dynamic programming for stopped branching processes.

Works on a capped state space: every population vector with total count up
to ``cap``, plus one absorbing overflow sentinel that collects probability
mass leaving the cap.  All absorption probabilities computed here are exact
for the truncated chain; the accumulated overflow mass is reported as the
truncation error bound against the uncapped model.

Three independent routes to the absorption probability q(n -> r, t) are
provided and cross-checked in the test suite:

* ``absorb_direct``       -- power of the stopped chain,
* ``absorb_via_formula``  -- stop-coefficient expansion over free-chain
                             hitting probabilities,
* ``absorb_via_restricted`` -- partial sums of first-passage (restricted)
                             transition probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from stopbp.model import BranchingModel, PopulationState, StoppingSet

KERNEL_TOL = 1e-12
DEFAULT_STATE_LIMIT = 1_000_000


class CapacityError(RuntimeError):
    """State space or stopping set does not fit the configured bounds."""


# ---------------------------------------------------------------------------
# state space


@dataclass(eq=False)
class StateSpace:
    """All population vectors with total <= cap, graded-lex ordered.

    Ordinal ``len(states)`` is the absorbing overflow sentinel.  The zero
    state always has ordinal 0.
    """

    k: int
    cap: int
    states: tuple[PopulationState, ...]
    index: dict[tuple[int, ...], int] = field(repr=False)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def overflow(self) -> int:
        return len(self.states)

    @property
    def size(self) -> int:
        """Number of ordinals including the overflow sentinel."""
        return len(self.states) + 1

    def ordinal(self, state: PopulationState) -> int:
        try:
            return self.index[state.counts]
        except KeyError:
            raise ValueError(f"state {state.label()} not in the capped space") from None

    def state(self, ordinal: int) -> PopulationState:
        return self.states[ordinal]

    def __contains__(self, state: PopulationState) -> bool:
        return state.counts in self.index

    def states_array(self) -> np.ndarray:
        """(n_states, k) integer array of count vectors."""
        return np.array([s.counts for s in self.states], dtype=np.int64)

    def totals(self) -> np.ndarray:
        """Total population per ordinal; -1 for the overflow sentinel."""
        out = np.fromiter((s.total for s in self.states), dtype=np.int64,
                          count=self.n_states)
        return np.concatenate([out, [-1]])


def _compositions(total: int, k: int):
    """All k-part compositions of ``total``, lexicographically ascending."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def enumerate_states(k: int, cap: int, limit: int = DEFAULT_STATE_LIMIT) -> StateSpace:
    """Enumerate every state with total <= cap in graded-lex order."""
    if k < 1:
        raise ValueError("need at least one type")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    count = math.comb(cap + k, k)
    if count > limit:
        raise CapacityError(
            f"{count} states for k={k}, cap={cap} exceeds the limit {limit}"
        )
    states = []
    for total in range(cap + 1):
        for counts in _compositions(total, k):
            states.append(PopulationState(counts))
    index = {s.counts: i for i, s in enumerate(states)}
    return StateSpace(k=k, cap=cap, states=tuple(states), index=index)


# ---------------------------------------------------------------------------
# transition kernels


@dataclass(eq=False)
class TransitionKernel:
    """Dense t-step transition matrix over a capped space.

    ``matrix[i, j]`` is the probability of moving from ordinal i to ordinal
    j in t steps; the last ordinal is the absorbing overflow sentinel.
    """

    space: StateSpace
    t: int
    matrix: np.ndarray

    @property
    def overflow_mass(self) -> np.ndarray:
        """Per-row probability of having left the capped space."""
        return self.matrix[:, self.space.overflow]

    def validate(self, tol: float = KERNEL_TOL):
        """Raise if any row is not a probability vector within ``tol``."""
        sums = self.matrix.sum(axis=1)
        worst = float(np.abs(sums - 1.0).max())
        if worst > tol:
            raise ArithmeticError(f"kernel row sums deviate by {worst:.3e} > {tol:.1e}")
        low = float(self.matrix.min())
        if low < -tol:
            raise ArithmeticError(f"negative kernel entry {low:.3e}")

    def row(self, state: PopulationState) -> np.ndarray:
        return self.matrix[self.space.ordinal(state)]


def _atom_shift_tables(model: BranchingModel, space: StateSpace):
    """Per type: (probabilities, ordinal-shift array per atom).

    ``shift[s]`` is the ordinal reached from ordinal s when one extra
    offspring vector is added; totals beyond the cap land on the overflow
    sentinel, and overflow maps to itself.
    """
    size = space.size
    overflow = space.overflow
    tables = []
    for law in model.laws:
        per_atom = []
        for state, p in law.atoms:
            shift = np.empty(size, dtype=np.int64)
            shift[overflow] = overflow
            for ordinal, src in enumerate(space.states):
                target = tuple(a + b for a, b in zip(src.counts, state.counts))
                if sum(target) <= space.cap:
                    shift[ordinal] = space.index[target]
                else:
                    shift[ordinal] = overflow
            per_atom.append((p, shift))
        tables.append(per_atom)
    return tables


def one_step_kernel(model: BranchingModel, space: StateSpace) -> TransitionKernel:
    """Single-generation kernel: each particle draws offspring independently.

    The row for a state is built from the row of the state with one particle
    removed, convolved with that particle's offspring law; partial sums that
    leave the cap are routed to the overflow sentinel (exact, since counts
    only accumulate).
    """
    if model.k != space.k:
        raise ValueError(f"model has {model.k} types, space has {space.k}")
    size = space.size
    tables = _atom_shift_tables(model, space)
    matrix = np.zeros((size, size))
    matrix[0, 0] = 1.0  # extinction is absorbing
    matrix[space.overflow, space.overflow] = 1.0
    for ordinal in range(1, space.n_states):
        counts = space.states[ordinal].counts
        i = next(idx for idx, c in enumerate(counts) if c > 0)
        parent = list(counts)
        parent[i] -= 1
        base = matrix[space.index[tuple(parent)]]
        row = np.zeros(size)
        for p, shift in tables[i]:
            row += np.bincount(shift, weights=base * p, minlength=size)
        matrix[ordinal] = row
    return TransitionKernel(space=space, t=1, matrix=matrix)


def compose(first: TransitionKernel, second: TransitionKernel) -> TransitionKernel:
    if first.space is not second.space:
        raise ValueError("kernels live on different state spaces")
    return TransitionKernel(
        space=first.space, t=first.t + second.t, matrix=first.matrix @ second.matrix
    )


def t_step_kernel(kernel: TransitionKernel, t: int) -> TransitionKernel:
    """t-fold composition of a kernel with itself."""
    if t < 1:
        raise ValueError("t must be >= 1")
    result = kernel
    for _ in range(t - 1):
        result = compose(result, kernel)
    return result


def stopped_kernel(kernel: TransitionKernel, stopping: StoppingSet) -> TransitionKernel:
    """Kernel of the stopped chain: stopping states become absorbing."""
    matrix = kernel.matrix.copy()
    for member in stopping:
        ordinal = kernel.space.ordinal(member)
        matrix[ordinal] = 0.0
        matrix[ordinal, ordinal] = 1.0
    return TransitionKernel(space=kernel.space, t=kernel.t, matrix=matrix)


def distribution_after(
    kernel: TransitionKernel, start: PopulationState, t: int
) -> np.ndarray:
    """Distribution over ordinals after t applications of the kernel."""
    v = np.zeros(kernel.space.size)
    v[kernel.space.ordinal(start)] = 1.0
    for _ in range(t):
        v = v @ kernel.matrix
    return v


def hitting_columns(
    kernel: TransitionKernel, targets: Sequence[PopulationState], t_max: int
) -> np.ndarray:
    """``out[t, s, j]`` = t-step probability from ordinal s to target j.

    Computed by backward column iteration; costs t_max matrix-vector
    products instead of full matrix powers.  ``out[0]`` is the indicator.
    """
    space = kernel.space
    cols = np.zeros((space.size, len(targets)))
    for j, target in enumerate(targets):
        cols[space.ordinal(target), j] = 1.0
    out = np.empty((t_max + 1, space.size, len(targets)))
    out[0] = cols
    for t in range(1, t_max + 1):
        cols = kernel.matrix @ cols
        out[t] = cols
    return out


# ---------------------------------------------------------------------------
# restricted (first-passage) probabilities


@dataclass(eq=False)
class RestrictedKernel:
    """First-passage probabilities into the stopping set.

    ``values[t-1, s, j]`` is the probability of being at target j after t
    steps from ordinal s while avoiding the whole stopping set at steps
    1..t-1.  Targets are the stopping members in graded-lex order.
    """

    space: StateSpace
    stopping: StoppingSet
    targets: tuple[PopulationState, ...]
    target_ordinals: tuple[int, ...]
    t_max: int
    values: np.ndarray

    def column_index(self, r: PopulationState) -> int:
        try:
            return self.targets.index(r)
        except ValueError:
            raise ValueError(f"{r.label()} is not a stopping state") from None

    def value(self, t: int, alpha: PopulationState, r: PopulationState) -> float:
        if not 1 <= t <= self.t_max:
            raise ValueError(f"t={t} outside tabulated range 1..{self.t_max}")
        return float(
            self.values[t - 1, self.space.ordinal(alpha), self.column_index(r)]
        )


def _stopping_ordinals(space: StateSpace, stopping: StoppingSet) -> list[int]:
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
    mask = np.ones(space.size)
    mask[ordinals] = 0.0
    values = np.empty((t_max, space.size, len(targets)))
    values[0] = kernel.matrix[:, ordinals]
    for t in range(1, t_max):
        values[t] = kernel.matrix @ (mask[:, None] * values[t - 1])
    return RestrictedKernel(
        space=space,
        stopping=stopping,
        targets=targets,
        target_ordinals=tuple(ordinals),
        t_max=t_max,
        values=values,
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
    large-t limits with a truncation bound per entry.
    """

    stopping: StoppingSet
    states: tuple[PopulationState, ...]
    t_max: int
    first_column: np.ndarray  # (n_alpha, n_r, t_max), [a, r, t-1] = c(t, 1)
    limits: np.ndarray  # (n_alpha, n_r)
    limit_bounds: np.ndarray  # (n_alpha, n_r)
    rigorous_bounds: bool

    def _pair(self, alpha: PopulationState, r: PopulationState) -> tuple[int, int]:
        try:
            return self.states.index(alpha), self.states.index(r)
        except ValueError:
            raise ValueError("both states must belong to the stopping set") from None

    def value(self, alpha: PopulationState, r: PopulationState, t: int, l: int) -> float:
        if not 1 <= l <= t:
            raise ValueError(f"need 1 <= l <= t, got l={l}, t={t}")
        if t - l + 1 > self.t_max:
            raise ValueError(f"t-l+1={t - l + 1} beyond tabulated {self.t_max}")
        a, b = self._pair(alpha, r)
        return float(self.first_column[a, b, t - l])

    def limit(self, alpha: PopulationState, r: PopulationState) -> float:
        a, b = self._pair(alpha, r)
        return float(self.limits[a, b])

    def limit_bound(self, alpha: PopulationState, r: PopulationState) -> float:
        a, b = self._pair(alpha, r)
        return float(self.limit_bounds[a, b])


def geometric_tail_bound(summary, counts: Sequence[int], after: int) -> float:
    """Bound on the total free-chain mass on nonzero states beyond step ``after``.

    Uses the positive eigenvector f of the mean matrix: the expected
    population after l steps started from n is at most (n . f) delta^l /
    min(f), and summing the geometric series over l > after bounds the
    probability of being anywhere nonzero (hence in any stopping state).
    Requires delta < 1.
    """
    delta = summary.delta
    if not delta < 1.0:
        raise ValueError(f"geometric tail bound needs a subcritical model, delta={delta}")
    f = np.asarray(summary.f, dtype=float)
    weight = float(np.dot(np.asarray(counts, dtype=float), f)) / float(f.min())
    return weight * delta ** (after + 1) / (1.0 - delta)


def stop_coefficients(
    restricted: RestrictedKernel,
    stopping: Optional[StoppingSet] = None,
    t_max: Optional[int] = None,
    summary=None,
) -> StopCoefficients:
    """Tabulate stop coefficients and their limits from first-passage data.

    c(1,1) is the identity indicator; c(t,1) subtracts the first-passage
    probabilities up to step t-1; higher columns follow by the shift rule
    c(t, l) = c(t-l+1, 1).  (Expanding the partial absorption sum through
    the first-passage identity fixes the t-1 upper limit; one term fewer
    breaks the route equality already at t=2.)
    The limit subtracts the whole first-passage series; its truncation
    bound is the geometric tail bound when a spectral ``summary`` is given
    (rigorous for subcritical models), otherwise an empirical geometric
    extrapolation of the tabulated values, flagged non-rigorous.
    """
    if stopping is None:
        stopping = restricted.stopping
    elif stopping is not restricted.stopping and set(stopping) != set(restricted.stopping):
        raise ValueError("stopping set does not match the restricted kernel")
    if t_max is None:
        t_max = restricted.t_max
    if t_max > restricted.t_max:
        raise ValueError(f"t_max={t_max} beyond tabulated {restricted.t_max}")
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

    series = cum[:, :, restricted.t_max]
    limits = ident - series
    bounds = np.empty((m, m))
    rigorous = summary is not None
    for a, alpha in enumerate(states):
        if rigorous:
            tail = geometric_tail_bound(summary, alpha.counts, restricted.t_max)
            bounds[a, :] = tail
        else:
            # empirical geometric extrapolation from the last tabulated terms
            window = ptab[a, :, -6:]
            last = window[:, -1]
            prev = window[:, -2] if window.shape[1] >= 2 else last
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(prev > 0, last / prev, 0.0)
            ratio = np.clip(ratio, 0.0, 0.999)
            bounds[a, :] = last * ratio / (1.0 - ratio)
    return StopCoefficients(
        stopping=stopping,
        states=states,
        t_max=t_max,
        first_column=first_column,
        limits=limits,
        limit_bounds=bounds,
        rigorous_bounds=rigorous,
    )


# ---------------------------------------------------------------------------
# absorption probabilities


def _check_start(
    space: StateSpace, stopping: StoppingSet, n: PopulationState, r: PopulationState
):
    if n.is_zero:
        raise ValueError("absorption is undefined from the zero state")
    if n in stopping:
        raise ValueError(f"start {n.label()} lies inside the stopping set")
    if r not in stopping:
        raise ValueError(f"target {r.label()} is not a stopping state")
    if n not in space:
        raise ValueError(f"start {n.label()} not in the capped space")


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
    r_ord = space.ordinal(r)
    col = np.zeros(space.size)
    col[r_ord] = 1.0
    frozen = np.zeros(len(ordinals))
    frozen[ordinals.index(r_ord)] = 1.0
    out = np.empty((t_max + 1, space.size))
    out[0] = col
    for t in range(1, t_max + 1):
        col = kernel.matrix @ col
        col[ordinals] = frozen
        out[t] = col
    return out


def absorb_direct(
    kernel: TransitionKernel,
    stopping: StoppingSet,
    n: PopulationState,
    r: PopulationState,
    t: int,
) -> float:
    """Absorption probability at r by time t, from the stopped chain."""
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_start(kernel.space, stopping, n, r)
    column = stopped_hitting_column(kernel, stopping, r, t)
    return float(column[t, kernel.space.ordinal(n)])


def absorb_via_restricted(
    restricted: RestrictedKernel, n: PopulationState, r: PopulationState, t: int
) -> float:
    """Absorption probability as the partial sum of first-passage terms."""
    _check_start(restricted.space, restricted.stopping, n, r)
    if t > restricted.t_max:
        raise ValueError(f"t={t} beyond tabulated {restricted.t_max}")
    s = restricted.space.ordinal(n)
    j = restricted.column_index(r)
    return float(restricted.values[:t, s, j].sum())


def absorb_via_formula(
    kernel: TransitionKernel,
    coefficients: StopCoefficients,
    n: PopulationState,
    r: PopulationState,
    t: int,
) -> float:
    """Absorption probability from the stop-coefficient expansion.

    Sums, over stopping states alpha and steps l <= t, the coefficient
    c(t, l) times the free-chain probability of being at alpha after l
    steps from n.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > coefficients.t_max:
        raise ValueError(f"t={t} beyond coefficient table {coefficients.t_max}")
    space = kernel.space
    _check_start(space, coefficients.stopping, n, r)
    states = coefficients.states
    ordinals = [space.ordinal(a) for a in states]
    r_idx = states.index(r)
    v = np.zeros(space.size)
    v[space.ordinal(n)] = 1.0
    total = 0.0
    for l in range(1, t + 1):
        v = v @ kernel.matrix
        # c(t, l) = first_column[..., t - l]
        total += float(np.dot(coefficients.first_column[:, r_idx, t - l], v[ordinals]))
    return total


@dataclass(eq=False)
class LimitingAbsorption:
    """Series value for the infinite-horizon absorption probability."""

    value: float
    tail_bound: float
    overflow_mass: float
    terms: int


def _series_length(summary, counts, cmax: float, tol: float, max_terms: int):
    """Terms l and tail bound of the series from ``counts``: the first l
    whose geometric tail bound, scaled by ``cmax``, drops below ``tol``."""
    l = 0
    while True:
        l += 1
        if l > max_terms:
            raise ArithmeticError(f"series did not meet tol={tol} in {max_terms} terms")
        tail = cmax * geometric_tail_bound(summary, counts, l)
        if tail < tol:
            return l, tail


def limiting_absorptions(
    kernel: TransitionKernel,
    restricted: RestrictedKernel,
    summary,
    starts: Sequence[PopulationState],
    r: PopulationState,
    tol: float = 1e-10,
    coefficients: Optional[StopCoefficients] = None,
    max_terms: int = 100_000,
) -> list[LimitingAbsorption]:
    """Infinite-horizon absorption probabilities from many starts.

    q(n -> r) = sum_l (e_n K^l) c, where c holds the limit stop
    coefficients at the stopping ordinals.  Each start n keeps its own
    truncation: l_n terms, the first l whose geometric tail bound (from the
    spectral summary's Perron root) drops below ``tol``.  Refuses
    non-subcritical models, for which the tail bound is invalid.  Each
    reported bound adds the stop-coefficient truncation error over the
    whole series; the overflow mass the free chain accumulates within l_n
    steps is reported separately.

    One start runs forward: a row e_n K^l, one matvec per term, with the
    overflow read off the row.  Several starts share one backward pass over
    two columns, K^l c and K^l e_overflow, one matvec per column per term up
    to the largest l_n; each start reads its partial sum and overflow mass
    at its own l_n, so values differ from per-start forward sums only by
    rounding.
    """
    if not summary.delta < 1.0:
        raise ValueError(
            f"series requires a subcritical model (delta={summary.delta:.6g} >= 1)"
        )
    if tol <= 0:
        raise ValueError("tol must be positive")
    space = kernel.space
    starts = list(starts)
    for n in starts:
        _check_start(space, restricted.stopping, n, r)
    if coefficients is None:
        coefficients = stop_coefficients(restricted, summary=summary)
    states = coefficients.states
    ordinals = [space.ordinal(a) for a in states]
    r_idx = states.index(r)
    climits = coefficients.limits[:, r_idx]
    cbound = float(coefficients.limit_bounds[:, r_idx].max())
    cmax = max(float(np.abs(climits).max()), 1e-300)
    lengths = [_series_length(summary, n.counts, cmax, tol, max_terms) for n in starts]
    rows = [space.ordinal(n) for n in starts]
    matrix = kernel.matrix

    if len(starts) == 1:
        v = np.zeros(space.size)
        v[rows[0]] = 1.0
        total = 0.0
        for _ in range(lengths[0][0]):
            v = v @ matrix
            total += float(np.dot(climits, v[ordinals]))
        values, overflow = [total], [float(v[space.overflow])]
    else:
        rows = np.array(rows)
        terms = np.array([l for l, _ in lengths])
        col = np.zeros(space.size)
        col[ordinals] = climits
        ov = np.zeros(space.size)
        ov[space.overflow] = 1.0
        sums = np.zeros(len(rows))
        values, overflow = np.empty(len(rows)), np.empty(len(rows))
        for l in range(1, int(terms.max(initial=0)) + 1):
            col = matrix @ col
            ov = matrix @ ov
            sums += col[rows]
            due = terms == l
            values[due] = sums[due]
            overflow[due] = ov[rows[due]]
    return [
        LimitingAbsorption(
            value=float(value),
            # stop-coefficient truncation over the whole series
            tail_bound=tail + cbound * geometric_tail_bound(summary, n.counts, 0),
            overflow_mass=float(mass),
            terms=l,
        )
        for n, (l, tail), value, mass in zip(starts, lengths, values, overflow)
    ]


def limiting_absorption(
    kernel: TransitionKernel,
    restricted: RestrictedKernel,
    summary,
    n: PopulationState,
    r: PopulationState,
    tol: float = 1e-10,
    coefficients: Optional[StopCoefficients] = None,
    max_terms: int = 100_000,
) -> LimitingAbsorption:
    """Infinite-horizon absorption probability from one start (forward row);
    see ``limiting_absorptions``."""
    return limiting_absorptions(
        kernel, restricted, summary, [n], r, tol, coefficients, max_terms
    )[0]


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
    methods: Sequence[str] = ("direct", "formula", "restricted"),
) -> AbsorptionTable:
    """Tabulate q(n -> r, t) by the requested routes, sharing the heavy work.

    The overflow bound column carries the free-chain mass that has left the
    capped space by time t (an upper bound on what truncation can cost any
    of the routes).
    """
    t_max = max(t_list)
    restricted = restricted_kernel(kernel, stopping, t_max)
    coeffs = stop_coefficients(restricted)
    direct = stopped_hitting_column(kernel, stopping, r, t_max)
    space = kernel.space
    r_idx = restricted.column_index(r)
    free = hitting_columns(kernel, coeffs.states, t_max)
    # overflow mass per (t, s): backward column on the sentinel
    ov = np.zeros((t_max + 1, space.size))
    col = np.zeros(space.size)
    col[space.overflow] = 1.0
    ov[0] = col
    for t in range(1, t_max + 1):
        col = kernel.matrix @ col
        ov[t] = col
    table = AbsorptionTable()
    for n in n_list:
        _check_start(space, stopping, n, r)
        s = space.ordinal(n)
        for t in t_list:
            bound = float(ov[t, s])
            if "direct" in methods:
                table.add(n, r, t, "direct", float(direct[t, s]), bound)
            if "formula" in methods:
                q = sum(
                    float(np.dot(coeffs.first_column[:, r_idx, t - l], free[l, s, :]))
                    for l in range(1, t + 1)
                )
                table.add(n, r, t, "formula", q, bound)
            if "restricted" in methods:
                table.add(n, r, t, "restricted",
                          float(restricted.values[:t, s, r_idx].sum()), bound)
    return table
