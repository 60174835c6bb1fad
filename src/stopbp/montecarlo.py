"""Trajectory simulation and unbiased estimators for stopped branching processes.

Estimators draw every particle's offspring through a counter-based stream:
the uniform for draw number c of trajectory i under master seed s is a pure
function mix(key(s, i) + gamma * c).  Trajectories therefore produce
identical outcomes no matter how they are batched or spread over workers,
and estimates are bit-exact reproducible from (seed, reps) alone.

One batched engine, ``_simulate_stopped_batch``, runs every trajectory; the
conditional-law estimator runs it with an empty stopping set (the free
process).  It carries only the running trajectories, their states, stream
words and indices, and returns records (``Outcomes``): when a
trajectory enters S or explodes, its (index, step, state); when it is still
alive at the horizon, its (index, state); when it dies, nothing.
``estimate_absorption`` counts the stopped records at r, and
``estimate_yaglom`` tallies the alive states and refuses any explosion.
Estimators run the trajectory indices as consecutive chunks of at
most ``PARTICLE_BUDGET`` starting particles, on up to ``workers`` threads (no
more than the usable CPUs), so the memory of a request does not grow with
``reps``.

The engine is type-major: live states form a (k, m) array, one contiguous
row per type, so totals and stopping tests are k row operations.  Running
trajectory p carries one word, w_p = key_p + gamma * (its draws so far) mod
2**64.  In a step, type i's particles lie trajectory by trajectory: p's c_p
particles follow the s_p of the trajectories before it, and its particle at
position q draws (w_p - gamma * s_p) + gamma * q, one repeat of a word per
trajectory plus gamma * q; then w_p += gamma * c_p.  Offspring counts are
differences of cumulative sums at s_p + c_p and s_p.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt
from typing import Callable, Iterable, NamedTuple

import numpy as np

from stopbp.model import (
    BranchingModel,
    PopulationState,
    StoppingSet,
    check_absorption_starts,
    unit_state,
)

EXPLOSION_LIMIT = 10**7
# starting particles per chunk of trajectories; bounds a request's arrays
PARTICLE_BUDGET = 2**17

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place; bijective scrambling of 64-bit words."""
    x ^= x >> _U64(30)
    x *= _M1
    x ^= x >> _U64(27)
    x *= _M2
    x ^= x >> _U64(31)
    return x


def trajectory_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """Per-trajectory stream keys derived from the master seed."""
    base = _mix(np.array([_U64(seed & 0xFFFFFFFFFFFFFFFF)]))[0]
    return _mix(base + _GAMMA * indices.astype(np.uint64))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniform(0,1) draws for stream words key + gamma * counter; overwrites
    ``words``."""
    bits = _mix(words)
    bits >>= _U64(11)
    u = bits.astype(np.float64)
    u *= 2.0**-53
    return u


# ---------------------------------------------------------------------------
# offspring samplers


@dataclass(eq=False)
class AliasSampler:
    """Walker alias table; one uniform per draw."""

    accept: np.ndarray
    alias: np.ndarray
    atoms: np.ndarray  # (n_atoms, k) offspring count vectors

    @classmethod
    def from_law(cls, law) -> "AliasSampler":
        probs = np.array([p for _, p in law.atoms])
        atoms = np.array([s.counts for s, _ in law.atoms], dtype=np.int64)
        n = len(probs)
        scaled = probs * n
        accept = np.ones(n)
        alias = np.arange(n)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s, l = small.pop(), large.pop()
            accept[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        return cls(accept=accept, alias=alias, atoms=atoms)

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Atom indices for uniforms in [0, 1); overwrites ``u``."""
        u *= len(self.accept)
        idx = u.astype(np.int64)
        u -= idx  # fractional part
        np.putmask(idx, u >= self.accept[idx], self.alias[idx])
        return idx


@lru_cache(maxsize=32)
def _samplers(model: BranchingModel) -> tuple[AliasSampler, ...]:
    return tuple(AliasSampler.from_law(law) for law in model.laws)


# ---------------------------------------------------------------------------
# batched engine


def _batch_step(states: np.ndarray, words: np.ndarray,
                samplers: tuple[AliasSampler, ...]) -> np.ndarray:
    """Advance the type-major (k, m) ``states`` one generation, and each
    stream word in ``words`` in place; see the module docstring."""
    out = np.zeros_like(states)
    for i, sampler in enumerate(samplers):
        c = states[i]
        ends = np.cumsum(c)
        tot = int(ends[-1])
        if tot == 0:
            continue
        starts = ends - c
        draws = np.arange(tot, dtype=np.uint64)
        draws *= _GAMMA
        draws += np.repeat(words - _GAMMA * starts.astype(np.uint64), c)
        u = _uniforms(draws)
        del draws
        picks = sampler.pick(u)
        del u
        for j, column in enumerate(sampler.atoms.T):
            if column.any():  # offspring counts of type j as segment sums
                cs = np.zeros(tot + 1, dtype=np.int64)
                np.cumsum(column.take(picks), out=cs[1:])
                out[j] += cs.take(ends)
                out[j] -= cs.take(starts)
        words += _GAMMA * c.astype(np.uint64)
    return out


def _stop_mask(states: np.ndarray, stopping: Iterable[PopulationState]) -> np.ndarray:
    """Columns of the type-major ``states`` that equal a member of ``stopping``."""
    mask = np.zeros(states.shape[1], dtype=bool)
    for member in stopping:
        hit = states[0] == member.counts[0]
        for row, c in zip(states[1:], member.counts[1:]):
            hit &= row == c
        mask |= hit
    return mask


class Outcomes(NamedTuple):
    """Records of one batch's trajectories that did not die by ``t_max``.

    ``stopped`` and ``exploded`` are (index, step, states) for the
    trajectories that entered S or exceeded ``EXPLOSION_LIMIT`` particles,
    ``alive`` is (index, states) for those still running at ``t_max``; states
    are (n, k) rows.  A trajectory that died leaves no record.
    """

    stopped: tuple[np.ndarray, np.ndarray, np.ndarray]
    exploded: tuple[np.ndarray, np.ndarray, np.ndarray]
    alive: tuple[np.ndarray, np.ndarray]


def _record(records: list, rows: np.ndarray, t: int, index: np.ndarray, states: np.ndarray):
    records.append((index.take(rows), np.full(rows.size, t), states.take(rows, axis=1)))


def _joined(records: list, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not records:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, k), np.int64)
    index, steps, states = zip(*records)
    return np.concatenate(index), np.concatenate(steps), np.concatenate(states, axis=1).T


def _simulate_stopped_batch(
    model: BranchingModel,
    start: PopulationState,
    stopping: Iterable[PopulationState],
    t_max: int,
    seed: int,
    indices: np.ndarray,
) -> Outcomes:
    """Run the trajectories ``indices`` from ``start`` for up to ``t_max`` steps.

    A trajectory ends at the first step whose state has total 0 (died, no
    record), equals a member of ``stopping`` (a ``stopped`` record) or has a
    total above ``EXPLOSION_LIMIT`` (an ``exploded`` record), tested in that
    order; one still running at ``t_max`` leaves an ``alive`` record.  The
    loop carries only the running trajectories' states, stream words and
    indices.  An empty ``stopping`` runs the free process.
    """
    samplers = _samplers(model)
    stopping = tuple(stopping)
    index = np.asarray(indices, dtype=np.int64)
    words = trajectory_keys(seed, index)
    states = np.repeat(np.asarray(start.counts, dtype=np.int64)[:, None], len(index), axis=1)
    stopped, exploded = [], []
    for t in range(1, t_max + 1):
        if index.size == 0:
            break
        states = _batch_step(states, words, samplers)
        totals = states.sum(axis=0)
        done = totals == 0
        if stopping:
            hit = _stop_mask(states, stopping)
            if hit.any():
                _record(stopped, np.flatnonzero(hit), t, index, states)
                done |= hit
        big = totals > EXPLOSION_LIMIT
        if big.any():
            big &= ~done
            _record(exploded, np.flatnonzero(big), t, index, states)
            done |= big
        if not done.any():
            continue
        # take picks columns several times faster than fancy indexing
        keep = np.flatnonzero(~done)
        index, words = index.take(keep), words.take(keep)
        states = states.take(keep, axis=1)
    return Outcomes(_joined(stopped, model.k), _joined(exploded, model.k), (index, states.T))


@dataclass(eq=False)
class Estimate:
    value: float
    stderr: float
    reps: int
    seed: int
    hits: int = 0

    def within(self, exact: float, sigmas: float = 4.0) -> bool:
        return abs(self.value - exact) <= sigmas * self.stderr


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(
    fn: Callable[[np.ndarray], object], reps: int, start: PopulationState, workers: int
) -> list:
    """``fn`` on consecutive chunks of indices 0..reps-1, in chunk order.

    Chunks start at most ``PARTICLE_BUDGET`` particles each, differ in length
    by at most one, and come in a multiple of the thread count,
    min(workers, usable CPUs, reps), so threads get equal shares; one thread
    runs them in the calling thread, several in a pool."""
    threads = max(1, min(workers, _usable_cpus(), reps))
    per = max(1, PARTICLE_BUDGET // start.total)
    count = threads * -(-reps // (per * threads))
    bounds = np.linspace(0, reps, count + 1, dtype=np.int64)
    chunks = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if threads == 1:
        return [fn(np.arange(a, b)) for a, b in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda ab: fn(np.arange(*ab)), chunks))


def estimate_absorption(
    n: PopulationState,
    r: PopulationState,
    stopping: StoppingSet,
    model: BranchingModel,
    t: int,
    reps: int,
    seed: int,
    workers: int = 1,
) -> Estimate:
    """Fraction of trajectories absorbed at r within t steps.

    Bit-exact reproducible from (seed, reps); the worker count only changes
    how many threads run the chunks, never an outcome.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    check_absorption_starts(stopping, [n], r)

    def count_hits(indices: np.ndarray) -> int:
        _, _, states = _simulate_stopped_batch(model, n, stopping, t, seed, indices).stopped
        return int(np.count_nonzero(_stop_mask(states.T, [r])))

    hits = sum(_map_chunks(count_hits, reps, n, workers))
    p = hits / reps
    return Estimate(
        value=p, stderr=sqrt(p * (1.0 - p) / reps), reps=reps, seed=seed, hits=hits
    )


@dataclass(eq=False)
class YaglomEstimate:
    """Empirical law of the population at a horizon, conditioned on survival."""

    source_type: int
    t: int
    reps: int
    seed: int
    survivors: int
    counts: dict[tuple[int, ...], int] = field(default_factory=dict)

    @property
    def conditioning_frequency(self) -> float:
        return self.survivors / self.reps

    @property
    def conditioning_stderr(self) -> float:
        p = self.conditioning_frequency
        return sqrt(p * (1.0 - p) / self.reps)

    def distribution(self) -> dict[tuple[int, ...], float]:
        if self.survivors == 0:
            return {}
        return {k: v / self.survivors for k, v in self.counts.items()}

    def tv_distance(self, exact) -> float:
        """Total-variation distance to an exact conditional law
        (``genfun.YaglomData``); its deficit and unseen exact mass count fully."""
        mapping = {
            exact.space.state(i).counts: float(exact.p[i]) for i in np.nonzero(exact.p)[0]
        }
        mine = self.distribution()
        keys = set(mapping) | set(mine)
        tv = sum(abs(mine.get(k, 0.0) - mapping.get(k, 0.0)) for k in keys) + exact.deficit
        return 0.5 * tv


def estimate_yaglom(
    j: int,
    model: BranchingModel,
    t: int,
    reps: int,
    seed: int,
    workers: int = 1,
) -> YaglomEstimate:
    """Empirical conditional law at horizon t from one type-j particle."""
    if not 1 <= j <= model.k:
        raise ValueError(f"type index {j} out of range 1..{model.k}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    start = unit_state(j, model.k)

    def run(indices: np.ndarray):
        outcomes = _simulate_stopped_batch(model, start, (), t, seed, indices)
        if outcomes.exploded[0].size:
            raise ValueError(
                f"a trajectory exceeded {EXPLOSION_LIMIT} particles by t={t}; "
                "the conditional law needs a subcritical model"
            )
        return np.unique(outcomes.alive[1], axis=0, return_counts=True)

    counts: dict[tuple[int, ...], int] = {}
    for uniq, cnt in _map_chunks(run, reps, start, workers):
        for row, c in zip(uniq, cnt):
            key = tuple(int(x) for x in row)
            counts[key] = counts.get(key, 0) + int(c)
    counts = dict(sorted(counts.items()))
    return YaglomEstimate(
        source_type=j, t=t, reps=reps, seed=seed,
        survivors=sum(counts.values()), counts=counts,
    )
