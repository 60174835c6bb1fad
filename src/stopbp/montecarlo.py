"""Trajectory simulation and unbiased estimators for stopped branching processes.

Estimators draw every particle's offspring through a counter-based stream:
the uniform for draw number c of trajectory i under master seed s is a pure
function mix(key(s, i) + gamma * c).  Trajectories therefore produce
identical outcomes no matter how they are batched or spread over workers,
and estimates are bit-exact reproducible from (seed, reps) alone.

One batched engine, ``_simulate_stopped_batch``, runs every trajectory; the
conditional-law estimator runs it with an empty stopping set (the free
process).  ``workers`` splits the trajectory indices into that many
contiguous ranges, each simulated on its own thread.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt
from typing import Callable, Iterable

import numpy as np

from stopbp.model import (
    BranchingModel,
    PopulationState,
    StoppingSet,
    check_absorption_starts,
    unit_state,
)

EXPLOSION_LIMIT = 10**7

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; bijective scrambling of 64-bit words."""
    x = (x ^ (x >> _U64(30))) * _M1
    x = (x ^ (x >> _U64(27))) * _M2
    return x ^ (x >> _U64(31))


def trajectory_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """Per-trajectory stream keys derived from the master seed."""
    base = _mix(np.array([_U64(seed & 0xFFFFFFFFFFFFFFFF)]))[0]
    return _mix(base + _GAMMA * indices.astype(np.uint64))


def _uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniform(0,1) draws for (stream key, draw counter) pairs."""
    bits = _mix(keys + _GAMMA * counters)
    return (bits >> _U64(11)).astype(np.float64) * (2.0**-53)


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
        """Atom indices for uniforms in [0, 1)."""
        x = u * len(self.accept)
        idx = x.astype(np.int64)
        frac = x - idx
        return np.where(frac < self.accept[idx], idx, self.alias[idx])


@lru_cache(maxsize=32)
def _samplers(model: BranchingModel) -> tuple[AliasSampler, ...]:
    return tuple(AliasSampler.from_law(law) for law in model.laws)


# ---------------------------------------------------------------------------
# batched engine


def _batch_step(
    states: np.ndarray,
    keys: np.ndarray,
    counters: np.ndarray,
    samplers: tuple[AliasSampler, ...],
) -> np.ndarray:
    """Advance every trajectory one generation, consuming counter draws."""
    m, k = states.shape
    out = np.zeros_like(states)
    for i, sampler in enumerate(samplers):
        c = states[:, i]
        tot = int(c.sum())
        if tot == 0:
            continue
        pos = np.repeat(np.arange(m), c)
        starts = np.repeat(np.cumsum(c) - c, c)
        local = (np.arange(tot) - starts).astype(np.uint64)
        u = _uniforms(keys[pos], counters[pos] + local)
        drawn = sampler.atoms[sampler.pick(u)]  # (tot, k)
        for j in range(k):
            out[:, j] += np.bincount(pos, weights=drawn[:, j], minlength=m).astype(
                np.int64
            )
        counters += c.astype(np.uint64)
    return out


def _stop_mask(states: np.ndarray, stopping: Iterable[PopulationState]) -> np.ndarray:
    mask = np.zeros(states.shape[0], dtype=bool)
    for member in stopping:
        mask |= np.all(states == np.asarray(member.counts), axis=1)
    return mask


def _simulate_stopped_batch(
    model: BranchingModel,
    start: PopulationState,
    stopping: Iterable[PopulationState],
    t_max: int,
    seed: int,
    indices: np.ndarray,
):
    """Outcome arrays (status code, final state rows, steps) for given trajectories.

    Status codes: 0 alive, 1 died, 2 stopped, 3 exploded (total above
    ``EXPLOSION_LIMIT``).  An empty ``stopping`` runs the free process.
    """
    samplers = _samplers(model)
    m = len(indices)
    status = np.zeros(m, dtype=np.int8)
    steps = np.full(m, t_max, dtype=np.int64)
    final = np.tile(np.asarray(start.counts, dtype=np.int64), (m, 1))
    # live arrays carry only still-running trajectories
    active = np.arange(m)
    states = final.copy()
    keys = trajectory_keys(seed, indices)
    counters = np.zeros(m, dtype=np.uint64)
    for t in range(1, t_max + 1):
        if active.size == 0:
            break
        states = _batch_step(states, keys, counters, samplers)
        totals = states.sum(axis=1)
        died = totals == 0
        stopped = _stop_mask(states, stopping)
        exploded = totals > EXPLOSION_LIMIT
        done = died | stopped | exploded
        if np.any(done):
            rows = active[done]
            status[rows] = np.where(
                died[done], 1, np.where(stopped[done], 2, 3)
            ).astype(np.int8)
            steps[rows] = t
            final[rows] = states.compress(done, axis=0)
        # compress/take pick rows several times faster than boolean indexing
        keep = np.flatnonzero(~done)
        active, keys, counters = active[keep], keys[keep], counters[keep]
        states = states.take(keep, axis=0)
    final[active] = states
    return status, final, steps


@dataclass(eq=False)
class Estimate:
    value: float
    stderr: float
    reps: int
    seed: int
    hits: int = 0

    def within(self, exact: float, sigmas: float = 4.0) -> bool:
        return abs(self.value - exact) <= sigmas * self.stderr


def _map_workers(fn: Callable[[np.ndarray], object], reps: int, workers: int) -> list:
    """``fn`` on each of ``workers`` contiguous ranges of indices 0..reps-1,
    in range order: one range runs in the calling thread, several in a pool."""
    bounds = np.linspace(0, reps, max(1, workers) + 1, dtype=np.int64)
    ranges = [np.arange(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if len(ranges) == 1:
        return [fn(ranges[0])]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return list(pool.map(fn, ranges))


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
    how trajectory indices are partitioned, never their outcomes.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    check_absorption_starts(stopping, [n], r)
    target = np.asarray(r.counts, dtype=np.int64)

    def count_hits(indices: np.ndarray) -> int:
        status, final, steps = _simulate_stopped_batch(
            model, n, stopping, t, seed, indices
        )
        hit = (status == 2) & np.all(final == target, axis=1) & (steps <= t)
        return int(hit.sum())

    hits = sum(_map_workers(count_hits, reps, workers))
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
        """Total-variation distance to an exact conditional law.

        ``exact`` is either a mapping from count tuples to probabilities or
        an object with ``space``/``p``/``deficit`` attributes (a DP-based
        conditional law); unseen exact mass counts fully.
        """
        if hasattr(exact, "space"):
            mapping = {
                exact.space.state(i).counts: float(exact.p[i])
                for i in np.nonzero(exact.p)[0]
            }
            extra = float(getattr(exact, "deficit", 0.0))
        else:
            mapping = dict(exact)
            extra = 0.0
        mine = self.distribution()
        keys = set(mapping) | set(mine)
        tv = sum(abs(mine.get(k, 0.0) - mapping.get(k, 0.0)) for k in keys) + extra
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
        status, final, _ = _simulate_stopped_batch(model, start, (), t, seed, indices)
        if np.any(status == 3):
            raise ValueError(
                f"a trajectory exceeded {EXPLOSION_LIMIT} particles by t={t}; "
                "the conditional law needs a subcritical model"
            )
        return final[status == 0]

    alive = np.concatenate(_map_workers(run, reps, workers))
    uniq, cnt = np.unique(alive, axis=0, return_counts=True)
    counts = {tuple(int(x) for x in row): int(c) for row, c in zip(uniq, cnt)}
    return YaglomEstimate(
        source_type=j, t=t, reps=reps, seed=seed, survivors=len(alive), counts=counts
    )
