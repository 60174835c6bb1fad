"""Brute-force oracles, independent of the engine under test.

Everything here works on plain dictionaries and lists over count tuples.
The distribution oracles enumerate particle-by-particle offspring
combinations; they are exponential in population size and horizon, so only
usable for tiny cases, which is the point: these values come from a
completely different computation path than the kernels.  The state-space
oracles enumerate states by recursion and build the dense kernel state by
state with dictionary lookups: the reference the engine's array-ranked
kernel must match bit for bit.

One oracle is the exception: ``limiting_absorptions``, the dense reference
for the cap-free series, runs on the engine's kernel and its backward
propagation, as the stopped-chain pass at each start's horizon.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import product

import numpy as np


def law_atoms(model, type_index):
    """(counts tuple, probability) pairs for a 0-based type index."""
    return [(state.counts, p) for state, p in model.laws[type_index].atoms]


def offspring_by_product(model, counts):
    """One-step distribution by full product enumeration over particles.

    Exponential in the population; only for anchoring the convolution
    oracle on states with a handful of particles.
    """
    particles = []
    for i, c in enumerate(counts):
        particles.extend([i] * c)
    if not particles:
        return {tuple(counts): 1.0}
    dist = defaultdict(float)
    for combo in product(*[law_atoms(model, i) for i in particles]):
        total = [0] * len(counts)
        p = 1.0
        for child, cp in combo:
            p *= cp
            for j, c in enumerate(child):
                total[j] += c
        dist[tuple(total)] += p
    return dict(dist)


_STEP_MEMO = {}


def offspring_of_state(model, counts):
    """Exact one-step distribution from a single state.

    Convolves per-particle offspring laws one particle at a time, as plain
    dictionaries over count tuples (no cap, no ordinals, no arrays).
    """
    counts = tuple(counts)
    key = (model, counts)
    if key in _STEP_MEMO:
        return _STEP_MEMO[key]
    dist = {(0,) * len(counts): 1.0}
    for i, c in enumerate(counts):
        atoms = law_atoms(model, i)
        for _ in range(c):
            new = defaultdict(float)
            for partial, p in dist.items():
                for child, cp in atoms:
                    total = tuple(a + b for a, b in zip(partial, child))
                    new[total] += p * cp
            dist = dict(new)
    _STEP_MEMO[key] = dist
    return dist


def free_distribution(model, start_counts, t):
    """Exact t-step distribution of the free process (no cap, no stopping)."""
    dist = {tuple(start_counts): 1.0}
    for _ in range(t):
        new = defaultdict(float)
        for counts, p in dist.items():
            for child, cp in offspring_of_state(model, counts).items():
                new[child] += p * cp
        dist = dict(new)
    return dist


def stopped_distribution(model, start_counts, stopping_counts, t):
    """Exact t-step distribution of the stopped process.

    ``stopping_counts`` is a set of count tuples.  States inside it (and the
    zero state) freeze.
    """
    stop = set(stopping_counts)
    dist = {tuple(start_counts): 1.0}
    for _ in range(t):
        new = defaultdict(float)
        for counts, p in dist.items():
            if counts in stop or sum(counts) == 0:
                new[counts] += p
                continue
            for child, cp in offspring_of_state(model, counts).items():
                new[child] += p * cp
        dist = dict(new)
    return dict(dist)


def first_passage_probability(model, start_counts, stopping_counts, target_counts, t):
    """P(first entry into the stopping set happens at ``target`` at step t)."""
    stop = set(stopping_counts)
    target = tuple(target_counts)
    dist = {tuple(start_counts): 1.0}
    for step in range(1, t + 1):
        new = defaultdict(float)
        for counts, p in dist.items():
            for child, cp in offspring_of_state(model, counts).items():
                new[child] += p * cp
        if step == t:
            return new.get(target, 0.0)
        dist = {c: p for c, p in new.items() if c not in stop}
    raise AssertionError("unreachable")


def graded_lex_states(k, cap):
    """Every count tuple with total <= cap, by total and then
    lexicographically, built by plain recursion over compositions."""

    def compositions(total, parts):
        if parts == 1:
            return [(total,)]
        return [(first,) + rest for first in range(total + 1)
                for rest in compositions(total - first, parts - 1)]

    return [c for total in range(cap + 1) for c in compositions(total, k)]


def kernel_by_states(model, k, cap):
    """The dense one-step kernel on the capped space, built state by state.

    The per-state builder: ordinals from a dictionary over
    ``graded_lex_states``, one shift table per atom by tuple addition, and
    each row from the row of the state with one particle removed, one
    ``np.bincount`` per atom, in atom order.  The particle removed is of the
    present type with the fewest atoms of positive total, the first such
    type on a tie, found by a scan over the types.  The zero atom's
    ``bincount`` through its identity table is the parent row times p0 to
    the bit, so this matches the engine, which scales instead.  Returns the
    (S + 1, S + 1) matrix, the overflow sentinel last.
    """
    states = graded_lex_states(k, cap)
    index = {c: i for i, c in enumerate(states)}
    overflow = len(states)
    size = overflow + 1
    tables = []
    for i in range(k):
        per_atom = []
        for child, p in law_atoms(model, i):
            shift = np.full(size, overflow, dtype=np.int64)
            for ordinal, counts in enumerate(states):
                target = tuple(a + b for a, b in zip(counts, child))
                if sum(target) <= cap:
                    shift[ordinal] = index[target]
            per_atom.append((p, shift))
        tables.append(per_atom)
    moving = [sum(any(child) for child, _ in law_atoms(model, i)) for i in range(k)]
    matrix = np.zeros((size, size))
    matrix[0, 0] = 1.0
    matrix[overflow, overflow] = 1.0
    for ordinal in range(1, len(states)):
        counts = states[ordinal]
        present = [idx for idx, c in enumerate(counts) if c > 0]
        i = min(present, key=lambda idx: (moving[idx], idx))
        parent = list(counts)
        parent[i] -= 1
        base = matrix[index[tuple(parent)]]
        row = np.zeros(size)
        for p, shift in tables[i]:
            row += np.bincount(shift, weights=base * p, minlength=size)
        matrix[ordinal] = row
    return matrix


def mp_absorption(model_text, start, target, steps, dps=50):
    """P_start(absorbed at ``target`` within ``steps``) to ``dps`` digits.

    Reads the probabilities of a model file as decimal strings and never
    touches stopbp.  Generating functions are truncated at the largest
    stopping total D; P_n(Z_l = beta) is the coefficient of s^beta in
    prod_j F_l^(j)(s)^(n_j), with every power taken by repeated squaring.
    The value comes from the stop-coefficient formula,
    sum_l sum_alpha P_n(Z_l = alpha) c(steps - l + 1)[alpha, target], with
    c(t) = I - (first passages within S in fewer than t steps).
    """
    import json

    import mpmath

    with mpmath.workdps(dps):
        doc = json.loads(model_text, parse_float=mpmath.mpf)
        k = len(doc["types"])
        stop = sorted((tuple(s) for s in doc["stopping_set"]), key=lambda s: (sum(s), s))
        degree = max(sum(s) for s in stop)
        one = {(0,) * k: mpmath.mpf(1)}

        def mul(p, q):
            out = defaultdict(mpmath.mpf)
            for a, x in p.items():
                for b, y in q.items():
                    c = tuple(i + j for i, j in zip(a, b))
                    if sum(c) <= degree:
                        out[c] += x * y
            return dict(out)

        def power(p, n):
            out = one
            while n:
                if n & 1:
                    out = mul(out, p)
                p, n = mul(p, p), n >> 1
            return out

        def law(F, counts):
            out = one
            for p, n in zip(F, counts):
                out = mul(out, power(p, n))
            return out

        F = [{tuple(int(i == j) for i in range(k)): mpmath.mpf(1)} for j in range(k)]
        hits, blocks = [], []  # P_start(Z_l = alpha), P_alpha(Z_l = beta), l >= 1
        for _ in range(steps):
            new = []
            for atoms in doc["offspring"]:
                total = defaultdict(mpmath.mpf)
                for atom in atoms:
                    for c, x in law(F, atom["counts"]).items():
                        total[c] += atom["p"] * x
                new.append(dict(total))
            F = new
            row = law(F, start)
            hits.append([row.get(a, 0) for a in stop])
            blocks.append([[law(F, a).get(b, 0) for b in stop] for a in stop])
        m = len(stop)
        first = []  # first passage within S in u steps
        for u in range(steps):
            f = [[blocks[u][a][b] - sum(first[i][a][c] * blocks[u - i - 1][c][b]
                                        for i in range(u) for c in range(m))
                  for b in range(m)] for a in range(m)]
            first.append(f)
        j = stop.index(tuple(target))
        q = mpmath.mpf(0)
        for l in range(1, steps + 1):
            for a in range(m):
                coeff = int(a == j) - sum(first[u][a][j] for u in range(steps - l))
                q += hits[l - 1][a] * coeff
        return q


def renewal_absorption(hits, blocks, target):
    """P_n(absorbed at stopping state ``target`` by step T), T = len(hits),
    by the renewal over first entrances into S.

    ``hits[l - 1][alpha]`` = P_n(Z_l = alpha) and ``blocks[l - 1][alpha,
    beta]`` = P_alpha(Z_l = beta) over the stopping states, l = 1..T.  The
    first entrance at step l is g(l) = hits(l) - sum_(i<l) g(i) B(l - i),
    and the value is sum_(l <= T) g(l)[target].
    """
    first = []
    for l in range(len(hits)):
        first.append(hits[l] - sum(first[i] @ blocks[l - i - 1] for i in range(l)))
    return float(sum(g[target] for g in first))


@dataclass(eq=False)
class DenseLimit:
    """The dense reference value at one start: unlike the cap-free series,
    it loses the stopped chain's mass beyond the cap, ``overflow_mass``."""

    value: float
    tail_bound: float
    overflow_mass: float
    terms: int


def limiting_absorptions(kernel, stopping, summary, starts, r, tol=1e-10):
    """Infinite-horizon absorption probabilities from many starts, on the
    engine's dense kernel.

    q(n -> r) is the stopped chain's absorption at r, read at step T_n, the
    first T whose geometric tail bound (from the spectral summary's Perron
    root) drops below ``tol``: absorption after T needs Z_T != 0, so that
    bound, the reported ``tail_bound``, covers the rest.  Refuses
    non-subcritical models, for which the bound is invalid
    (``geometric_tail_bound`` raises).

    One backward pass, with the stopping rows pinned, propagates two
    columns, K^l e_r and K^l e_overflow, one matvec per column per step up
    to the largest T_n; each start reads its value and the stopped chain's
    overflow mass at its own T_n.
    """
    from stopbp import exact_engine

    space = kernel.space
    starts = list(starts)
    exact_engine.check_starts(stopping, starts, r, space.cap)
    pin = [space.ordinal(member) for member in stopping]
    horizons = [exact_engine._horizon(summary, n.counts, tol) for n in starts]
    rows = np.array([space.ordinal(n) for n in starts], dtype=np.int64)
    terms = np.array([t for t, _ in horizons], dtype=np.int64)
    hit = np.zeros(space.size)
    hit[space.ordinal(r)] = 1.0
    ov = np.zeros(space.size)
    ov[space.overflow] = 1.0
    steps = int(terms.max(initial=0))
    values, overflow = np.empty(len(rows)), np.empty(len(rows))
    pairs = zip(kernel.backward(hit, steps, pin=pin), kernel.backward(ov, steps, pin=pin))
    for t, (hit, ov) in enumerate(pairs, 1):
        due = terms == t
        values[due] = hit[rows[due]]
        overflow[due] = ov[rows[due]]
    return [
        DenseLimit(value=float(value), tail_bound=bound, overflow_mass=float(mass), terms=t)
        for (t, bound), value, mass in zip(horizons, values, overflow)
    ]
