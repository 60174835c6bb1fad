"""Output checks for benchmark requests, run outside the timed region.

References come from a small dense engine written here, not from stopbp:
its own state enumeration and kernel build, and backward propagation of the
*stopped* chain to a deep horizon.  A probe or series value (a forward
series over the free chain with stop coefficients) is thereby checked by a
different route, and a Monte Carlo estimate by an exact value.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

MC_SIGMAS = 5.0
YAGLOM_MIN_EXPECTED = 20  # Monte Carlo shares checked: expected count at least this
YAGLOM_ABS_TOL = 1e-10  # CLI conditional law against the reference law
STOP_PROB_TOL = 1e-9  # CLI direct route against the reference stopped chain
MC_REF_CAP = {1: 400, 2: 60}


class RefChain:
    """Capped chain of a model: states, dense one-step kernel, overflow column."""

    def __init__(self, laws, cap: int):
        self.states = [s for total in range(cap + 1) for s in _compositions(total, len(laws))]
        self.index = {s: i for i, s in enumerate(self.states)}
        size = len(self.states) + 1
        self.over = size - 1
        kernel = np.zeros((size, size))
        kernel[0, 0] = 1.0
        kernel[self.over, self.over] = 1.0
        shifts = [[(p, self._shift(c)) for c, p in law] for law in laws]
        for s in self.states[1:]:
            i = next(t for t, c in enumerate(s) if c)
            parent = kernel[self.index[s[:i] + (s[i] - 1,) + s[i + 1:]]]
            row = kernel[self.index[s]]
            for p, shift in shifts[i]:
                row += np.bincount(shift, weights=p * parent, minlength=size)
        self.kernel = kernel

    def _shift(self, add) -> np.ndarray:
        """Ordinal reached by adding ``add`` to each state; overflow if past cap."""
        out = [self.index.get(tuple(a + b for a, b in zip(s, add)), self.over)
               for s in self.states]
        return np.array(out + [self.over], dtype=np.int64)

    def stopped_column(self, stop, r, steps: int) -> np.ndarray:
        """P(absorbed at r within ``steps``) from every ordinal, stopped chain."""
        stop_ords = [self.index[s] for s in stop]
        pinned = np.array([1.0 if s == tuple(r) else 0.0 for s in stop])
        col = np.zeros(self.over + 1)
        col[stop_ords] = pinned
        for _ in range(steps):
            col = self.kernel @ col
            col[stop_ords] = pinned
        return col

    def overflow_column(self, steps: int) -> np.ndarray:
        """P(past the cap within ``steps``) from every ordinal, free chain."""
        col = np.zeros(self.over + 1)
        col[self.over] = 1.0
        for _ in range(steps):
            col = self.kernel @ col
        return col

    def law_after(self, start, steps: int) -> np.ndarray:
        v = np.zeros(self.over + 1)
        v[self.index[tuple(start)]] = 1.0
        for _ in range(steps):
            v = v @ self.kernel
        return v


def _compositions(total: int, k: int):
    if k == 1:
        return [(total,)]
    return [(a,) + rest for a in range(total + 1) for rest in _compositions(total - a, k - 1)]


def _parse_label(text: str) -> tuple:
    return tuple(int(x) for x in text.strip().strip('"').strip("[]").split(","))


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _perron(model):
    """(delta, f) of the mean matrix, f the positive right eigenvector."""
    A = model.mean_matrix()
    vals, vecs = np.linalg.eig(A)
    i = int(np.argmax(vals.real))
    f = np.abs(vecs[:, i].real)
    return float(vals[i].real), f / f.max()


def _alive_bound(model, counts, steps: int) -> float:
    """P(population nonzero after ``steps``) <= E[Z . f] / min f, for every start."""
    delta, f = _perron(model)
    return float(np.dot(counts, f)) * delta**steps / float(f.min())


def _deep_horizon(model, max_total: int, tol: float) -> int:
    delta, f = _perron(model)
    weight = max_total * float(f.max()) / float(f.min())
    return int(math.ceil(math.log(tol / (100.0 * weight)) / math.log(delta)))


class Checker:
    """Checks the outputs of one workload's requests; caches references."""

    def __init__(self):
        self._chains = {}
        self._columns = {}

    def chain(self, model, cap: int) -> RefChain:
        key = (model.name, cap)
        if key not in self._chains:
            self._chains[key] = RefChain(model.laws, cap)
        return self._chains[key]

    def _deep_column(self, req, max_total: int):
        """Stopped-chain column at a horizon where the alive mass < tol/100."""
        p = req.params
        key = (req.model.name, p["cap"], p["r"])
        if key not in self._columns:
            steps = _deep_horizon(req.model, max_total, p["tol"])
            chain = self.chain(req.model, p["cap"])
            self._columns[key] = (chain, steps,
                                  chain.stopped_column(req.model.stopping_set, p["r"], steps))
        return self._columns[key]

    def check(self, req, rc: int, out: str) -> str:
        """Empty string when the output is right, else what is wrong."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            return getattr(self, "_" + req.kind.replace("-", "_"))(req, out)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return f"unreadable output: {exc!r}"

    def _probe(self, req, out):
        rows = _rows(out)
        if not rows:
            return "no rows"
        starts = [_parse_label(row["n"]) for row in rows]
        chain, steps, col = self._deep_column(req, max(sum(s) for s in starts))
        tol = req.params["tol"]
        for start, row in zip(starts, rows):
            q = float(row["q"])
            ref = col[chain.index[start]]
            slack = 2 * tol + float(row["overflow_bound"]) + _alive_bound(req.model, start, steps)
            if not abs(q - ref) <= slack:
                return f"q{_label(start)}={q!r} vs stopped chain {ref!r} (slack {slack:.3g})"
        for main, partner in zip(rows[::2], rows[1::2]):
            if abs(abs(float(main["q"]) - float(partner["q"]))
                   - float(main["self_similarity_defect"])) > 1e-15:
                return f"defect of {main['n']} does not match its partner"
        return ""

    def _stop_prob(self, req, out):
        rows = {row["method"]: float(row["q"]) for row in _rows(out)}
        p = req.params
        if not {"direct", "formula", "restricted"} <= set(rows):
            return f"missing routes in {sorted(rows)}"
        col = self.chain(req.model, p["cap"]).stopped_column(
            req.model.stopping_set, p["r"], p["t"])
        ref = col[self.chain(req.model, p["cap"]).index[p["n"]]]
        if not abs(rows["direct"] - ref) <= STOP_PROB_TOL:
            return f"direct {rows['direct']!r} vs stopped chain {ref!r}"
        return ""

    def _series(self, req, out):
        rows = {row["method"]: row for row in _rows(out)}
        p = req.params
        chain, steps, col = self._deep_column(req, sum(p["n"]))
        q = float(rows["series"]["q"])
        ref = col[chain.index[p["n"]]]
        slack = (p["tol"] + float(rows["series_tail_bound"]["q"])
                 + float(rows["series"]["overflow_bound"])
                 + _alive_bound(req.model, p["n"], steps))
        if not abs(q - ref) <= slack:
            return f"series {q!r} vs stopped chain {ref!r} (slack {slack:.3g})"
        return ""

    def _yaglom(self, req, out):
        p = req.params
        chain = self.chain(req.model, p["cap"])
        start = tuple(1 if i == p["j"] - 1 else 0 for i in range(req.model.k))
        v = chain.law_after(start, p["t"])
        alive = v[1:].sum()
        got = {_parse_label(row["state"]): float(row["p"]) for row in _rows(out)}
        for ordinal in range(1, chain.over):
            want = v[ordinal] / alive
            have = got.pop(chain.states[ordinal], 0.0)
            if not abs(have - want) <= YAGLOM_ABS_TOL:
                return f"p{_label(chain.states[ordinal])}={have!r} vs {want!r}"
        return f"states outside the cap: {sorted(got)}" if got else ""

    def _verify(self, req, out):
        lines = [line for line in out.splitlines() if line.strip()]
        bad = [line for line in lines if not line.startswith("[PASS]")]
        if bad or len(lines) != 12:
            return f"{len(lines)} checks, failing: {bad[:2]}"
        return ""

    def _estimate(self, req, out):
        p = req.params
        # quantity names such as p[0,1] hold unquoted commas: split from the right
        lines = out.splitlines()
        if lines[0] != "quantity,value,stderr,reps,seed":
            return f"unexpected header {lines[0]!r}"
        rows = {}
        for line in lines[1:]:
            name, value, _, _, _ = line.rsplit(",", 4)
            rows[name] = {"value": value}
        chain = self.chain(req.model, MC_REF_CAP[req.model.k])
        reps = p["reps"]
        if p["what"] == "absorption":
            start = chain.index[p["n"]]
            exact = chain.stopped_column(req.model.stopping_set, p["r"], p["t"])[start]
            overflow = chain.overflow_column(p["t"])[start]
            got = float(rows["absorption"]["value"])
            sigma = math.sqrt(exact * (1.0 - exact) / reps)
            if not abs(got - exact) <= MC_SIGMAS * sigma + overflow:
                return f"absorption {got!r} vs exact {exact!r} ({MC_SIGMAS} sigma {sigma:.3g})"
            return ""
        start = tuple(1 if i == p["j"] - 1 else 0 for i in range(req.model.k))
        v = chain.law_after(start, p["t"])
        overflow = v[chain.over]
        survival = 1.0 - v[0]
        got = float(rows["conditioning_frequency"]["value"])
        sigma = math.sqrt(survival * (1.0 - survival) / reps)
        if not abs(got - survival) <= MC_SIGMAS * sigma + overflow:
            return f"survival {got!r} vs exact {survival!r}"
        survivors = round(got * reps)
        for ordinal in range(1, chain.over):
            want = v[ordinal] / survival
            # the normal approximation behind 5 sigma needs enough expected hits
            if want * survivors < YAGLOM_MIN_EXPECTED:
                continue
            name = "p" + _label(chain.states[ordinal])
            have = float(rows[name]["value"]) if name in rows else 0.0
            sigma = math.sqrt(want * (1.0 - want) / survivors)
            if not abs(have - want) <= MC_SIGMAS * sigma + 2 * overflow / survival:
                return f"{name}={have!r} vs exact {want!r}"
        return ""


def _label(counts) -> str:
    return "[" + ",".join(str(c) for c in counts) + "]"


def _untimed(out: str) -> str:
    """Output without the per-check wall times that ``verify`` prints."""
    return re.sub(r" \[[0-9.]+s\]$", "", out, flags=re.M)


def check_all(records) -> list:
    """One failure string per record, empty when the record is right.

    Beyond each record's own check, every request of one computation (same
    argv apart from ``--workers``) must print byte-identical output: that
    covers run-to-run determinism and Monte Carlo's bit-exactness across
    worker counts.  A group that disagrees fails every record in it.
    """
    checker = Checker()
    verdicts = [checker.check(rec.request, rec.rc, rec.out) for rec in records]
    outputs = {}
    for rec in records:
        outputs.setdefault(rec.request.key, set()).add(_untimed(rec.out))
    for i, rec in enumerate(records):
        if len(outputs[rec.request.key]) > 1 and not verdicts[i]:
            verdicts[i] = "output differs from another run of the same computation"
    return verdicts
