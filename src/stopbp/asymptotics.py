"""Cyclic limit behaviour of absorption probabilities for large populations.

For subcritical models the infinite-horizon absorption probability from a
large population of total size nbar oscillates: it approaches a period-1
function of log_delta(nbar), built from basis sums

    H_j(x) = sum_L delta^(j (L + x)) exp(-aK delta^(L + x)),

where aK weights the per-type survival constants by the limiting type
composition.  This module evaluates the truncated basis with a rigorous
error bound, probes the exact engine along geometric grids of nbar, and
fits the basis amplitudes by ridge least squares (the amplitudes have no
closed form here; the fit is a reconstruction, labelled as such).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from stopbp import exact_engine, spectral
from stopbp.model import BranchingModel, PopulationState, StoppingSet

PRE_ASYMPTOTIC_FACTOR = 10
RIDGE = 1e-12


class RankDeficiencyError(ValueError):
    """Fit design matrix does not have full column rank."""


@dataclass(eq=False)
class HjValue:
    """Basis value with its error bound, ``tail_bound`` = ``truncation`` (the
    two tails left out of the window) + ``rounding`` (float error)."""

    value: float
    truncation: float
    rounding: float

    @property
    def tail_bound(self) -> float:
        return self.truncation + self.rounding


def eval_Hj(x: float, j: int, delta: float, aK: float) -> HjValue:
    """H_j(x) over a window derived from delta, aK, j and x, with its bound.

    With y = delta^(L + x) = e^(-s (L + x)), let M be the term nearest the
    mode y = j / aK of y^j e^(-aK y).  The window makes each tail at most
    eps M / 2, so ``truncation`` = eps M <= eps * value: above it the terms
    fall at least by delta^j per step; below it, where z = aK y reaches the
    largest of 2 j, (ln 2 + j s) / (e^s - 1) and 2 (ln(4 / (eps M)) +
    j ln(2 j / aK) - j), they fall at least by half per step from a first
    term below eps M / 4.  Terms are exp(z) with z = j w - aK e^w and
    w = (L + x) ln delta, summed exactly.  ``rounding`` carries, per term,
    the error 2 eps |w| of w through dz/dw = j - aK e^w, the rounding of
    j w, aK e^w and z, and the last exp to first order (the constant 2
    covers the second), then half an ulp of the sum and a smallest
    subnormal per term.  notes/decisions.md has the derivation.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if aK <= 0.0:
        raise ValueError(f"aK must be positive (series diverges), got {aK}")
    if j < 1:
        raise ValueError("j must be >= 1")
    eps = float(np.finfo(float).eps)
    log_delta = math.log(delta)
    s = -log_delta
    w_mode = log_delta * (round(math.log(aK / j) / s - x) + x)
    log_tail = math.log(eps / 2) + j * w_mode - aK * math.exp(w_mode)  # ln(eps M / 2)
    z_edge = max(2.0 * j, (math.log(2.0) + j * s) / math.expm1(s),
                 2.0 * (math.log(2.0) - log_tail + j * math.log(2.0 * j / aK) - j))
    L_lo = math.floor(1.0 - x - math.log(z_edge / aK) / s)
    L_hi = math.ceil(-(log_tail + math.log(-math.expm1(-j * s))) / (j * s) - x) - 1
    w = (np.arange(L_lo, L_hi + 1, dtype=float) + x) * log_delta
    a = aK * np.exp(w)
    z = j * w - a
    terms = np.exp(z)
    value = math.fsum(terms.tolist())
    per_term = 2.0 + 2.0 * np.abs(j - a) * np.abs(w) + (j * np.abs(w) + np.abs(z)) / 2 + 1.5 * a
    rounding = (eps * math.fsum((terms * per_term).tolist()) + eps / 2 * value
                + terms.size * float(np.finfo(float).smallest_subnormal))
    return HjValue(value=value, truncation=2.0 * math.exp(log_tail), rounding=rounding)


@dataclass(eq=False)
class CyclicModel:
    """Ingredients of the period-1 limit function H(x) = sum_j c_j H_j(x)."""

    delta: float
    aK: float  # survival constants weighted by the limiting type composition
    r0: int  # largest stopping-state total; number of basis functions
    amplitudes: Optional[np.ndarray] = None

    def _terms(self, x: float) -> np.ndarray:
        """(value, bound) of H_j(x) for j = 1..r0, one row each."""
        return np.array([(h.value, h.tail_bound) for h in
                         (eval_Hj(x, j, self.delta, self.aK) for j in range(1, self.r0 + 1))])

    def basis(self, x: float) -> np.ndarray:
        return self._terms(x)[:, 0]

    def evaluate(self, x: float) -> tuple[float, float]:
        """H(x) and its bound, sum_j |c_j| times the bound on H_j(x)."""
        if self.amplitudes is None:
            raise ValueError("amplitudes not fitted yet")
        values, bounds = self._terms(x).T
        return float(self.amplitudes @ values), float(np.abs(self.amplitudes) @ bounds)


def build_cyclic_model(
    summary: spectral.SpectralSummary,
    a: Sequence[float],
    stopping: StoppingSet,
) -> CyclicModel:
    """Assemble the limit-function ingredients from spectral data.

    Requires the summary to carry survival constants (see
    ``spectral.survival_constants``); amplitudes stay empty until fitted.
    """
    if summary.K is None:
        raise ValueError("summary has no survival constants; compute K first")
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or len(a) != len(summary.K):
        raise ValueError("direction length does not match the number of types")
    if np.any(a < 0) or abs(a.sum() - 1.0) > 1e-9:
        raise ValueError("direction must be nonnegative and sum to 1")
    aK = float(np.dot(a, summary.K))
    if aK <= 0.0:
        raise ValueError(f"aK = {aK} must be positive")
    return CyclicModel(
        delta=float(summary.delta),
        aK=aK,
        r0=stopping.max_total,
    )


def round_to_direction(nbar: int, a: Sequence[float]) -> PopulationState:
    """Integer state of total nbar closest to nbar * a (largest remainder).

    Floors every coordinate of nbar * a, then hands the remaining particles
    to the largest fractional parts (ties to the lowest index).
    """
    a = np.asarray(a, dtype=float)
    raw = nbar * a
    base = np.floor(raw).astype(np.int64)
    short = nbar - int(base.sum())
    if short:
        fracs = raw - base
        order = np.lexsort((np.arange(len(a)), -fracs))
        base[order[:short]] += 1
    return PopulationState(tuple(int(x) for x in base))


@dataclass(eq=False)
class ProbeRow:
    state: PopulationState
    nbar: int
    x_frac: float
    q: float
    series_bound: float
    partner_nbar: Optional[int] = None
    defect: Optional[float] = None
    pre_asymptotic: bool = False
    is_partner: bool = False
    overflow = 0.0  # not a field: the probe caps nothing; stopbench's tracer reads it


@dataclass(eq=False)
class ProbeReport:
    """Absorption probabilities along a geometric grid of start totals."""

    target: PopulationState
    delta: float
    rows: list[ProbeRow] = field(default_factory=list)

    @property
    def theta(self) -> float:
        """Smallest absorption probability observed over the probe."""
        return min(row.q for row in self.rows)

    def main_rows(self) -> list[ProbeRow]:
        return [r for r in self.rows if not r.is_partner]

    def write_csv(self, fh):
        """One line per row; ``series_bound`` is the row's certified error
        bound, and ``overflow_bound`` stays for readers that take it by name
        (it is 0: the probe caps nothing)."""
        fh.write("n,nbar,x_frac,q,overflow_bound,self_similarity_defect,series_bound\n")
        for row in self.rows:
            defect = "" if row.defect is None else f"{row.defect:.17g}"
            fh.write(
                f'"{row.state.label()}",{row.nbar},{row.x_frac:.17g},'
                f"{row.q:.17g},0,{defect},{row.series_bound:.17g}\n"
            )


def _fractional_log(nbar: int, delta: float) -> float:
    return (math.log(nbar) / math.log(delta)) % 1.0


def _adjust_start(
    state: PopulationState, stopping: StoppingSet, a: np.ndarray
) -> PopulationState:
    """Nudge a rounded start out of the stopping set (and away from zero)."""
    bump = int(np.argmax(a))
    while state.is_zero or state in stopping:
        counts = list(state.counts)
        counts[bump] += 1
        state = PopulationState(tuple(counts))
    return state


def periodicity_probe(
    model: BranchingModel,
    stopping: StoppingSet,
    r: PopulationState,
    a: Sequence[float],
    nbar_grid: Sequence[int],
    tol: float = 1e-9,
) -> ProbeReport:
    """Tabulate limiting absorption along starts n = round(nbar * a).

    Each grid total is paired with the partner total round(nbar / delta)
    (one period further in log_delta scale); the self-similarity defect is
    the gap between the two absorption probabilities.  Rows with
    nbar <= PRE_ASYMPTOTIC_FACTOR * r0 are flagged pre-asymptotic rather
    than rejected.  Grid and partner starts all go through
    ``exact_engine.series_absorptions``, the pipeline ``stopbp series`` runs
    too: they share one pass over the generating functions truncated at
    degree r0, which each start reads at its own horizon, so each row's
    ``series_bound`` stays below tol.  No state space is capped, so a start
    of any total is accepted.
    """
    summary = spectral.perron_triple(spectral.moments(model))
    delta = spectral.require_subcritical(summary, "probe")
    a = np.asarray(a, dtype=float)

    mains = [_adjust_start(round_to_direction(int(nbar), a), stopping, a)
             for nbar in nbar_grid]
    partners = [
        _adjust_start(round_to_direction(int(round(m.total / delta)), a), stopping, a)
        for m in mains
    ]
    starts = [s for pair in zip(mains, partners) for s in pair]
    results = exact_engine.series_absorptions(model, stopping, summary, starts, r, tol=tol)

    report = ProbeReport(target=r, delta=delta)
    threshold = PRE_ASYMPTOTIC_FACTOR * stopping.max_total
    for i, (start, result) in enumerate(zip(starts, results)):
        report.rows.append(ProbeRow(
            state=start,
            nbar=start.total,
            x_frac=_fractional_log(start.total, delta),
            q=result.value,
            series_bound=result.tail_bound,
            pre_asymptotic=start.total <= threshold,
            is_partner=i % 2 == 1,
        ))
    for row, partner in zip(report.rows[::2], report.rows[1::2]):
        row.partner_nbar = partner.nbar
        row.defect = abs(row.q - partner.q)
    return report


@dataclass(eq=False)
class AmplitudeFit:
    amplitudes: np.ndarray
    rms_residual: float


def fit_cyclic_amplitudes(probe: ProbeReport, cyclic: CyclicModel) -> AmplitudeFit:
    """Least-squares amplitudes for the basis against probe values.

    Solves (X'X + RIDGE I) c = X'q on the basis design matrix; raises when
    the design matrix is rank deficient (probe x-values too clustered to
    separate the basis functions).  Stores the amplitudes on ``cyclic``.
    """
    if len(probe.rows) < 2 * cyclic.r0:
        raise ValueError(
            f"need at least {2 * cyclic.r0} rows to fit {cyclic.r0} amplitudes"
        )
    X = np.array([cyclic.basis(row.x_frac) for row in probe.rows])
    q = np.array([row.q for row in probe.rows])
    rank = int(np.linalg.matrix_rank(X))
    if rank < cyclic.r0:
        raise RankDeficiencyError(
            f"design matrix rank {rank} < {cyclic.r0}; spread the probe in x"
        )
    gram = X.T @ X + RIDGE * np.eye(cyclic.r0)
    c = np.linalg.solve(gram, X.T @ q)
    residual = float(np.sqrt(np.mean((q - X @ c) ** 2)))
    cyclic.amplitudes = c
    return AmplitudeFit(amplitudes=c, rms_residual=residual)
