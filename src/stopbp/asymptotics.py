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

DEFAULT_WINDOW = (-60, 200)


class RankDeficiencyError(ValueError):
    """Fit design matrix does not have full column rank."""


@dataclass(eq=False)
class HjValue:
    """Truncated basis value with a total error bound.

    ``tail_bound`` covers both truncation tails (upper tail geometric with
    ratio delta^j; lower tail dominated by the double-exponential factor)
    and the floating-point summation error of the window itself.
    """

    j: int
    x: float
    value: float
    tail_bound: float
    window: tuple[int, int]


def eval_Hj(
    x: float,
    j: int,
    delta: float,
    aK: float,
    L_lo: int = DEFAULT_WINDOW[0],
    L_hi: int = DEFAULT_WINDOW[1],
) -> HjValue:
    """Truncated basis sum over L in [L_lo, L_hi].

    Terms are evaluated in log space (large negative exponents underflow to
    zero rather than producing overflow artifacts) and accumulated with
    exact summation.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if aK <= 0.0:
        raise ValueError(f"aK must be positive (series diverges), got {aK}")
    if j < 1:
        raise ValueError("j must be >= 1")
    if not L_lo < 0 < L_hi:
        raise ValueError("window must straddle zero: L_lo < 0 < L_hi")
    log_delta = math.log(delta)
    L = np.arange(L_lo, L_hi + 1, dtype=float)
    y = np.exp((L + x) * log_delta)  # delta^(L+x); may overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        log_terms = j * (L + x) * log_delta - aK * y
    log_terms = np.where(np.isnan(log_terms), -np.inf, log_terms)
    terms = np.exp(log_terms)
    value = math.fsum(terms.tolist())

    # upper tail: e^{-aK y} <= 1, geometric in delta^j
    upper = delta ** (j * (L_hi + 1 + x)) / (1.0 - delta**j)
    # lower tail: successive terms shrink at least by rho once y is past
    # the mode of y^j e^{-aK y}
    y_edge = math.exp((L_lo - 1 + x) * log_delta)
    first = math.exp(j * (L_lo - 1 + x) * log_delta - aK * y_edge) if np.isfinite(
        y_edge
    ) else 0.0
    rho = delta ** (-j) * math.exp(-aK * y_edge * (1.0 / delta - 1.0))
    if first > 0.0 and rho >= 1.0:
        raise ValueError(
            "lower window edge sits before the decay regime; extend L_lo"
        )
    lower = first / (1.0 - rho) if first > 0.0 else 0.0
    rounding = 2.0 * np.finfo(float).eps * math.fsum(np.abs(terms).tolist())
    return HjValue(
        j=j,
        x=x,
        value=value,
        tail_bound=upper + lower + rounding,
        window=(L_lo, L_hi),
    )


@dataclass(eq=False)
class CyclicModel:
    """Ingredients of the period-1 limit function H(x) = sum_j c_j H_j(x)."""

    delta: float
    a: np.ndarray  # limiting type composition, sums to 1
    K: np.ndarray  # per-type survival constants
    aK: float
    r0: int  # largest stopping-state total; number of basis functions
    L_lo: int
    L_hi: int
    amplitudes: Optional[np.ndarray] = None

    def basis(self, x: float) -> np.ndarray:
        return np.array(
            [
                eval_Hj(x, j, self.delta, self.aK, self.L_lo, self.L_hi).value
                for j in range(1, self.r0 + 1)
            ]
        )

    def evaluate(self, x: float) -> float:
        if self.amplitudes is None:
            raise ValueError("amplitudes not fitted yet")
        return float(np.dot(self.amplitudes, self.basis(x)))


def build_cyclic_model(
    summary: spectral.SpectralSummary,
    a: Sequence[float],
    stopping: StoppingSet,
    L_lo: int = DEFAULT_WINDOW[0],
    L_hi: int = DEFAULT_WINDOW[1],
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
        a=a,
        K=np.asarray(summary.K, dtype=float),
        aK=aK,
        r0=stopping.max_total,
        L_lo=L_lo,
        L_hi=L_hi,
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
    overflow: float
    partner_nbar: Optional[int] = None
    defect: Optional[float] = None
    pre_asymptotic: bool = False
    is_partner: bool = False


@dataclass(eq=False)
class ProbeReport:
    """Absorption probabilities along a geometric grid of start totals."""

    target: PopulationState
    delta: float
    cap: int
    rows: list[ProbeRow] = field(default_factory=list)

    @property
    def theta(self) -> float:
        """Smallest absorption probability observed over the probe."""
        return min(row.q for row in self.rows)

    def main_rows(self) -> list[ProbeRow]:
        return [r for r in self.rows if not r.is_partner]

    def write_csv(self, fh):
        fh.write("n,nbar,x_frac,q,overflow_bound,self_similarity_defect\n")
        for row in self.rows:
            defect = "" if row.defect is None else f"{row.defect:.17g}"
            fh.write(
                f'"{row.state.label()}",{row.nbar},{row.x_frac:.17g},'
                f"{row.q:.17g},{row.overflow:.17g},{defect}\n"
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
    cap: int,
    tol: float = 1e-9,
    state_limit: int = exact_engine.DEFAULT_STATE_LIMIT,
    overflow_limit: float = 0.05,
    pre_asymptotic_factor: int = 10,
) -> ProbeReport:
    """Tabulate limiting absorption along starts n = round(nbar * a).

    Each grid total is paired with the partner total round(nbar / delta)
    (one period further in log_delta scale); the self-similarity defect is
    the gap between the two absorption probabilities.  Rows with
    nbar <= pre_asymptotic_factor * r0 are flagged pre-asymptotic rather
    than rejected.  Every grid and partner start is checked against the cap
    before the kernel is built, and all of them share one backward series
    pass (``exact_engine.limiting_absorptions``).  The first-passage horizon
    is sized from the largest start, so each row's ``series_bound`` stays
    below 1.1 * tol.  Fails when the accumulated overflow bound of any row
    exceeds ``overflow_limit`` (cap too small for the requested totals).
    """
    summary = spectral.perron_triple(spectral.moments(model))
    if not summary.delta < 1.0:
        raise ValueError("probe requires a subcritical model")
    if r not in stopping:
        raise ValueError(f"target {r.label()} is not a stopping state")
    a = np.asarray(a, dtype=float)
    delta = summary.delta

    mains = [_adjust_start(round_to_direction(int(nbar), a), stopping, a)
             for nbar in nbar_grid]
    partners = [
        _adjust_start(round_to_direction(int(round(m.total / delta)), a), stopping, a)
        for m in mains
    ]
    starts = [s for pair in zip(mains, partners) for s in pair]
    for start in starts:
        if start.total > cap:
            raise exact_engine.CapacityError(
                f"start total {start.total} exceeds the cap {cap} "
                "(partners reach round(nbar / delta)); raise the cap"
            )

    space = exact_engine.enumerate_states(model.k, cap, limit=state_limit)
    kernel = exact_engine.one_step_kernel(model, space)
    # first-passage horizon long enough that the coefficient tail is dead:
    # at most tol/10 even summed over the whole series of the largest start
    whole_series = max(
        (exact_engine.geometric_tail_bound(summary, s.counts, 0) for s in starts),
        default=0.0,
    )
    t_tail = max(
        20,
        int(math.ceil(math.log(tol / 10.0) / math.log(delta))) + stopping.max_total,
    )
    while whole_series * max(
        exact_engine.geometric_tail_bound(summary, m.counts, t_tail) for m in stopping
    ) > tol / 10.0:
        t_tail += 1
    restricted = exact_engine.restricted_kernel(kernel, stopping, t_tail)
    coeffs = exact_engine.stop_coefficients(restricted, summary=summary)
    results = exact_engine.limiting_absorptions(
        kernel, restricted, summary, starts, r, tol=tol, coefficients=coeffs
    )

    report = ProbeReport(target=r, delta=delta, cap=cap)
    threshold = pre_asymptotic_factor * stopping.max_total
    for i, (start, result) in enumerate(zip(starts, results)):
        if result.overflow_mass > overflow_limit:
            raise exact_engine.CapacityError(
                f"overflow bound {result.overflow_mass:.3g} exceeds "
                f"{overflow_limit} at nbar={start.total}; raise the cap"
            )
        report.rows.append(ProbeRow(
            state=start,
            nbar=start.total,
            x_frac=_fractional_log(start.total, delta),
            q=result.value,
            series_bound=result.tail_bound,
            overflow=result.overflow_mass,
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
    design_rank: int


def fit_cyclic_amplitudes(
    probe: ProbeReport,
    cyclic: CyclicModel,
    ridge: float = 1e-12,
    rows: Optional[Sequence[ProbeRow]] = None,
) -> AmplitudeFit:
    """Least-squares amplitudes for the basis against probe values.

    Solves (X'X + ridge I) c = X'q on the basis design matrix; raises when
    the design matrix is rank deficient (probe x-values too clustered to
    separate the basis functions).  Stores the amplitudes on ``cyclic``.
    """
    if rows is None:
        rows = probe.rows
    if len(rows) < 2 * cyclic.r0:
        raise ValueError(
            f"need at least {2 * cyclic.r0} rows to fit {cyclic.r0} amplitudes"
        )
    X = np.array([cyclic.basis(row.x_frac) for row in rows])
    q = np.array([row.q for row in rows])
    rank = int(np.linalg.matrix_rank(X))
    if rank < cyclic.r0:
        raise RankDeficiencyError(
            f"design matrix rank {rank} < {cyclic.r0}; spread the probe in x"
        )
    gram = X.T @ X + ridge * np.eye(cyclic.r0)
    c = np.linalg.solve(gram, X.T @ q)
    residual = float(np.sqrt(np.mean((q - X @ c) ** 2)))
    cyclic.amplitudes = c
    return AmplitudeFit(amplitudes=c, rms_residual=residual, design_rank=rank)
