"""Factorial moments and Perron spectral analysis of branching models.

The first-moment matrix A has entry (i, j) equal to the expected number of
type-j offspring of a single type-i particle.  One eigendecomposition of A
and one of A^T yield the Perron root delta and, for an indecomposable
aperiodic model, its positive right eigenvector f and positive left
eigenvector nu, normalized so that nu sums to 1 and sum_i f_i nu_i = 1.  Every computation
that needs the theorem's hypotheses asks ``perron_triple`` (indecomposable,
aperiodic) and ``require_subcritical``; both raise ``OutsideTheoremError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from stopbp.model import BranchingModel

EDGE_TOL = 1e-12
CRITICAL_BAND = 1e-9


class OutsideTheoremError(ValueError):
    """The model is decomposable, periodic or not subcritical: the request
    lies outside the theorem, a mathematical failure rather than an input
    error."""


@dataclass(eq=False)
class MomentData:
    """First (A) and second (B) factorial moments of the offspring laws."""

    A: np.ndarray  # (k, k)
    B: np.ndarray  # (k, k, k), symmetric in the last two indices


def first_moments(model: BranchingModel) -> np.ndarray:
    """A[i, j] = expected count of type-j offspring from one type-i parent."""
    k = model.k
    A = np.zeros((k, k))
    for i, law in enumerate(model.laws):
        for state, p in law.atoms:
            A[i] += p * np.asarray(state.counts, dtype=float)
    return A


def second_moments(model: BranchingModel) -> np.ndarray:
    """B[i, j, l] = E[c_j c_l - delta_jl c_j] over type i's offspring law."""
    k = model.k
    B = np.zeros((k, k, k))
    eye = np.eye(k)
    for i, law in enumerate(model.laws):
        for state, p in law.atoms:
            c = np.asarray(state.counts, dtype=float)
            B[i] += p * (np.outer(c, c) - eye * c)
    return B


def moments(model: BranchingModel) -> MomentData:
    return MomentData(A=first_moments(model), B=second_moments(model))


# ---------------------------------------------------------------------------
# graph structure of the mean matrix


def _bfs_levels(adj: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first distance from ``start`` along the edges of ``adj``;
    -1 marks nodes it cannot reach."""
    level = np.full(adj.shape[0], -1, dtype=np.int64)
    level[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adj[u])[0]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return level


def is_strongly_connected(A: np.ndarray) -> bool:
    adj = A > EDGE_TOL
    return bool((_bfs_levels(adj, 0) >= 0).all() and (_bfs_levels(adj.T, 0) >= 0).all())


def graph_period(A: np.ndarray) -> int:
    """Period of a strongly connected type graph.

    Breadth-first labeling from node 0; the period is the gcd of
    level(u) + 1 - level(v) over all edges u -> v.
    """
    adj = A > EDGE_TOL
    level = _bfs_levels(adj, 0)
    d = 0
    for u in range(adj.shape[0]):
        for v in np.nonzero(adj[u])[0]:
            d = gcd(d, int(level[u] + 1 - level[v]))
    return abs(d) if d else 0


# ---------------------------------------------------------------------------
# Perron eigenpair


def _perron_vector(M: np.ndarray):
    """Perron root and nonnegative eigenvector of a nonnegative matrix.

    By Perron-Frobenius the spectral radius of M is itself an eigenvalue, so
    it is the eigenvalue of largest real part; its eigenvector is returned in
    absolute value, scaled to sum 1.
    """
    values, vectors = np.linalg.eig(M)
    i = int(np.argmax(values.real))
    x = np.abs(vectors[:, i])
    return float(values[i].real), x / x.sum()


@dataclass(eq=False)
class SpectralSummary:
    """Structure flags, Perron root and criticality of a mean matrix.

    The normalized Perron vectors and their residuals are set when the
    matrix is indecomposable and aperiodic, and are None otherwise.
    """

    indecomposable: bool
    period: Optional[int]  # None when decomposable
    delta: float
    criticality: str  # subcritical | critical | supercritical | boundary
    f: Optional[np.ndarray] = None
    nu: Optional[np.ndarray] = None
    residual_f: Optional[float] = None
    residual_nu: Optional[float] = None
    K: Optional[np.ndarray] = None  # per-type survival constants, 0-based
    delta_bar: Optional[float] = None  # max_i (A f)_i / f_i, one ulp up: A f <= delta_bar f

    def report(self) -> dict:
        """JSON-ready summary of a Perron triple."""
        return {
            "delta": self.delta,
            "f": [float(x) for x in self.f],
            "nu": [float(x) for x in self.nu],
            "period": self.period,
            "flags": {
                "indecomposable": self.indecomposable,
                "criticality": self.criticality,
            },
            "residuals": {"f": self.residual_f, "nu": self.residual_nu},
            "K": None if self.K is None else [float(x) for x in self.K],
        }


def classify(moment_data: MomentData) -> SpectralSummary:
    """The one spectral analysis of a mean matrix A.

    One eigendecomposition of A gives the right vector f, one of A^T the
    left vector nu.  For an indecomposable aperiodic A, nu is scaled
    to sum to 1, then f so that sum_i f_i nu_i = 1, and delta is the
    generalized Rayleigh quotient nu A f / nu f, whose error is second order
    in the vector errors.  ``delta_bar``, the largest (A f)_i / f_i rounded
    one ulp up, satisfies A f <= delta_bar f at the computed f however
    inexact f is, so it, not delta, is the factor tail bounds use.
    ``boundary`` labels the degenerate case where delta sits in the critical
    band but the second-moment form is not strictly positive (for example a
    deterministic one-child law).
    """
    A = np.asarray(moment_data.A, dtype=float)
    indecomposable = is_strongly_connected(A)
    period = graph_period(A) if indecomposable else None
    root, f = _perron_vector(A)
    _, nu = _perron_vector(A.T)
    delta = max(root, 0.0)
    perron = {}
    if period == 1:
        nu = nu / nu.sum()
        f = f / float(np.dot(f, nu))
        delta = float(nu @ A @ f) / float(np.dot(nu, f))
        Af = A @ f
        perron = dict(
            f=f,
            nu=nu,
            residual_f=float(np.max(np.abs(Af - delta * f))),
            residual_nu=float(np.max(np.abs(nu @ A - delta * nu))),
            delta_bar=float(np.nextafter(np.max(Af / f), np.inf)),
        )
    if delta < 1.0 - CRITICAL_BAND:
        criticality = "subcritical"
    elif delta > 1.0 + CRITICAL_BAND:
        criticality = "supercritical"
    else:
        form = float(np.einsum("i,ijk,j,k->", f, moment_data.B, nu, nu))
        criticality = "critical" if form > 0.0 else "boundary"
    return SpectralSummary(
        indecomposable=indecomposable, period=period, delta=delta,
        criticality=criticality, **perron,
    )


def perron_triple(moment_data: MomentData) -> SpectralSummary:
    """``classify``, refusing a mean matrix that is decomposable or periodic.

    The refusal raises ``OutsideTheoremError``, as ``require_subcritical``
    does for a Perron root not below 1.
    """
    summary = classify(moment_data)
    if not summary.indecomposable:
        raise OutsideTheoremError("mean matrix is decomposable; Perron triple not computed")
    if summary.period != 1:
        raise OutsideTheoremError(
            f"type graph has period {summary.period}; the theorem needs an "
            "aperiodic model"
        )
    return summary


def require_subcritical(summary: SpectralSummary, what: str) -> float:
    """The Perron root delta of ``summary``, if ``classify`` calls the model
    subcritical (delta below 1 - ``CRITICAL_BAND``).

    The one subcriticality gate, on the verdict ``stopbp classify`` prints:
    raises ``OutsideTheoremError`` naming ``what`` needs the model otherwise.
    """
    delta = summary.delta
    if summary.criticality != "subcritical":
        raise OutsideTheoremError(
            f"{what} needs a subcritical model (delta={delta:.6g}, "
            f"classified {summary.criticality})"
        )
    return delta


def moment_asymptotics(
    moment_data: MomentData, summary: SpectralSummary, t_max: int
) -> np.ndarray:
    """Error curve e(t) = max_ij |A^t delta^-t - f nu|, for t = 1..t_max.

    Decays geometrically at the ratio of the second eigenvalue to the
    Perron root; the scaled power is accumulated incrementally so neither
    factor overflows.
    """
    A = moment_data.A
    target = np.outer(summary.f, summary.nu)
    scaled = A / summary.delta
    power = np.eye(A.shape[0])
    out = np.empty(t_max)
    for t in range(1, t_max + 1):
        power = power @ scaled
        out[t - 1] = float(np.max(np.abs(power - target)))
    return out


@dataclass(eq=False)
class SurvivalConstant:
    """Estimates of the geometric survival constant for one starting type."""

    type_index: int  # 1-based
    estimates: np.ndarray  # K_l = survival(l) * delta^-l, l = 1..l_max
    ratios: np.ndarray  # survival(l+1) / survival(l), l = 1..l_max-1
    delta: float

    @property
    def value(self) -> float:
        return float(self.estimates[-1])


def _survival_constants(
    model: BranchingModel, l_max: int, delta: float
) -> list[SurvivalConstant]:
    """Estimates for every starting type from one ``genfun.survival_path``.

    The path is in survival form (never forming 1 - h directly), so the
    estimates stay accurate far below machine epsilon relative to 1, and it
    carries the whole survival vector, so one path serves all types.  A
    survival probability below the smallest normal float has lost its
    relative precision (and may be 0 while delta^-l is inf), so it raises
    ``ArithmeticError`` naming the step.
    """
    from stopbp import genfun

    survivals = genfun.survival_path(model, l_max, np.ones(model.k))[1:].T  # (k, l_max)
    low = np.flatnonzero(~np.all(survivals >= np.finfo(float).tiny, axis=0))
    if len(low):
        l = int(low[0])
        raise ArithmeticError(
            f"survival probability {survivals[:, l].min():.3g} at step {l + 1} is below the "
            f"smallest normal float; survival constants need l_max <= {l}"
        )
    scale = np.divide.accumulate(np.r_[1.0, np.full(l_max, delta)])[1:]  # delta^-l
    estimates = survivals * scale
    ratios = survivals[:, 1:] / survivals[:, :-1]
    return [
        SurvivalConstant(type_index=j + 1, estimates=estimates[j], ratios=ratios[j], delta=delta)
        for j in range(model.k)
    ]


def _positive(result: SurvivalConstant) -> SurvivalConstant:
    if not result.value > 0.0:
        raise ArithmeticError(
            f"survival constant for type {result.type_index} is not positive: "
            f"{result.value!r}"
        )
    return result


def survival_constant(
    model: BranchingModel,
    j: int,
    l_max: int,
    summary: Optional[SpectralSummary] = None,
) -> SurvivalConstant:
    """Limit constant K_j in survival(l) ~ K_j delta^l from one type-j particle."""
    if summary is None:
        summary = perron_triple(moments(model))
    delta = require_subcritical(summary, "survival constant")
    if not 1 <= j <= model.k:
        raise ValueError(f"type index {j} out of range 1..{model.k}")
    return _positive(_survival_constants(model, l_max, delta)[j - 1])


def survival_constants(
    model: BranchingModel, l_max: int, summary: Optional[SpectralSummary] = None
) -> np.ndarray:
    """K_j for every type, as a 0-based array; also stored on the summary."""
    if summary is None:
        summary = perron_triple(moments(model))
    delta = require_subcritical(summary, "survival constant")
    K = np.array([_positive(c).value for c in _survival_constants(model, l_max, delta)])
    summary.K = K
    return K
