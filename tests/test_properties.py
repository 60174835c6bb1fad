"""Differential property tests on generated models.

Models come from a ``hypothesis`` strategy over one to three types, at most
four atoms per type, stopping sets of one to six states with r0 <= 4 and a
Perron root from 0.2 to 0.95 (to 0.995 for the CLI exit codes, which keep
decomposable and periodic draws, and for the cap doublings of the dense
routes and of the conditional law).  The runs are derandomized and bounded,
so the suite stays deterministic.
"""

import contextlib
import io
import itertools
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from stopbp.exact_engine import (
    CapacityError, absorption_table, enumerate_states, one_step_kernel,
)
from stopbp.genfun import yaglom
from stopbp.cli import main
from stopbp.model import (
    BranchingModel,
    OffspringLaw,
    PopulationState,
    StoppingSet,
    dump_model,
    load_model,
)
from stopbp import spectral
from stopbp.spectral import OutsideTheoremError, moments, perron_triple

from test_exact_engine import assert_matches_dense, assert_solve_matches_renewal

DENSE_CAP = {1: 60, 2: 30, 3: 14}  # dense kernels of 61, 496 and 680 states
DOUBLING_CAP = {1: 12, 2: 8, 3: 6}  # doubled: 25, 325 and 455 states

# each type begets only the other: mean matrix [[0, 0.5], [0.5, 0]], period 2
PERIODIC_TEXT = """\
{"version": 1, "types": ["a", "b"],
 "offspring": [[{"counts": [0, 0], "p": 0.5}, {"counts": [0, 1], "p": 0.5}],
               [{"counts": [0, 0], "p": 0.5}, {"counts": [1, 0], "p": 0.5}]],
 "stopping_set": [[1, 0]]}
"""


@st.composite
def stopped_models(draw, deltas=st.floats(0.2, 0.95)):
    """(model, stopping set, starts), with a zero atom on every type and the
    other atoms scaled so that the Perron root is the drawn delta."""
    k = draw(st.integers(1, 3))
    child = st.sampled_from(list(itertools.product(range(4), repeat=k))[1:])
    atoms = [draw(st.lists(child, min_size=1, max_size=3, unique=True)) for _ in range(k)]
    weights = [draw(st.lists(st.floats(0.1, 1.0), min_size=len(a), max_size=len(a)))
               for a in atoms]
    delta = draw(deltas)
    # every nonzero atom has a child, so the mean matrix of the laws without
    # their zero atoms has Perron root >= 1 >= delta: the scale is below 1
    unscaled = [[(PopulationState(c), w / sum(ws)) for c, w in zip(a, ws)]
                for a, ws in zip(atoms, weights)]
    A = np.array([sum(p * np.array(s.counts) for s, p in law) for law in unscaled])
    scale = delta / max(abs(np.linalg.eigvals(A)))
    laws = tuple(
        OffspringLaw(((PopulationState((0,) * k), 1.0 - scale * sum(p for _, p in law)),)
                     + tuple((s, scale * p) for s, p in law))
        for law in unscaled
    )
    model = BranchingModel(tuple(f"t{i}" for i in range(k)), laws)
    small = [PopulationState(tuple(c)) for c in enumerate_states(k, 4).counts[1:].tolist()]
    members = draw(st.lists(st.sampled_from(small), min_size=1, max_size=6, unique=True))
    stopping = StoppingSet(frozenset(members))
    outside = [s.counts for s in small if s not in stopping]
    assume(outside)
    starts = draw(st.lists(st.sampled_from(outside), min_size=1, max_size=3, unique=True))
    return model, stopping, starts


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(stopped_models())
def test_series_against_dense_and_renewal(case):
    model, stopping, starts = case
    try:
        summary = perron_triple(moments(model))
    except OutsideTheoremError:
        assume(False)
    assert 0.2 - 1e-9 <= summary.delta <= 0.95 + 1e-9
    assert_matches_dense(model, stopping, DENSE_CAP[model.k], starts)
    assert_solve_matches_renewal(model, stopping, starts)


@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(stopped_models(deltas=st.floats(0.2, 0.995) | st.just(0.995)))
@example((*load_model(PERIODIC_TEXT), [(0, 2)]))
def test_cli_exit_codes(case):
    # every command returns 0, 1 or 2 and never raises.  series, yaglom and
    # estimate --what yaglom succeed only on a model that classify accepts;
    # probe, cap-free, at a total of 10^6 returns 0 or 1 and succeeds only
    # where classify does.  The dense commands run at cap 8, which keeps the
    # kernel of k = 3 at 165 states, and Monte Carlo at 300 reps and t = 6
    model, stopping, starts = case
    n = PopulationState(starts[0]).label()
    r = stopping.sorted_members()[0].label()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            fh.write(dump_model(model, stopping))
        out = os.path.join(tmp, "out")

        def run(*argv):
            return main([argv[0], "--model", path, "--out", out, *argv[1:]])

        classify = run("classify")
        series = run("series", "--n", n, "--r", r)
        probe = run("probe", "--n-grid", "1000000", "--r", r)
        stop_prob = run("stop-prob", "--n", n, "--r", r, "--t", "6", "--cap", "8")
        yaglom = run("yaglom", "--j", "1", "--t", "6", "--cap", "8")
        mc = ["--t", "6", "--reps", "300", "--seed", "1"]
        absorption_est = run("estimate", "--what", "absorption", "--n", n, "--r", r, *mc)
        yaglom_est = run("estimate", "--what", "yaglom", "--j", "1", *mc)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            verify = main(["verify", "--model", path, "--cap", "8"])
    assert {classify, series, stop_prob, yaglom, absorption_est, yaglom_est} <= {0, 1, 2}
    for code in (series, yaglom, yaglom_est):
        assert code != 0 or classify == 0
    assert probe in (0, 1) and (probe != 0 or classify == 0)
    # verify raises nothing, prints its twelve checks and skips exactly
    # those whose hypothesis classify finds missing
    lines = printed.getvalue().splitlines()
    assert verify in (0, 1) and len(lines) == 12
    summary = spectral.classify(moments(model))
    skipped = {line.split(": ", 1)[1].split(" (")[0] for line in lines
               if line.startswith("[SKIP]")}
    want = set()
    if summary.period != 1:
        want.add("Perron residuals")
    if summary.period != 1 or summary.criticality != "subcritical":
        want.add("survival constants positive")
    assert skipped == want


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(stopped_models(deltas=st.floats(0.2, 0.995)), st.integers(1, 12))
def test_stop_prob_cap_doubling(case, t):
    # the capped chain loses only the stopped paths that leave the cap; each
    # is a free path, which the overflow sentinel holds from then on, so on
    # every route q(cap) <= q(2 cap) <= q(cap) + overflow_bound(cap), the
    # free chain's overflow mass at t, up to rounding
    model, stopping, starts = case
    starts = [PopulationState(n) for n in starts]
    r = stopping.sorted_members()[-1]
    cap = DOUBLING_CAP[model.k]
    small, big = (
        absorption_table(one_step_kernel(model, enumerate_states(model.k, c)),
                         stopping, starts, r, [t]).rows
        for c in (cap, 2 * cap)
    )
    for a, b in zip(small, big, strict=True):
        assert (a.n, a.method) == (b.n, b.method)
        assert a.q <= b.q <= a.q + a.overflow_bound + 1e-15, (a.n.label(), a.method)


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(stopped_models(deltas=st.floats(0.2, 0.995)), st.integers(1, 3), st.integers(1, 40))
def test_yaglom_cap_doubling(case, j, t):
    # the overflow sentinel counts as alive.  A path that stays within the
    # cap is the same at 2 cap, so the mass at each state beta within the
    # cap can only grow, while the alive mass can only shrink, by at most
    # the sentinel's share d of it: p_cap <= p_2cap <= (p_cap + d) / (1 - d),
    # which is at most p_cap + 2 d / (1 - d).  Up to rounding: the two
    # spaces sum each step in different orders, which in 300 draws moved a
    # probability by at most 1.8 eps of it, so both sides allow 1e-14 of it
    model, _, _ = case
    j = min(j, model.k)
    cap = DOUBLING_CAP[model.k]
    try:
        small, big = (yaglom(model, enumerate_states(model.k, c), j, t) for c in (cap, 2 * cap))
    except CapacityError:  # a deficit of 1 % or more at the cap
        assume(False)
    n = small.space.n_states
    assert np.array_equal(big.space.counts[:n], small.space.counts)
    d = small.deficit
    slack = 1e-14 * small.p
    assert np.all(small.p <= big.p[:n] + slack)
    assert np.all(big.p[:n] <= small.p + 2 * d / (1 - d) + slack)
