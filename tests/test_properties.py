"""Differential property tests on generated models.

Models come from a ``hypothesis`` strategy over one to three types, at most
four atoms per type, stopping sets of one to six states with r0 <= 4 and a
Perron root from 0.2 to 0.95 (to 0.995 for the CLI exit codes, which keep
decomposable and periodic draws).  The runs are derandomized and bounded,
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

from stopbp.exact_engine import enumerate_states
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
    # classify and series return 0, 1 or 2 and never raise; series succeeds
    # only on a model that classify accepts.  probe, cap-free, at a total of
    # 10^6 returns 0 or 1 and succeeds only where classify does
    model, stopping, starts = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            fh.write(dump_model(model, stopping))
        out = os.path.join(tmp, "out")
        classify = main(["classify", "--model", path, "--out", out])
        series = main([
            "series", "--model", path, "--out", out,
            "--n", PopulationState(starts[0]).label(),
            "--r", stopping.sorted_members()[0].label(),
        ])
        probe = main([
            "probe", "--model", path, "--out", out, "--n-grid", "1000000",
            "--r", stopping.sorted_members()[0].label(),
        ])
        # cap 8 keeps the kernel of k = 3 at 165 states
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            verify = main(["verify", "--model", path, "--cap", "8"])
    assert classify in (0, 1, 2) and series in (0, 1, 2)
    assert series != 0 or classify == 0
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
