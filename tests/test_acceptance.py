"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Criterion 8 is expected to fail; see the companion test
below it and notes/decisions.md at the repository root for the analysis.
"""

import time

import numpy as np
import pytest

from stopbp import asymptotics, exact_engine, genfun, invariants, montecarlo, spectral
from stopbp.model import PopulationState, unit_state

S = PopulationState


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


@pytest.fixture(scope="module")
def m1_summary(m1):
    model, _ = m1
    return spectral.perron_triple(spectral.moments(model))


@pytest.fixture(scope="module")
def m2_summary(m2):
    model, _ = m2
    return spectral.perron_triple(spectral.moments(model))


@pytest.fixture(scope="module")
def kernels60(m1, m2):
    out = {}
    for name, (model, stopping) in (("m1", m1), ("m2", m2)):
        space = exact_engine.enumerate_states(model.k, 60)
        out[name] = (exact_engine.one_step_kernel(model, space), stopping)
    return out


PROBE_GRID = [int(x) for x in np.unique(np.round(np.geomspace(100, 500, 12)))]


@pytest.fixture(scope="module")
def probe_fine(m1):
    model, stopping = m1
    start = time.perf_counter()
    probe = asymptotics.periodicity_probe(model, stopping, S((2,)), [1.0], PROBE_GRID)
    return probe, time.perf_counter() - start


@pytest.fixture(scope="module")
def probe_coarse(m1):
    # the probe is cap-free, so its one truncation is the series tolerance
    model, stopping = m1
    return asymptotics.periodicity_probe(
        model, stopping, S((2,)), [1.0], PROBE_GRID, tol=1e-6
    )


def test_c01_three_route_equality(kernels60):
    start = time.perf_counter()
    worst_df, worst_dp = 0.0, 0.0
    t_max = 20
    for name, (kernel, stopping) in kernels60.items():
        space = kernel.space
        restricted = exact_engine.restricted_kernel(kernel, stopping, t_max)
        coeffs = exact_engine.stop_coefficients(restricted)
        r = stopping.sorted_members()[0]
        r_idx = restricted.targets.index(r)
        direct = exact_engine.stopped_hitting_column(kernel, stopping, r, t_max)
        partial = np.cumsum(restricted.values[:, :, r_idx], axis=0)
        free = exact_engine.hitting_columns(kernel, coeffs.states, t_max)
        valid = np.ones(space.size, dtype=bool)
        valid[[0, space.overflow]] = False
        valid[[space.ordinal(m) for m in stopping]] = False
        for t in range(1, t_max + 1):
            formula = np.zeros(space.size)
            for l in range(1, t + 1):
                formula += free[l] @ coeffs.first_column[:, r_idx, t - l]
            worst_df = max(worst_df, float(np.max(np.abs(
                formula[valid] - direct[t][valid]))))
            worst_dp = max(worst_dp, float(np.max(np.abs(
                partial[t - 1][valid] - direct[t][valid]))))
    elapsed = time.perf_counter() - start
    ok = worst_df <= 1e-10 and worst_dp <= 1e-12 and elapsed < 10.0
    report(1, ok, f"three-route equality: |formula-direct|={worst_df:.2e} (tol 1e-10), "
                  f"|partial-direct|={worst_dp:.2e} (tol 1e-12), {elapsed:.2f}s (<10s)")
    assert worst_df <= 1e-10
    assert worst_dp <= 1e-12
    assert elapsed < 10.0


def test_c02_first_passage_identity(kernels60):
    checks = [
        invariants.first_passage_dual_route(
            kernel, exact_engine.restricted_kernel(kernel, stopping, 12), tol=1e-12)
        for kernel, stopping in kernels60.values()
    ]
    ok = all(passed for passed, _ in checks)
    report(2, ok, "first-passage dual-route identity: "
                  + ", ".join(detail for _, detail in checks) + " (tol 1e-12)")
    for passed, detail in checks:
        assert passed, detail


def test_c03_composition_and_semigroup(m1, m2):
    rng = np.random.default_rng(314)
    composition, semigroup = [], []
    for model, _ in (m1, m2):
        cap = 60 if model.k == 1 else 25
        kernel = exact_engine.one_step_kernel(
            model, exact_engine.enumerate_states(model.k, cap)
        )
        splits = [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(5)]
        composition.append(invariants.kernel_composition(kernel, splits, tol=1e-12))
    for model, _ in (m1, m2):
        for _ in range(20):
            s = rng.uniform(0.0, 1.0, size=model.k)
            t, tau = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            semigroup.append(invariants.generating_semigroup(model, s, t, tau, tol=1e-12))
    passed = sum(ok for ok, _ in semigroup)
    ok = passed == len(semigroup) and all(ok for ok, _ in composition)
    report(3, ok, ", ".join(detail for _, detail in composition)
           + f", semigroup within tol in {passed} of {len(semigroup)} draws (tol 1e-12)")
    for ok, detail in composition + semigroup:
        assert ok, detail


def test_c04_perron_triple(m2_summary):
    s = m2_summary
    dev = max(
        abs(s.delta - 0.6),
        float(np.max(np.abs(s.nu - np.array([2 / 3, 1 / 3])))),
        float(np.max(np.abs(s.f - np.array([9 / 8, 3 / 4])))),
    )
    residual_ok, residual = invariants.perron_residuals(s, tol=1e-10)
    ok = dev <= 1e-9 and residual_ok
    report(4, ok, f"Perron triple: max deviation={dev:.2e} (tol 1e-9), "
                  f"{residual} (tol 1e-10)")
    assert dev <= 1e-9
    assert residual_ok, residual


def test_c05_moment_asymptotics(m2, m2_summary):
    model, _ = m2
    e = spectral.moment_asymptotics(spectral.moments(model), m2_summary, 40)
    ratios = e[5:26] / e[4:25]  # e(t+1)/e(t) for t = 5..25
    worst_ratio = float(np.max(np.abs(ratios - 1 / 3)))
    ok = e[39] <= 1e-6 and worst_ratio <= 0.05
    report(5, ok, f"moment asymptotics: e(40)={e[39]:.2e} (tol 1e-6), "
                  f"ratio dev={worst_ratio:.3f} (tol 0.05)")
    assert e[39] <= 1e-6
    assert worst_ratio <= 0.05


def test_c06_survival_constant(m1):
    model, _ = m1
    sc = spectral.survival_constant(model, 1, 80)
    ratio_dev = float(np.max(np.abs(sc.ratios[49:] - 0.6)))
    k_gap = abs(float(sc.estimates[59] - sc.estimates[79]))
    ok = ratio_dev <= 1e-6 and k_gap <= 1e-8 and sc.value > 0
    report(6, ok, f"survival constant: ratio dev={ratio_dev:.2e} (tol 1e-6), "
                  f"K(60)-K(80)={k_gap:.2e} (tol 1e-8), K={sc.value:.6f}>0")
    assert ratio_dev <= 1e-6
    assert k_gap <= 1e-8
    assert sc.value > 0


def test_c07_survival_inequalities(m1, m2):
    rng = np.random.default_rng(2718)
    checks = []
    for model, _ in (m1, m2):
        s = rng.uniform(0.0, 1.0, size=(1000, model.k))
        checks.append(invariants.survival_bounds(model, s, range(1, 31), tol=1e-12))
        checks.append(invariants.mean_dominance(model, s, tol=1e-12))
    ok = all(passed for passed, _ in checks)
    report(7, ok, "survival inequalities + mean dominance (tol 1e-12): "
                  + ", ".join(detail for _, detail in checks))
    for passed, detail in checks:
        assert passed, detail


def test_c08_ratio_limit_as_specified(m2, m2_summary):
    # Expected to FAIL: the claimed limit (the invariant measure) is not
    # what the ratio converges to; see notes/decisions.md.  The companion
    # test below verifies the true limit at the same tolerance.
    model, _ = m2
    grid = genfun.make_s_grid(2, 16)[:25]
    table = genfun.ratio_limit(model, m2_summary, 1, grid, 40, t_record=[40])
    dev = table.worst_deviation_nu(40)
    ok = dev <= 1e-4
    report(8, ok, f"ratio limit vs invariant measure: deviation={dev:.4f} "
                  f"(tol 1e-4); measured limit={np.round(table.records[0].ratios, 6)} "
                  f"= f/f_k^2, not nu={np.round(table.target_nu, 6)}")
    assert dev <= 1e-4


def test_c08_companion_ratio_limit_true_target(m2, m2_summary):
    model, _ = m2
    grid = genfun.make_s_grid(2, 16)[:25]
    table = genfun.ratio_limit(model, m2_summary, 1, grid, 40, t_record=[40])
    dev = table.worst_deviation_fixed_point(40)
    ok = dev <= 1e-4
    report(8, ok, f"(companion) ratio limit vs eigen direction f/f_k^2: "
                  f"deviation={dev:.2e} (tol 1e-4)")
    assert dev <= 1e-4


def test_c09_yaglom(m1, m2, m1_summary):
    model1, _ = m1
    space1 = exact_engine.enumerate_states(1, 400)
    data1 = genfun.yaglom(model1, space1, 1, 60)
    residual = genfun.yaglom_residual(
        model1, data1, m1_summary, genfun.make_s_grid(1, 50)
    ).max_residual

    model2, _ = m2
    space2 = exact_engine.enumerate_states(2, 40)
    a = genfun.yaglom(model2, space2, 1, 60)
    b = genfun.yaglom(model2, space2, 2, 60)
    tv = a.tv_distance(b)
    # positivity of the single-particle states is asserted on the model
    # where single-offspring transitions exist (see notes/decisions.md);
    # the other model provably puts zero mass there by parity
    assert genfun.single_offspring_reachable(model2)
    unit_min = min(a.probability(unit_state(i, 2)) for i in (1, 2))
    mean_ok = data1.mean_vector().sum() > 0 and a.mean_vector().sum() > 0
    even_support = all(s.total % 2 == 0 for s in data1.support())
    ok = residual <= 1e-3 and tv <= 1e-3 and unit_min > 0 and mean_ok and even_support
    report(9, ok, f"yaglom: residual={residual:.2e} (tol 1e-3), "
                  f"source TV={tv:.2e} (tol 1e-3), min unit mass={unit_min:.3e}>0, "
                  f"means positive, single-type support even as required")
    assert residual <= 1e-3
    assert tv <= 1e-3
    assert unit_min > 0
    assert mean_ok
    assert even_support


def test_c10_monte_carlo_battery(m1, m2, kernels60):
    model1, stop1 = m1
    model2, stop2 = m2
    kernel2, _ = kernels60["m2"]
    column = exact_engine.stopped_hitting_column(kernel2, stop2, S((1, 0)), 10)
    exact_m2 = column[10, kernel2.space.ordinal(S((0, 2)))]
    exact_yag = float(genfun.survival_path(model1, 6, np.ones(1))[-1][0])

    reps = 100_000
    batteries = {
        "absorption-m1": lambda seed: montecarlo.estimate_absorption(
            S((1,)), S((2,)), stop1, model1, 5, reps, seed
        ).within(0.3),
        "absorption-m2": lambda seed: montecarlo.estimate_absorption(
            S((0, 2)), S((1, 0)), stop2, model2, 10, reps, seed
        ).within(exact_m2),
        "yaglom-frequency-m1": lambda seed: (
            lambda est: abs(est.conditioning_frequency - exact_yag)
            <= 4.0 * est.conditioning_stderr
        )(montecarlo.estimate_yaglom(1, model1, 6, reps, seed)),
    }
    results = {}
    for name, battery in batteries.items():
        passes = sum(battery(seed) for seed in range(100))
        results[name] = passes

    workers_match = True
    base = montecarlo.estimate_absorption(
        S((0, 2)), S((1, 0)), stop2, model2, 10, 20_000, 777, workers=1
    )
    for w in (2, 3, 8):
        other = montecarlo.estimate_absorption(
            S((0, 2)), S((1, 0)), stop2, model2, 10, 20_000, 777, workers=w
        )
        workers_match &= other.value == base.value and other.hits == base.hits

    ok = all(p >= 99 for p in results.values()) and workers_match
    report(10, ok, f"Monte Carlo battery (100 seeds x 1e5 reps, 4-sigma): "
                   f"{results} (need >=99); worker bit-exactness={workers_match}")
    for name, passes in results.items():
        assert passes >= 99, name
    assert workers_match


def test_c11_periodicity_probe(probe_fine):
    probe, elapsed = probe_fine
    defects = [row.defect for row in probe.main_rows()]
    worst = max(defects)
    increases = max(
        (later - earlier for earlier, later in zip(defects, defects[1:])),
        default=0.0,
    )
    ok = worst <= 0.02 and increases <= 0.005 and elapsed < 60.0
    report(11, ok, f"periodicity probe: max defect={worst:.2e} (tol 0.02), "
                   f"max increase={increases:.2e} (slack 0.005), "
                   f"{elapsed:.1f}s (<60s)")
    assert worst <= 0.02
    assert increases <= 0.005
    assert elapsed < 60.0


def test_c12_theta_positive_and_stable(probe_fine, probe_coarse):
    probe_hi, _ = probe_fine
    theta_hi = probe_hi.theta
    theta_lo = probe_coarse.theta
    rel = abs(theta_hi - theta_lo) / theta_hi
    ok = theta_hi > 0 and theta_lo > 0 and rel <= 0.10
    report(12, ok, f"theta: tol 1e-9={theta_hi:.6f}, tol 1e-6={theta_lo:.6f}, "
                   f"relative gap={rel:.2e} (tol 10%)")
    assert theta_hi > 0 and theta_lo > 0
    assert rel <= 0.10


def test_c13_cyclic_basis_machinery(m1, m1_summary):
    model, stopping = m1
    spectral.survival_constants(model, 60, m1_summary)
    cyclic = asymptotics.build_cyclic_model(m1_summary, [1.0], stopping)
    rng = np.random.default_rng(99)
    worst_excess = -np.inf
    for x in rng.uniform(0.0, 1.0, size=100):
        j = int(rng.integers(1, cyclic.r0 + 1))
        a = asymptotics.eval_Hj(float(x), j, cyclic.delta, cyclic.aK)
        b = asymptotics.eval_Hj(float(x) + 1.0, j, cyclic.delta, cyclic.aK)
        worst_excess = max(
            worst_excess, abs(a.value - b.value) - (a.tail_bound + b.tail_bound)
        )
    defect_ok = worst_excess <= 0.0

    synthetic = asymptotics.CyclicModel(delta=0.3, aK=1.0, r0=2)
    xs = np.linspace(0.0, 0.975, 40)
    truth = np.array([0.2, 0.05])
    rows = [
        asymptotics.ProbeRow(
            state=S((1,)), nbar=0, x_frac=float(x),
            q=float(np.dot(truth, synthetic.basis(float(x)))),
            series_bound=0.0,
        )
        for x in xs
    ]
    probe = asymptotics.ProbeReport(target=S((2,)), delta=0.3, rows=rows)
    fit = asymptotics.fit_cyclic_amplitudes(probe, synthetic)
    rec_err = float(np.max(np.abs(fit.amplitudes - truth)))
    ok = defect_ok and rec_err <= 1e-6
    report(13, ok, f"cyclic basis: period defect within bound "
                   f"(worst excess={worst_excess:.2e}), amplitude recovery "
                   f"error={rec_err:.2e} (tol 1e-6)")
    assert defect_ok
    assert rec_err <= 1e-6
