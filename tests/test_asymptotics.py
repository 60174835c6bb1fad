import numpy as np
import pytest

from stopbp.asymptotics import (
    AmplitudeFit,
    CyclicModel,
    ProbeReport,
    ProbeRow,
    RankDeficiencyError,
    build_cyclic_model,
    eval_Hj,
    fit_cyclic_amplitudes,
    periodicity_probe,
    round_to_direction,
)
from stopbp.model import BranchingModel, PopulationState, StoppingSet
from stopbp.spectral import moments, perron_triple, survival_constants
from test_spectral import _permute_law

S = PopulationState


@pytest.fixture(scope="module")
def m1_summary_with_k(m1):
    model, _ = m1
    summary = perron_triple(moments(model))
    survival_constants(model, 60, summary)
    return summary


@pytest.fixture(scope="module")
def m1_probe(m1):
    model, stopping = m1
    return periodicity_probe(model, stopping, S((2,)), [1.0], [40, 55, 75, 100])


def fourier_Hj(x, j, delta, aK, dps=40):
    """H_j(x) to ``dps`` digits by Poisson summation: with s = -ln delta and
    tau = 2 pi / s, H_j(x) = (1/s) sum_k Gamma(j + i tau k) aK^-(j + i tau k)
    e^(2 pi i k x), whose terms fall monotonically in |k|."""
    import mpmath

    with mpmath.workdps(dps + 10):
        s = -mpmath.log(mpmath.mpf(delta))
        tau = 2 * mpmath.pi / s
        log_aK = mpmath.log(mpmath.mpf(aK))
        mean = mpmath.gamma(j) * mpmath.exp(-j * log_aK)
        total, k = mean, 1
        while True:
            arg = j + 1j * tau * k
            phase = 2j * mpmath.pi * k * mpmath.mpf(x)
            term = mpmath.gamma(arg) * mpmath.exp(phase - arg * log_aK)
            total += 2 * term.real
            if abs(term) < mpmath.mpf(10) ** (-dps - 5) * mean:
                return total / s
            k += 1


def assert_within_bound(got, x, j, delta, aK):
    import mpmath

    exact = fourier_Hj(x, j, delta, aK)
    assert abs(mpmath.mpf(got.value) - exact) <= got.tail_bound, (x, j, delta, aK)


class TestEvalHj:
    def test_against_mpmath(self):
        # independent high-precision oracle over a much wider window
        import mpmath

        mpmath.mp.dps = 50
        oracle = mpmath.nsum(
            lambda L: mpmath.mpf(0.5) ** L * mpmath.e ** (-(mpmath.mpf(0.5) ** L)),
            [-200, 400],
        )
        got = eval_Hj(0.0, 1, 0.5, 1.0)
        assert got.value == pytest.approx(float(oracle), abs=1e-13)
        # the Fourier oracle of the tests below gives the same sum
        assert abs(fourier_Hj(0.0, 1, 0.5, 1.0) - oracle) <= mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("delta", [0.05, 0.6, 0.921, 0.97, 0.99, 0.995])
    def test_window_is_derived(self, delta):
        # each value lies within its bound, whose truncation part is at most
        # eps of the value and whose whole, rounding included, is 1e-13 of it
        for j in range(1, 11):
            for aK in (1e-2, 1e-1, 1.0, 10.0, 1e2):
                got = eval_Hj(0.3, j, delta, aK)
                assert_within_bound(got, 0.3, j, delta, aK)
                assert got.truncation <= np.finfo(float).eps * got.value
                assert got.tail_bound <= 1e-13 * got.value

    def test_bound_covers_rounding(self):
        # the rounding term carries the error of each exp argument, which
        # 2 eps times the sum of the terms did not
        rng = np.random.default_rng(300)
        for _ in range(300):
            delta = float(rng.uniform(0.02, 0.995))
            j = int(rng.integers(1, 12))
            aK = float(10 ** rng.uniform(-2.0, 2.0))
            x = float(rng.uniform(0.0, 2.0))
            assert_within_bound(eval_Hj(x, j, delta, aK), x, j, delta, aK)

    def test_period_defect_within_bound(self):
        rng = np.random.default_rng(2024)
        for delta, aK in [(0.5, 1.0), (0.6, 0.33), (0.3, 2.0), (0.9, 0.1), (0.99, 1.0)]:
            for j in (1, 2, 3):
                for x in rng.uniform(0.0, 1.0, size=25):
                    a = eval_Hj(float(x), j, delta, aK)
                    b = eval_Hj(float(x) + 1.0, j, delta, aK)
                    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound

    def test_positive(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.0, 1.0, size=50):
            assert eval_Hj(float(x), 1, 0.6, 0.33).value > 0.0

    def test_monotone_in_aK(self):
        lo = eval_Hj(0.4, 1, 0.6, 0.2)
        hi = eval_Hj(0.4, 1, 0.6, 0.8)
        assert hi.value < lo.value

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="aK"):
            eval_Hj(0.0, 1, 0.5, 0.0)
        with pytest.raises(ValueError, match="delta"):
            eval_Hj(0.0, 1, 1.2, 1.0)
        with pytest.raises(ValueError, match="j"):
            eval_Hj(0.0, 0, 0.5, 1.0)


class TestCyclicModel:
    def test_single_type_aK_is_K(self, m1_summary_with_k, m1):
        _, stopping = m1
        cyclic = build_cyclic_model(m1_summary_with_k, [1.0], stopping)
        assert cyclic.aK == pytest.approx(float(m1_summary_with_k.K[0]))
        assert cyclic.r0 == 2

    def test_m2_even_mix(self, m2):
        model, stopping = m2
        summary = perron_triple(moments(model))
        survival_constants(model, 60, summary)
        cyclic = build_cyclic_model(summary, [0.5, 0.5], stopping)
        assert cyclic.aK == pytest.approx(0.5 * float(summary.K.sum()))
        assert cyclic.r0 == 1

    def test_aK_permutation_invariant(self, m2):
        # relabelling the types permutes delta's eigenproblem, so the whole
        # chain perron_triple -> survival_constants -> aK agrees up to rounding
        model, stopping = m2
        swapped = BranchingModel(
            model.type_names[::-1], tuple(_permute_law(law) for law in model.laws[::-1])
        )
        swapped_stopping = StoppingSet(
            frozenset(S(m.counts[::-1]) for m in stopping.members)
        )
        a = np.array([0.3, 0.7])
        aK = []
        for m, st, direction in ((model, stopping, a), (swapped, swapped_stopping, a[::-1])):
            summary = perron_triple(moments(m))
            survival_constants(m, 60, summary)
            aK.append(build_cyclic_model(summary, direction, st).aK)
        assert abs(aK[0] - aK[1]) <= 8 * np.spacing(aK[0])

    def test_requires_constants(self, m1):
        model, stopping = m1
        summary = perron_triple(moments(model))
        with pytest.raises(ValueError, match="survival constants"):
            build_cyclic_model(summary, [1.0], stopping)

    def test_bad_direction(self, m1_summary_with_k, m1):
        _, stopping = m1
        with pytest.raises(ValueError, match="sum to 1"):
            build_cyclic_model(m1_summary_with_k, [0.5], stopping)


class TestRoundToDirection:
    def test_exact_total(self):
        for nbar in (1, 7, 100, 333):
            state = round_to_direction(nbar, [0.25, 0.75])
            assert state.total == nbar

    def test_single_type(self):
        assert round_to_direction(42, [1.0]) == S((42,))

    def test_largest_remainder(self):
        # 10 * (0.24, 0.38, 0.38) = (2.4, 3.8, 3.8): floors (2, 3, 3),
        # two leftovers go to the two largest fractions
        state = round_to_direction(10, [0.24, 0.38, 0.38])
        assert state == S((2, 4, 4))


class TestPeriodicityProbe:
    def test_rows_and_partners(self, m1_probe):
        main = m1_probe.main_rows()
        assert len(main) == 4
        assert len(m1_probe.rows) == 8
        for row in main:
            assert row.defect is not None
            assert row.partner_nbar == int(round(row.nbar / m1_probe.delta))

    def test_defects_small_and_decreasing(self, m1_probe):
        defects = [row.defect for row in m1_probe.main_rows()]
        assert all(d <= 0.02 for d in defects)
        for earlier, later in zip(defects, defects[1:]):
            assert later <= earlier + 0.005

    def test_theta_positive(self, m1_probe):
        assert m1_probe.theta > 0.0

    def test_x_frac_in_unit_interval(self, m1_probe):
        for row in m1_probe.rows:
            assert 0.0 <= row.x_frac < 1.0

    def test_tiny_grid_flagged_pre_asymptotic(self, m1):
        model, stopping = m1
        report = periodicity_probe(model, stopping, S((2,)), [1.0], [3, 4])
        assert all(row.pre_asymptotic for row in report.main_rows())

    def test_adjusts_start_out_of_stopping_set(self, m1):
        # nbar = 2 rounds exactly onto the stopping state and is nudged
        model, stopping = m1
        report = periodicity_probe(model, stopping, S((2,)), [1.0], [2])
        assert report.main_rows()[0].state not in stopping

    def test_supercritical_rejected(self, supercritical):
        model, stopping = supercritical
        with pytest.raises(ValueError, match="subcritical"):
            periodicity_probe(model, stopping, S((2,)), [1.0], [50])

    def test_rows_certified_to_tol(self, m1):
        # each start reads the series at its own horizon, the first step at
        # which its geometric tail bound drops below tol, so no row's bound,
        # not even the largest start's, passes tol
        model, stopping = m1
        tol = 1e-9
        report = periodicity_probe(
            model, stopping, S((2,)), [1.0], [70, 150, 300, 800], tol=tol
        )
        assert max(row.nbar for row in report.rows) > 800
        for row in report.rows:
            assert row.series_bound <= tol, row.nbar

    def test_csv(self, m1_probe, tmp_path):
        path = tmp_path / "probe.csv"
        with open(path, "w") as fh:
            m1_probe.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,nbar,x_frac,q,overflow_bound,self_similarity_defect,series_bound"
        assert len(lines) == 1 + len(m1_probe.rows)


class TestAmplitudeFit:
    def _synthetic(self, cyclic, xs, c):
        rows = [
            ProbeRow(
                state=S((1,)),
                nbar=0,
                x_frac=float(x),
                q=float(np.dot(c, cyclic.basis(float(x)))),
                series_bound=0.0,
            )
            for x in xs
        ]
        return ProbeReport(target=S((2,)), delta=cyclic.delta, rows=rows)

    def test_recovers_synthetic_amplitudes(self):
        # delta = 0.3 gives a visibly oscillating basis (design condition
        # ~1.7e2); at delta near 1 the two basis functions are numerically
        # collinear and no float64 solver can separate them
        cyclic = CyclicModel(delta=0.3, aK=1.0, r0=2)
        xs = np.linspace(0.0, 0.975, 40)
        truth = np.array([0.2, 0.05])
        probe = self._synthetic(cyclic, xs, truth)
        fit = fit_cyclic_amplitudes(probe, cyclic)
        np.testing.assert_allclose(fit.amplitudes, truth, atol=1e-6)
        assert fit.rms_residual < 1e-9
        assert cyclic.amplitudes is fit.amplitudes
        value, bound = cyclic.evaluate(0.5)
        assert value == pytest.approx(float(np.dot(truth, cyclic.basis(0.5))), abs=1e-6)
        # the bound carries each basis bound out, weighted by |c_j|
        bounds = [eval_Hj(0.5, j, 0.3, 1.0).tail_bound for j in (1, 2)]
        assert bound == pytest.approx(float(np.dot(np.abs(fit.amplitudes), bounds)))
        assert 0.0 < bound <= 1e-13 * value

    def test_zero_signal(self, m1_summary_with_k, m1):
        _, stopping = m1
        cyclic = build_cyclic_model(m1_summary_with_k, [1.0], stopping)
        probe = self._synthetic(cyclic, np.linspace(0, 0.9, 10), np.zeros(2))
        fit = fit_cyclic_amplitudes(probe, cyclic)
        np.testing.assert_allclose(fit.amplitudes, 0.0, atol=1e-12)
        assert fit.rms_residual <= 1e-12

    def test_real_probe_fit_reports_residual(self, m1_probe, m1_summary_with_k, m1):
        _, stopping = m1
        cyclic = build_cyclic_model(m1_summary_with_k, [1.0], stopping)
        fit = fit_cyclic_amplitudes(m1_probe, cyclic)
        assert isinstance(fit, AmplitudeFit)
        assert np.isfinite(fit.rms_residual)
        # fitted curve reproduces the probe level
        level = np.mean([row.q for row in m1_probe.rows])
        value, _ = cyclic.evaluate(0.5)
        assert value == pytest.approx(level, rel=0.05)

    def test_rank_deficiency(self, m1_summary_with_k, m1):
        _, stopping = m1
        cyclic = build_cyclic_model(m1_summary_with_k, [1.0], stopping)
        probe = self._synthetic(cyclic, np.full(8, 0.25), np.array([0.2, 0.05]))
        with pytest.raises(RankDeficiencyError):
            fit_cyclic_amplitudes(probe, cyclic)

    def test_too_few_rows(self, m1_summary_with_k, m1):
        _, stopping = m1
        cyclic = build_cyclic_model(m1_summary_with_k, [1.0], stopping)
        probe = self._synthetic(cyclic, [0.1, 0.6], np.array([0.2, 0.05]))
        with pytest.raises(ValueError, match="at least"):
            fit_cyclic_amplitudes(probe, cyclic)
