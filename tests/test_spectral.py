import numpy as np
import pytest

from stopbp.exact_engine import enumerate_states, one_step_kernel
from stopbp.model import BranchingModel, OffspringLaw, PopulationState, unit_state
from stopbp.spectral import (
    MomentData,
    OutsideTheoremError,
    classify,
    first_moments,
    graph_period,
    is_strongly_connected,
    moment_asymptotics,
    moments,
    perron_triple,
    require_subcritical,
    second_moments,
    survival_constant,
    survival_constants,
)


def law(*atoms):
    return OffspringLaw(tuple((PopulationState(c), p) for c, p in atoms))


@pytest.fixture(scope="module")
def m2_summary(m2):
    model, _ = m2
    return perron_triple(moments(model))


class TestFirstMoments:
    def test_m1(self, m1):
        # 0.7 * 0 + 0.3 * 2 = 0.6
        model, _ = m1
        np.testing.assert_allclose(first_moments(model), [[0.6]], atol=1e-15)

    def test_m2(self, m2):
        model, _ = m2
        np.testing.assert_allclose(
            first_moments(model), [[0.4, 0.3], [0.4, 0.0]], atol=1e-15
        )

    def test_degenerate(self):
        model = BranchingModel(("a", "b"), (law(((0, 0), 1.0)), law(((0, 0), 1.0))))
        np.testing.assert_array_equal(first_moments(model), np.zeros((2, 2)))

    def test_matches_kernel_row_means(self, m2):
        # expected offspring counts from the one-step kernel rows for unit
        # starts must reproduce the mean matrix (cap high enough that no
        # mass overflows)
        model, _ = m2
        space = enumerate_states(2, 10)
        kernel = one_step_kernel(model, space)
        counts = space.counts
        A = first_moments(model)
        for i in (1, 2):
            row = kernel.matrix[space.ordinal(unit_state(i, 2))]
            mean = row[: space.n_states] @ counts
            np.testing.assert_allclose(mean, A[i - 1], atol=1e-13)


class TestSecondMoments:
    def test_m1(self, m1):
        # only the two-child atom contributes: 0.3 * 2 * 1 = 0.6
        model, _ = m1
        np.testing.assert_allclose(second_moments(model), [[[0.6]]], atol=1e-15)

    def test_deterministic_single_child(self):
        model = BranchingModel(("a",), (law(((1,), 1.0)),))
        np.testing.assert_array_equal(second_moments(model), np.zeros((1, 1, 1)))

    def test_symmetry(self, m2):
        model, _ = m2
        B = second_moments(model)
        np.testing.assert_array_equal(B, B.transpose(0, 2, 1))


class TestClassify:
    def test_m2(self, m2):
        model, _ = m2
        c = classify(moments(model))
        assert c.indecomposable
        assert c.period == 1
        assert c.criticality == "subcritical"
        assert c.delta == pytest.approx(0.6, abs=1e-12)

    def test_block_diagonal_decomposable(self):
        model = BranchingModel(
            ("a", "b"),
            (
                law(((0, 0), 0.5), ((1, 0), 0.5)),
                law(((0, 0), 0.5), ((0, 1), 0.5)),
            ),
        )
        c = classify(moments(model))
        assert not c.indecomposable
        assert c.period is None

    def test_supercritical_single_type(self):
        model = BranchingModel(("a",), (law(((2,), 1.0)),))
        c = classify(moments(model))
        assert c.indecomposable and c.period == 1
        assert c.criticality == "supercritical"
        assert c.delta == pytest.approx(2.0, abs=1e-12)

    def test_periodic_two_cycle(self):
        model = BranchingModel(
            ("a", "b"),
            (law(((0, 1), 1.0)), law(((1, 0), 1.0))),
        )
        c = classify(moments(model))
        assert c.indecomposable
        assert c.period == 2

    def test_identity_mean_is_boundary(self):
        model = BranchingModel(("a",), (law(((1,), 1.0)),))
        c = classify(moments(model))
        assert c.period == 1
        assert c.criticality == "boundary"

    def test_critical_with_variance(self):
        model = BranchingModel(("a",), (law(((0,), 0.5), ((2,), 0.5)),))
        c = classify(moments(model))
        assert c.criticality == "critical"

    def test_same_solve_as_perron_triple(self, m2):
        model, _ = m2
        c = classify(moments(model))
        assert c.delta == perron_triple(moments(model)).delta
        assert c.residual_f == perron_triple(moments(model)).residual_f

    def test_decomposable_has_no_perron_vectors(self):
        model = BranchingModel(
            ("a", "b"),
            (law(((0, 0), 0.5), ((1, 0), 0.5)), law(((0, 0), 0.7), ((0, 1), 0.3))),
        )
        c = classify(moments(model))
        assert c.f is None and c.nu is None and c.residual_f is None
        assert c.delta == pytest.approx(0.5, abs=1e-12)


class TestGraph:
    def test_strongly_connected(self):
        assert is_strongly_connected(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not is_strongly_connected(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_period_with_self_loop(self):
        assert graph_period(np.array([[0.4, 0.3], [0.4, 0.0]])) == 1

    def test_period_three_cycle(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 2] = A[2, 0] = 1.0
        assert graph_period(A) == 3


class TestSpectralRadius:
    def test_against_numpy_eig(self, m2):
        model, _ = m2
        A = first_moments(model)
        oracle = max(abs(np.linalg.eigvals(A)))
        assert classify(moments(model)).delta == pytest.approx(oracle, abs=1e-12)

    def test_periodic_matrix(self):
        A = np.array([[0.0, 2.0], [0.5, 0.0]])  # eigenvalues +/- 1
        summary = classify(MomentData(A=A, B=np.zeros((2, 2, 2))))
        assert summary.delta == pytest.approx(1.0, abs=1e-10)


class TestPerronTriple:
    def test_m1_trivial(self, m1):
        model, _ = m1
        s = perron_triple(moments(model))
        assert s.delta == pytest.approx(0.6, abs=1e-14)
        np.testing.assert_allclose(s.f, [1.0], atol=1e-14)
        np.testing.assert_allclose(s.nu, [1.0], atol=1e-14)

    def test_m2_hand_eigensolve(self, m2_summary):
        # characteristic polynomial lambda^2 - 0.4 lambda - 0.12 has roots
        # 0.6 and -0.2; solving nu A = 0.6 nu with sum(nu) = 1 gives
        # (2/3, 1/3); A f = 0.6 f with sum(f nu) = 1 gives (9/8, 3/4)
        s = m2_summary
        assert s.delta == pytest.approx(0.6, abs=1e-12)
        np.testing.assert_allclose(s.nu, [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(s.f, [9 / 8, 3 / 4], atol=1e-12)

    def test_residuals(self, m1, m2):
        for model, _ in (m1, m2):
            s = perron_triple(moments(model))
            assert s.residual_f < 1e-10
            assert s.residual_nu < 1e-10

    def test_normalizations(self, m2_summary):
        assert float(m2_summary.nu.sum()) == pytest.approx(1.0, abs=1e-13)
        assert float(np.dot(m2_summary.f, m2_summary.nu)) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_decomposable_rejected(self):
        model = BranchingModel(
            ("a", "b"),
            (law(((0, 0), 0.5), ((1, 0), 0.5)), law(((0, 0), 0.5), ((0, 1), 0.5))),
        )
        with pytest.raises(ValueError, match="decomposable"):
            perron_triple(moments(model))

    def test_periodic_rejected(self):
        model = BranchingModel(
            ("a", "b"), (law(((0, 1), 1.0)), law(((1, 0), 1.0)))
        )
        with pytest.raises(ValueError, match="period"):
            perron_triple(moments(model))

    def test_outside_theorem_one_error(self, supercritical):
        decomposable = BranchingModel(
            ("a", "b"),
            (law(((0, 0), 0.5), ((1, 0), 0.5)), law(((0, 0), 0.5), ((0, 1), 0.5))),
        )
        periodic = BranchingModel(
            ("a", "b"), (law(((0, 1), 1.0)), law(((1, 0), 1.0)))
        )
        for model in (decomposable, periodic):
            with pytest.raises(OutsideTheoremError):
                perron_triple(moments(model))
        model, _ = supercritical
        with pytest.raises(OutsideTheoremError):
            require_subcritical(perron_triple(moments(model)), "test")

    def test_gate_follows_classify_verdict(self):
        # mean 0.1 + 3 * 0.3 computes to 0.9999999999999999: below 1, but
        # classify calls it critical, so the gate must refuse it too
        model = BranchingModel(("a",), (law(((0,), 0.6), ((1,), 0.1), ((3,), 0.3)),))
        summary = perron_triple(moments(model))
        assert summary.delta < 1.0 and summary.criticality == "critical"
        with pytest.raises(OutsideTheoremError, match="classified critical"):
            require_subcritical(summary, "test")

    def test_equal_column_sums(self):
        # A = [[0.2, 0.1], [0.3, 0.4]] has equal column sums, so nu is uniform
        # and every eigenvalue estimate sum(A x) / sum(x) is exact from the
        # first step; f = (1, 3) / 2 must still come out converged
        model = BranchingModel(
            ("a", "b"),
            (
                law(((0, 0), 0.7), ((1, 0), 0.2), ((0, 1), 0.1)),
                law(((0, 0), 0.3), ((1, 0), 0.3), ((0, 1), 0.4)),
            ),
        )
        s = perron_triple(moments(model))
        assert s.delta == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(s.nu, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(s.f, [0.5, 1.5], atol=1e-13)
        assert max(s.residual_f, s.residual_nu) <= 1e-13

    def test_primitive_three_types_delta_near_10(self):
        model = BranchingModel(
            ("a", "b", "c"),
            (
                law(((6, 7, 0), 0.5), ((0, 2, 3), 0.5)),
                law(((7, 4, 4), 0.5), ((5, 3, 1), 0.5)),
                law(((5, 2, 8), 0.5), ((0, 0, 0), 0.5)),
            ),
        )
        A = first_moments(model)
        s = perron_triple(moments(model))
        oracle = max(abs(np.linalg.eigvals(A)))
        assert 9.0 < oracle < 11.0
        assert s.delta == pytest.approx(oracle, rel=1e-13)
        assert max(s.residual_f, s.residual_nu) <= 1e-12 * s.delta
        assert s.criticality == "supercritical"

    def test_identity_mean_allowed(self):
        model = BranchingModel(("a",), (law(((1,), 1.0)),))
        s = perron_triple(moments(model))
        assert s.delta == pytest.approx(1.0, abs=1e-12)
        assert s.criticality == "boundary"

    def test_label_permutation_invariance(self, m2):
        model, _ = m2
        swapped = BranchingModel(
            (model.type_names[1], model.type_names[0]),
            (
                _permute_law(model.laws[1]),
                _permute_law(model.laws[0]),
            ),
        )
        a = perron_triple(moments(model))
        b = perron_triple(moments(swapped))
        assert abs(a.delta - b.delta) <= 1e-10
        np.testing.assert_allclose(a.f, b.f[::-1], atol=1e-10)
        np.testing.assert_allclose(a.nu, b.nu[::-1], atol=1e-10)


def _permute_law(law_obj):
    return OffspringLaw(
        tuple(
            (PopulationState(tuple(reversed(state.counts))), p)
            for state, p in law_obj.atoms
        )
    )


class TestMomentAsymptotics:
    def test_power_matches_operator_iteration(self, m2):
        model, _ = m2
        A = first_moments(model)
        iterated = np.eye(2)
        for t in range(1, 21):
            iterated = iterated @ A
            np.testing.assert_allclose(
                iterated, np.linalg.matrix_power(A, t), atol=1e-12
            )

    def test_m1_scalar_error_is_zero(self, m1):
        model, _ = m1
        s = perron_triple(moments(model))
        e = moment_asymptotics(moments(model), s, 10)
        assert np.max(e) < 1e-13

    def test_m2_hand_constant(self, m2, m2_summary):
        # second eigenpair: f2 = (1, -2), nu2 = (1, -1.5), nu2 . f2 = 4, so
        # A^t delta^-t - f nu = (-1/3)^t [[0.25, -0.375], [-0.5, 0.75]];
        # the max-abs entry is 0.75 * 3^-t
        model, _ = m2
        e = moment_asymptotics(moments(model), m2_summary, 12)
        assert e[4] == pytest.approx(0.75 / 3**5, rel=1e-9)

    def test_m2_decay_rate(self, m2, m2_summary):
        model, _ = m2
        e = moment_asymptotics(moments(model), m2_summary, 25)
        ratios = e[5:25] / e[4:24]
        assert np.all(np.abs(ratios - 1 / 3) < 0.05)
        assert e[-1] < 1e-10


class TestSurvivalConstant:
    def test_m1_ratio_converges_to_delta(self, m1):
        model, _ = m1
        sc = survival_constant(model, 1, 80)
        assert abs(sc.ratios[49] - 0.6) < 1e-6
        assert np.all(np.abs(sc.ratios[49:] - 0.6) < 1e-6)

    def test_m1_estimates_stabilize(self, m1):
        model, _ = m1
        sc = survival_constant(model, 1, 80)
        assert abs(sc.estimates[59] - sc.estimates[79]) <= 1e-8
        assert sc.value > 0

    def test_m1_survival_matches_pgf_iteration(self, m1):
        # small horizons double-checked against plain pgf iteration
        # g(s) = 0.7 + 0.3 s^2 from s = 0
        model, _ = m1
        sc = survival_constant(model, 1, 10)
        g = 0.0
        for l in range(1, 11):
            g = 0.7 + 0.3 * g * g
            assert sc.estimates[l - 1] == pytest.approx(
                (1.0 - g) * 0.6**-l, rel=1e-12
            )

    def test_all_types_positive(self, m1, m2):
        for model, _ in (m1, m2):
            summary = perron_triple(moments(model))
            K = survival_constants(model, 60, summary)
            assert np.all(K > 0)
            assert summary.K is K

    def test_out_of_range_type(self, m2):
        model, _ = m2
        with pytest.raises(ValueError, match="out of range"):
            survival_constant(model, 3, 10)

    def test_supercritical_rejected(self, supercritical):
        model, _ = supercritical
        with pytest.raises(ValueError, match="subcritical"):
            survival_constant(model, 1, 10)

    def test_underflow_names_the_step(self):
        # delta = 2e-7: survival falls below the smallest normal float at
        # step 46, where delta^-l is still finite; never 0 * inf = nan
        law = OffspringLaw(((PopulationState((0,)), 0.9999999), (PopulationState((2,)), 1e-7)))
        model = BranchingModel(("a",), (law,))
        assert survival_constants(model, 45)[0] > 0
        with pytest.raises(ArithmeticError, match="at step 46 is below the smallest normal"):
            survival_constants(model, 50)


class TestCrossModule:
    def test_kernel_extinction_matches_survival(self, m1):
        # free-chain extinction mass from one particle at horizon l equals
        # 1 - survival(l) computed through the generating map
        model, _ = m1
        kernel = one_step_kernel(model, enumerate_states(1, 40))
        sc = survival_constant(model, 1, 12)
        for l in (1, 3, 6, 12):
            *_, v = kernel.forward(PopulationState((1,)), l)
            survival = sc.estimates[l - 1] * 0.6**l
            assert v[1:].sum() == pytest.approx(survival, rel=1e-10)

    def test_report_roundtrip(self, m2_summary):
        import json

        doc = json.loads(json.dumps(m2_summary.report()))
        assert doc["delta"] == pytest.approx(0.6, abs=1e-12)
        assert doc["flags"]["criticality"] == "subcritical"


class TestEigenSolve:
    def test_near_periodic_supercritical(self):
        # eigenvalues 100 and -99.33: the second root nearly matches the first
        # in modulus
        A = np.array([[0.667439909471219, 104.01908702739189], [95.49455098021673, 0.0]])
        s = classify(MomentData(A=A, B=np.zeros((2, 2, 2))))
        assert s.indecomposable and s.period == 1
        assert s.criticality == "supercritical"
        assert s.delta == pytest.approx(100.0, rel=1e-13)
        assert max(s.residual_f, s.residual_nu) <= 1e-12 * s.delta

    def test_random_nonnegative_matrices(self):
        rng = np.random.default_rng(20111)
        for _ in range(300):
            k = int(rng.integers(1, 17))
            A = rng.random((k, k)) * (rng.random((k, k)) < rng.uniform(0.2, 1.0))
            radius = max(abs(np.linalg.eigvals(A)))
            if radius > 0.0:
                A *= 10.0 ** rng.uniform(np.log10(0.05), 2.0) / radius
            oracle = max(abs(np.linalg.eigvals(A)))
            s = classify(MomentData(A=A, B=np.zeros((k, k, k))))
            assert abs(s.delta - oracle) <= 1e-13 * oracle
            if s.period == 1:
                assert np.all(s.f > 0.0) and np.all(s.nu > 0.0)
                scale = 1e-14 * s.delta * max(s.f.max(), s.nu.max())
                assert max(s.residual_f, s.residual_nu) <= scale


def assert_delta_bar(summary, A):
    """A f <= delta_bar f at the computed f, and delta_bar within 1e-14
    relative of delta."""
    assert np.all(A @ summary.f <= summary.delta_bar * summary.f)
    assert summary.delta_bar - summary.delta <= 1e-14 * summary.delta


class TestDeltaBar:
    @pytest.mark.parametrize("name", ["m1", "m2", "k3"])
    def test_fixture_models(self, request, name):
        model, _ = request.getfixturevalue(name)
        data = moments(model)
        assert_delta_bar(perron_triple(data), data.A)

    def test_random_primitive_matrices(self):
        rng = np.random.default_rng(2311)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            A = rng.uniform(0.05, 1.0, (k, k))
            A *= rng.uniform(0.05, 2.0) / max(abs(np.linalg.eigvals(A)))
            summary = classify(MomentData(A=A, B=np.zeros((k, k, k))))
            assert summary.period == 1
            assert_delta_bar(summary, A)

    def test_not_reported(self, m2_summary):
        assert "delta_bar" not in m2_summary.report()
