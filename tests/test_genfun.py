import math
import tracemalloc
import warnings

import numpy as np
import pytest

from stopbp import genfun, invariants
from stopbp.exact_engine import (
    CapacityError,
    enumerate_states,
    one_step_kernel,
)
from stopbp.genfun import (
    _law_arrays,
    eval_h,
    h_star,
    iterate_h,
    make_s_grid,
    ratio_limit,
    single_offspring_reachable,
    survival_map,
    survival_path,
    truncated_law_blocks,
    yaglom,
    yaglom_residual,
)
from stopbp.model import BranchingModel, OffspringLaw, PopulationState, unit_state
from stopbp.spectral import first_moments, moments, perron_triple

from oracles import free_distribution


@pytest.fixture(scope="module")
def m1_summary(m1):
    model, _ = m1
    return perron_triple(moments(model))


@pytest.fixture(scope="module")
def m2_summary(m2):
    model, _ = m2
    return perron_triple(moments(model))


class TestEvalH:
    def test_m1_endpoints(self, m1):
        model, _ = m1
        assert eval_h(model, [0.0]) == pytest.approx([0.7], abs=1e-15)
        assert eval_h(model, [1.0]) == pytest.approx([1.0], abs=1e-15)

    def test_m1_halfway(self, m1):
        # 0.7 + 0.3 * 0.25 = 0.775
        model, _ = m1
        assert eval_h(model, [0.5]) == pytest.approx([0.775], abs=1e-15)

    def test_m2_second_component(self, m2):
        # h1(s) = 0.5 + 0.3 s2 + 0.2 s1^2, h2(s) = 0.6 + 0.4 s1
        model, _ = m2
        out = eval_h(model, [0.0, 1.0])
        assert out == pytest.approx([0.8, 0.6], abs=1e-15)
        out = eval_h(model, [1.0, 0.0])
        assert out == pytest.approx([0.7, 1.0], abs=1e-15)

    def test_batch_shape(self, m2):
        model, _ = m2
        grid = make_s_grid(2, 8)
        out = eval_h(model, grid)
        assert out.shape == grid.shape
        np.testing.assert_allclose(out[0], eval_h(model, grid[0]), atol=1e-15)

    def test_out_of_box_rejected(self, m1):
        model, _ = m1
        with pytest.raises(ValueError):
            eval_h(model, [1.5])
        with pytest.raises(ValueError):
            eval_h(model, [-0.1])


class TestSurvivalMap:
    def test_matches_plain_form(self, m2):
        model, _ = m2
        rng = np.random.default_rng(3)
        r = rng.uniform(0.0, 1.0, size=(50, 2))
        stable = survival_map(model, r)
        plain = 1.0 - eval_h(model, 1.0 - r)
        np.testing.assert_allclose(stable, plain, atol=1e-14)

    def test_accurate_at_tiny_survival(self, m1):
        # 1 - g(1 - r) = 0.6 r - 0.3 r^2; at r = 1e-300 the plain form
        # cancels to zero while the survival form keeps full precision
        model, _ = m1
        out = survival_map(model, np.array([1e-300]))
        assert out[0] == pytest.approx(0.6e-300, rel=1e-12)

    def test_boundary_one(self, m2):
        model, _ = m2
        out = survival_map(model, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, 1.0 - eval_h(model, [0.0, 0.0]), atol=1e-15)

    def test_law_arrays_built_once_and_read_only(self, m2):
        # every reader shares one (atoms, mix) pair per model, and the pair
        # gives the mean matrix as mix @ atoms
        model, _ = m2
        laws = _law_arrays(model)
        assert _law_arrays(model) is laws
        atoms, mix = laws
        with pytest.raises(ValueError, match="read-only"):
            atoms[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            mix[0, 0] = 1.0
        np.testing.assert_allclose(mix @ atoms, first_moments(model), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["m1", "m2", "k3"])
    @pytest.mark.parametrize("t", [0, 1, 60])
    def test_path_is_repeated_map(self, request, name, t):
        model, _ = request.getfixturevalue(name)
        r = np.random.default_rng(7).uniform(0.0, 1.0, size=(30, model.k))
        path = survival_path(model, t, r)
        assert path.shape == (t + 1, 30, model.k)
        for l in range(t + 1):
            assert np.array_equal(path[l], r)
            r = survival_map(model, r)

    def test_path_at_the_box_edges(self, m2):
        # r = 1 is log 0, r = 0 stays 0; neither raises a RuntimeWarning
        model, _ = m2
        r = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            path = survival_path(model, 60, r)
            for l in range(61):
                assert np.array_equal(path[l], r)
                r = survival_map(model, r)
        assert np.array_equal(path[:, 1], np.zeros((61, 2)))


    def test_path_with_no_zero_atom(self):
        # types 1-3 always beget the next type and only type 4 can die, so
        # type 1's survival stays exactly 1 for three steps: each of those
        # steps takes log 0 where r = 1
        S = PopulationState
        laws = (
            OffspringLaw(((S((0, 1, 0, 0)), 0.5), (S((0, 2, 0, 0)), 0.5))),
            OffspringLaw(((S((0, 0, 1, 0)), 1.0),)),
            OffspringLaw(((S((0, 0, 0, 1)), 0.7), (S((1, 0, 1, 0)), 0.3))),
            OffspringLaw(((S((0, 0, 0, 0)), 0.6), (S((1, 0, 0, 0)), 0.4))),
        )
        model = BranchingModel(("a", "b", "c", "d"), laws)
        r = np.ones(4)
        path = survival_path(model, 12, r)
        assert np.all(path[:4, 0] == 1.0) and np.all(path[4:, 0] < 1.0)
        for l in range(13):
            assert np.array_equal(path[l], r)
            r = survival_map(model, r)

class TestIterateH:
    def test_zero_steps_identity(self, m2):
        model, _ = m2
        s = np.array([0.3, 0.8])
        np.testing.assert_array_equal(iterate_h(model, 0, s), s)
        np.testing.assert_allclose(survival_path(model, 0, 1.0 - s)[-1], 1.0 - s, atol=1e-15)

    def test_ones_fixed_point(self, m2):
        model, _ = m2
        np.testing.assert_allclose(iterate_h(model, 7, np.ones(2)), 1.0, atol=1e-15)
        np.testing.assert_allclose(survival_path(model, 7, np.zeros(2))[-1], 0.0, atol=1e-15)

    def test_m1_two_steps_matches_kernel(self, m1):
        # h(2, 0) = 0.847 = two-step extinction probability
        model, _ = m1
        assert iterate_h(model, 2, np.array([0.0]))[0] == pytest.approx(0.847, abs=1e-15)

    def test_semigroup_property(self, m2):
        model, _ = m2
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.uniform(0.0, 1.0, size=2)
            t, tau = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            ok, detail = invariants.generating_semigroup(model, s, t, tau, tol=1e-12)
            assert ok, detail

    def test_extinction_matches_kernel_distribution(self, m2):
        model, _ = m2
        kernel = one_step_kernel(model, enumerate_states(2, 25))
        for t in (1, 3, 6, 10):
            ok, detail = invariants.extinction_matches_generating_map(model, kernel, t, tol=1e-12)
            assert ok, detail

    def test_survival_inequalities_random_grid(self, m2):
        # 0 <= R(t, s) <= Q(t) across the box
        model, _ = m2
        s = np.random.default_rng(5).uniform(0.0, 1.0, size=(200, 2))
        ok, detail = invariants.survival_bounds(model, s, (1, 3, 10, 25), tol=1e-12)
        assert ok, detail

    def test_q_monotone_to_zero(self, m1, m2):
        for model, _ in (m1, m2):
            q_prev = None
            for t in range(1, 40):
                q = survival_path(model, t, np.ones(model.k))[-1]
                if q_prev is not None:
                    assert np.all(q <= q_prev + 1e-15)
                q_prev = q
            assert np.all(q_prev < 1e-8)


class TestRatioLimit:
    def test_m1_scalar_identity(self, m1, m1_summary):
        model, _ = m1
        table = ratio_limit(model, m1_summary, 1, np.array([[0.0], [0.5]]), 10)
        for rec in table.records:
            assert rec.ratios[0] == pytest.approx(1.0, abs=1e-12)
            assert rec.deviation_nu < 1e-12

    def test_m2_converges_to_eigen_direction(self, m2, m2_summary):
        # the ratio vector converges to f_i / f_k^2; with k_ref = 1 that is
        # (8/9, 16/27)
        model, _ = m2
        grid = make_s_grid(2, 16)
        table = ratio_limit(model, m2_summary, 1, grid, 40, t_record=[40])
        np.testing.assert_allclose(
            table.target_fixed_point, [8 / 9, 16 / 27], atol=1e-12
        )
        assert table.worst_deviation_fixed_point(40) < 1e-6

    def test_m2_does_not_converge_to_nu(self, m2, m2_summary):
        # documents the defect analysed in the ledger: the deviation from
        # the invariant measure stalls near |f/fk^2 - nu| instead of zero
        model, _ = m2
        grid = make_s_grid(2, 16)
        table = ratio_limit(model, m2_summary, 1, grid, 40, t_record=[40])
        floor = float(np.max(np.abs(table.target_fixed_point - m2_summary.nu)))
        assert table.worst_deviation_nu(40) == pytest.approx(floor, abs=1e-4)

    def test_deviation_from_limit_decreases(self, m2, m2_summary):
        model, _ = m2
        grid = np.array([[0.0, 0.0], [0.5, 0.2]])
        table = ratio_limit(model, m2_summary, 1, grid, 30)
        devs = [table.worst_deviation_fixed_point(t) for t in (5, 10, 20, 30)]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_all_ones_rejected(self, m2, m2_summary):
        model, _ = m2
        with pytest.raises(ValueError, match="all-ones"):
            ratio_limit(model, m2_summary, 1, np.array([[1.0, 1.0]]), 5)

    def test_bad_reference_type(self, m2, m2_summary):
        model, _ = m2
        with pytest.raises(ValueError, match="reference type"):
            ratio_limit(model, m2_summary, 3, np.array([[0.0, 0.0]]), 5)


class TestMeanDominance:
    def test_m1_at_zero(self, m1):
        # A(1 - 0) - (1 - h(0)) = 0.6 - 0.3 = 0.3 >= 0
        model, _ = m1
        assert invariants.mean_dominance(model, np.array([[0.0]]), tol=0.0) == (
            True, "worst violation 0")

    def test_no_violation_random(self, m1, m2):
        rng = np.random.default_rng(17)
        for model, _ in (m1, m2):
            s = rng.uniform(0.0, 1.0, size=(1000, model.k))
            ok, detail = invariants.mean_dominance(model, s, tol=1e-12)
            assert ok, detail

    def test_at_one_both_sides_zero(self, m2):
        model, _ = m2
        ok, detail = invariants.mean_dominance(model, np.ones((1, 2)), tol=1e-15)
        assert ok, detail


class TestYaglom:
    def test_m1_two_step_hand_values(self, m1, m1_summary):
        # P(2 steps, 1 -> .): {0: 0.847, 2: 0.126, 4: 0.027}; conditioning
        # on survival gives {2: 0.126 / 0.153, 4: 0.027 / 0.153}
        model, _ = m1
        space = enumerate_states(1, 8)
        data = yaglom(model, space, 1, 2)
        assert data.probability(PopulationState((2,))) == pytest.approx(
            0.126 / 0.153, rel=1e-12
        )
        assert data.probability(PopulationState((4,))) == pytest.approx(
            0.027 / 0.153, rel=1e-12
        )
        assert data.deficit == 0.0

    def test_m1_support_is_even(self, m1):
        # every particle leaves 0 or 2 children, so populations reachable
        # from a single particle are even after the first step; the
        # single-particle state carries no conditional mass
        model, _ = m1
        space = enumerate_states(1, 200)
        data = yaglom(model, space, 1, 40)
        totals = np.array([s.total for s in data.support()])
        assert np.all(totals % 2 == 0)
        assert data.probability(PopulationState((1,))) == 0.0
        assert not single_offspring_reachable(model)

    def test_m2_unit_states_positive(self, m2):
        # both single-child transitions exist in M2, so the conditional
        # limit charges every single-particle state
        model, _ = m2
        assert single_offspring_reachable(model)
        space = enumerate_states(2, 30)
        data = yaglom(model, space, 1, 40)
        for i in (1, 2):
            assert data.probability(unit_state(i, 2)) > 0.0

    def test_source_independence(self, m2):
        model, _ = m2
        space = enumerate_states(2, 30)
        a = yaglom(model, space, 1, 50)
        b = yaglom(model, space, 2, 50)
        assert a.tv_distance(b) < 1e-3

    def test_mean_positive(self, m1, m2):
        for model, _ in (m1, m2):
            space = enumerate_states(model.k, 60)
            data = yaglom(model, space, 1, 30)
            assert np.all(data.mean_vector() >= 0)
            assert data.mean_vector().sum() > 0

    def test_snapshot_distance_shrinks(self, m1):
        model, _ = m1
        space = enumerate_states(1, 120)
        early = yaglom(model, space, 1, 12)
        late = yaglom(model, space, 1, 40)
        assert late.snapshot_distance < early.snapshot_distance

    def test_deficit_guard(self, m1):
        model, _ = m1
        space = enumerate_states(1, 2)
        with pytest.raises(CapacityError, match="deficit"):
            yaglom(model, space, 1, 12)

    def test_bad_type_index(self, m1):
        model, _ = m1
        space = enumerate_states(1, 10)
        with pytest.raises(ValueError, match="out of range"):
            yaglom(model, space, 2, 5)

    def test_relabeling_invariance(self, m2):
        from stopbp.model import BranchingModel, OffspringLaw

        model, _ = m2
        swapped = BranchingModel(
            (model.type_names[1], model.type_names[0]),
            tuple(
                OffspringLaw(
                    tuple(
                        (PopulationState(tuple(reversed(st.counts))), p)
                        for st, p in law.atoms
                    )
                )
                for law in (model.laws[1], model.laws[0])
            ),
        )
        space = enumerate_states(2, 24)
        a = yaglom(model, space, 1, 30)
        b = yaglom(swapped, space, 2, 30)
        # compare state by state through the relabeling
        diff = 0.0
        for ordinal, counts in enumerate(space.counts.tolist()):
            mirrored = PopulationState(tuple(reversed(counts)))
            diff += abs(a.p[ordinal] - b.p[space.ordinal(mirrored)])
        assert 0.5 * diff < 1e-6


class TestYaglomResidual:
    def test_m1_residual_small(self, m1, m1_summary):
        model, _ = m1
        space = enumerate_states(1, 200)
        data = yaglom(model, space, 1, 50)
        grid = make_s_grid(1, 40)
        rep = yaglom_residual(model, data, m1_summary, grid)
        assert rep.max_residual < 1e-3
        assert rep.boundary_at_zero == 0.0
        assert rep.boundary_at_one == pytest.approx(1.0 - data.deficit, abs=1e-12)

    def test_residual_zero_at_one(self, m1, m1_summary):
        model, _ = m1
        space = enumerate_states(1, 100)
        data = yaglom(model, space, 1, 30)
        rep = yaglom_residual(model, data, m1_summary, np.array([[1.0]]))
        # both sides vanish when the argument is all ones, up to the deficit
        assert rep.rows[0][1] == pytest.approx(data.deficit, abs=1e-12)
        assert abs(rep.rows[0][1] - rep.rows[0][2]) <= max(data.deficit, 1e-12)

    def test_residual_improves_with_horizon(self, m1, m1_summary):
        model, _ = m1
        space = enumerate_states(1, 300)
        grid = make_s_grid(1, 30)
        r40 = yaglom_residual(model, yaglom(model, space, 1, 25), m1_summary, grid)
        r60 = yaglom_residual(model, yaglom(model, space, 1, 45), m1_summary, grid)
        assert r60.max_residual < r40.max_residual

    def test_h_star_is_pgf_of_p(self, m1):
        model, _ = m1
        space = enumerate_states(1, 60)
        data = yaglom(model, space, 1, 20)
        s = 0.5
        oracle = sum(
            data.p[ordinal] * s ** int(total) for ordinal, total in enumerate(space.counts.sum(1))
        )
        assert h_star(data, np.array([s])) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("name, cap, t", [("m1", 400, 60), ("m2", 70, 40)])
    def test_h_star_bit_identical_to_elementwise_powers(self, request, name, cap, t):
        # the power table gathered by counts against s ** counts taken per
        # state, then the product over types and one @ with the law
        model, _ = request.getfixturevalue(name)
        space = enumerate_states(model.k, cap)
        data = yaglom(model, space, 1, t)
        grid = make_s_grid(model.k, 50)
        for s in (grid, eval_h(model, grid)):
            powers = s[:, None, :] ** space.counts[None, :, :].astype(float)
            want = powers.prod(axis=2) @ data.p[: space.n_states]
            assert np.array_equal(h_star(data, s), want)


class TestTruncatedLaws:
    @pytest.mark.parametrize("k, cap", [(1, 7), (2, 6), (3, 5)])
    def test_pairs_against_bruteforce(self, k, cap):
        # every pair (a, b) with |a| + |b| <= cap, ordered by the ordinal of
        # a + b, then a, then b, and the first pair of each ordinal
        space = enumerate_states(k, cap)
        states = [tuple(c) for c in space.counts.tolist()]
        want = sorted(
            (space.ordinal(PopulationState(tuple(x + y for x, y in zip(sa, sb)))), a, b)
            for a, sa in enumerate(states) for b, sb in enumerate(states)
            if sum(sa) + sum(sb) <= cap)
        c, a, b = np.array(want).T
        got_a, got_b, groups = genfun._truncated_pairs(k, cap)
        assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
        assert np.array_equal(groups, np.searchsorted(c, np.arange(space.n_states)))

    @pytest.mark.parametrize("k, cap", [(1, 7), (2, 10), (3, 8), (4, 5)])
    def test_pair_count_in_closed_form(self, k, cap):
        # the size check counts C(cap + 2k, 2k) pairs, (a, b) as one 2k-tuple
        assert len(genfun._truncated_pairs(k, cap)[0]) == math.comb(cap + 2 * k, 2 * k)

    @pytest.mark.parametrize("k, cap", [(1, 200), (3, 20), (8, 4)])
    def test_pair_build_peak_within_the_size_check(self, k, cap):
        # the size check books 2k + 6 int64 entries per pair for the build
        tracemalloc.start()
        try:
            genfun._truncated_pairs.__wrapped__(k, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 * k + 6) * math.comb(cap + 2 * k, 2 * k)

    def test_pairs_build_without_a_size_by_size_array(self):
        # 1,771 states: a size x size sum of totals takes the traced peak to
        # 27.0 MiB; counting each state's partners keeps it near 17.6 MiB
        tracemalloc.start()
        try:
            genfun._truncated_pairs.__wrapped__(3, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 * 2**20

    @pytest.mark.parametrize("name, counts", [
        ("m1", [(1,), (2,), (4,)]),
        ("m2", [(1, 0), (0, 2), (2, 1), (3, 0)]),
    ])
    def test_against_bruteforce(self, request, name, counts):
        # P_n(Z_l = beta) for every beta of total <= 3, against the exact
        # free-process law by dictionary convolution
        model, _ = request.getfixturevalue(name)
        space = enumerate_states(model.k, 3)
        laws = [step for _, block in truncated_law_blocks(model, space, counts, 4)
                for step in block]
        assert len(laws) == 4
        for l, step in enumerate(laws, 1):
            for row, n in zip(step, counts):
                exact = free_distribution(model, n, l)
                want = [exact.get(tuple(c), 0.0) for c in space.counts.tolist()]
                np.testing.assert_allclose(row, want, rtol=1e-13, atol=1e-16)

    def test_degree_zero_against_bruteforce(self, m2):
        # truncated at degree 0 only the constant term is left, so the laws
        # are the extinction probabilities and no power of v is taken
        model, _ = m2
        space = enumerate_states(2, 0)
        counts = [(1, 0), (0, 2)]
        laws = [step for _, block in truncated_law_blocks(model, space, counts, 4)
                for step in block]
        for l, step in enumerate(laws, 1):
            for row, n in zip(step, counts):
                want = free_distribution(model, n, l).get((0, 0), 0.0)
                np.testing.assert_allclose(row, [want], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k", [4, 6])
    def test_sparse_atoms_against_bruteforce(self, k):
        # type i begets nothing, one i + 1, or one i and one i + 2 (mod k):
        # every atom lacks k - 2 types or more, and so do the starts, so the
        # products skip most factors; degree 3, against dictionary convolution
        offspring = []
        for i in range(k):
            one, two = [0] * k, [0] * k
            one[(i + 1) % k] = 1
            two[i] += 1
            two[(i + 2) % k] += 1
            offspring.append(OffspringLaw(((PopulationState((0,) * k), 0.5),
                                           (PopulationState(tuple(one)), 0.3),
                                           (PopulationState(tuple(two)), 0.2))))
        model = BranchingModel(tuple(f"t{i}" for i in range(k)), tuple(offspring))
        space = enumerate_states(k, 3)
        counts = [(1,) + (0,) * (k - 1), (0, 2) + (0,) * (k - 2), (1, 0, 1) + (0,) * (k - 3)]
        laws = [step for _, block in truncated_law_blocks(model, space, counts, 3)
                for step in block]
        for l, step in enumerate(laws, 1):
            for row, n in zip(step, counts):
                exact = free_distribution(model, n, l)
                want = [exact.get(tuple(c), 0.0) for c in space.counts.tolist()]
                np.testing.assert_allclose(row, want, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("name, cap", [("m1", 4), ("m2", 3), ("k3", 2)])
    def test_block_length_does_not_move_laws(self, request, name, cap, monkeypatch):
        # one block for all 30 steps, and one step per block
        model, _ = request.getfixturevalue(name)
        space = enumerate_states(model.k, cap)
        counts = [(1,) * model.k, (7,) * model.k, (10**6,) + (0,) * (model.k - 1)]
        [(first, whole)] = truncated_law_blocks(model, space, counts, 30)
        assert first == 1 and whole.shape == (30, len(counts), space.n_states)
        monkeypatch.setattr(genfun, "LAW_BLOCK_BYTES", 1)
        single = list(truncated_law_blocks(model, space, counts, 30))
        assert [l for l, _ in single] == list(range(1, 31))
        # the weights of a block are taken elementwise, so bit for bit
        np.testing.assert_array_equal(np.concatenate([block for _, block in single]), whole)


class TestSGrid:
    def test_deterministic(self):
        a = make_s_grid(2, 25)
        b = make_s_grid(2, 25)
        np.testing.assert_array_equal(a, b)

    def test_in_unit_box(self):
        g = make_s_grid(3, 50)
        assert np.all(g >= 0.0) and np.all(g < 1.0)

    @pytest.mark.parametrize("k", range(6, 12))
    def test_one_more_type_keeps_the_columns(self, k):
        # the steps are the first k primes for any k, so a grid for ten types
        # or fewer is what it was, and eleven or more types get one
        np.testing.assert_array_equal(make_s_grid(k + 1, 40)[:, :k], make_s_grid(k, 40))

    def test_includes_corner_block(self):
        g = make_s_grid(2, 4)
        assert any(np.array_equal(row, [0.0, 0.0]) for row in g)
        assert any(np.array_equal(row, [0.9, 0.5]) for row in g)
