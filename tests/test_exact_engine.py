import math
import tracemalloc

import numpy as np
import pytest

from stopbp import exact_engine, genfun, invariants
from stopbp.exact_engine import (
    MAX_SERIES_TERMS,
    CapacityError,
    absorption_table,
    enumerate_states,
    geometric_tail_bound,
    hitting_columns,
    one_step_kernel,
    restricted_kernel,
    restricted_via_inclusion_exclusion,
    series_absorptions,
    stop_coefficients,
    stopped_hitting_column,
)
from stopbp.model import (
    BranchingModel,
    OffspringLaw,
    PopulationState,
    StoppingSet,
)
from stopbp.spectral import moments, perron_triple

from oracles import (
    first_passage_probability,
    free_distribution,
    graded_lex_states,
    kernel_by_states,
    limiting_absorptions,
    mp_absorption,
    offspring_by_product,
    renewal_absorption,
    stopped_distribution,
)

S = PopulationState


def route_references(kernel, stopping, r, t_max):
    """Each route to q(s -> r, t) on its own backward table, for every
    ordinal s and t = 0..t_max: the stopped chain (``stopped_hitting_column``),
    the partial sums of ``restricted_kernel`` and the stop-coefficient
    expansion over ``hitting_columns``; and the free chain's overflow mass."""
    size = kernel.space.size
    restricted = restricted_kernel(kernel, stopping, t_max)
    coeffs = stop_coefficients(restricted)
    j = restricted.targets.index(r)
    free = hitting_columns(kernel, coeffs.states, t_max)
    formula = np.zeros((t_max + 1, size))
    for t in range(1, t_max + 1):
        for l in range(1, t + 1):
            formula[t] += free[l] @ coeffs.first_column[:, j, t - l]
    partial = np.zeros((t_max + 1, size))
    partial[1:] = np.cumsum(restricted.values[:, :, j], axis=0)
    overflow = np.zeros(size)
    overflow[kernel.space.overflow] = 1.0
    routes = {
        "direct": stopped_hitting_column(kernel, stopping, r, t_max),
        "formula": formula,
        "restricted": partial,
    }
    return routes, kernel.backward(overflow, t_max)


def table_values(kernel, stopping, n, r, t_list):
    """{(t, method): q} from one ``absorption_table`` call for start n."""
    table = absorption_table(kernel, stopping, [n], r, t_list)
    return {(row.t, row.method): row.q for row in table.rows}


def stopped_matrix(kernel, stopping):
    """The stopped chain's kernel: stopping rows made absorbing."""
    pin = [kernel.space.ordinal(s) for s in stopping]
    matrix = kernel.matrix.copy()
    matrix[pin] = 0.0
    matrix[pin, pin] = 1.0
    return matrix


class TestEnumerateStates:
    def test_single_type(self):
        space = enumerate_states(1, 3)
        assert space.counts.tolist() == [[0], [1], [2], [3]]

    def test_two_types_cap_two(self):
        space = enumerate_states(2, 2)
        assert space.n_states == 6
        assert set(map(tuple, space.counts.tolist())) == {
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        }

    def test_count_matches_binomial(self):
        # C(13, 3) = 286
        assert enumerate_states(3, 10).n_states == 286
        for k, cap in [(1, 7), (2, 9), (4, 5)]:
            assert enumerate_states(k, cap).n_states == math.comb(cap + k, k)

    def test_graded_lex_and_zero_first(self):
        space = enumerate_states(2, 3)
        totals = space.counts.sum(1).tolist()
        assert totals == sorted(totals)
        assert space.counts[0].tolist() == [0, 0]
        # within a total level, counts ascend lexicographically
        level = [c for c in space.counts.tolist() if sum(c) == 2]
        assert level == sorted(level)

    def test_no_duplicates(self):
        space = enumerate_states(3, 6)
        assert len(set(map(tuple, space.counts.tolist()))) == space.n_states

    def test_capacity_limit(self, monkeypatch):
        monkeypatch.setattr(exact_engine, "STATE_LIMIT", 100)
        with pytest.raises(CapacityError):
            enumerate_states(3, 10)

    def test_default_limit_counts_kernel_bytes(self):
        # 501,501 states: the dense kernel alone would need about 1.8 TiB
        with pytest.raises(CapacityError, match="bytes"):
            enumerate_states(2, 1000)


RANK_CASES = [(1, 40), (2, 20), (3, 10), (4, 7)]


class TestStateSpaceRank:
    @pytest.mark.parametrize("k, cap", RANK_CASES)
    def test_order_matches_recursive_reference(self, k, cap):
        space = enumerate_states(k, cap)
        reference = graded_lex_states(k, cap)
        assert space.counts.tolist() == [list(c) for c in reference]

    @pytest.mark.parametrize("k, cap", RANK_CASES)
    def test_ordinal_rank_round_trip(self, k, cap):
        space = enumerate_states(k, cap)
        reference = graded_lex_states(k, cap)
        ordinals = np.arange(len(reference))
        assert np.array_equal(space.ordinals(np.array(reference)), ordinals)
        for i, counts in enumerate(reference):
            assert space.ordinal(S(counts)) == i
            assert space.state(i) == S(counts)

    def test_states_outside_rejected(self):
        space = enumerate_states(2, 4)
        for state in (S((5, 0)), S((2, 3)), S((1, 1, 1)), S((1,))):
            assert state not in space
            with pytest.raises(ValueError, match="not in the capped space"):
                space.ordinal(state)
        assert S((0, 4)) in space

    def test_states_array_read_only(self):
        space = enumerate_states(3, 5)
        assert not space.counts.flags.writeable
        with pytest.raises(ValueError):
            space.counts[1, 0] = 7


class TestOneStepKernel:
    @pytest.mark.parametrize("name, cap", [("m1", 400), ("m2", 12), ("m2", 40), ("m2", 70),
                                           ("k3", 15), ("k3_cheapest_last", 12)])
    def test_bit_identical_to_per_state_builder(self, request, name, cap):
        model, _ = request.getfixturevalue(name)
        kernel = one_step_kernel(model, enumerate_states(model.k, cap))
        assert np.array_equal(kernel.matrix, kernel_by_states(model, model.k, cap))

    @pytest.mark.parametrize("name, cap, states", [
        # m2: a b particle has one atom of positive total, an a particle two
        ("m2", 6, [(1, 1), (2, 1), (1, 3), (3, 2), (2, 3)]),
        # an a and a c particle: the row comes from c, the last type present
        ("k3_cheapest_last", 5, [(1, 0, 1), (2, 0, 1), (1, 1, 1), (2, 1, 2), (1, 0, 3)]),
        # no c particle: the row comes from b, whose law has no zero atom
        ("k3_cheapest_last", 5, [(0, 1, 0), (1, 1, 0), (0, 3, 0), (2, 2, 0), (1, 2, 0)]),
    ], ids=["m2-both-types", "first-type-not-cheapest", "no-zero-atom"])
    def test_rows_match_product_enumeration(self, request, name, cap, states):
        model, _ = request.getfixturevalue(name)
        space = enumerate_states(model.k, cap)
        kernel = one_step_kernel(model, space)
        beyond_any = 0.0
        for counts in states:
            exact = offspring_by_product(model, counts)
            want = np.zeros(space.size)
            for child, p in exact.items():
                want[space.ordinal(S(child)) if sum(child) <= cap else space.overflow] += p
            beyond = sum(p for child, p in exact.items() if sum(child) > cap)
            row = kernel.matrix[space.ordinal(S(counts))]
            assert np.abs(row - want).max() <= 1e-14, counts
            assert abs(row[space.overflow] - beyond) <= 1e-14, counts
            beyond_any = max(beyond_any, beyond)
        assert beyond_any > 0.01  # the overflow entry is tested where it holds mass

    def test_m1_unit_row_is_the_law(self, m1):
        model, _ = m1
        space = enumerate_states(1, 6)
        kernel = one_step_kernel(model, space)
        row = kernel.matrix[space.ordinal(S((1,)))]
        assert row[space.ordinal(S((0,)))] == pytest.approx(0.7, abs=1e-15)
        assert row[space.ordinal(S((2,)))] == pytest.approx(0.3, abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_m1_two_particle_row_is_convolution(self, m1):
        # {0: 0.7, 2: 0.3} convolved with itself: {0: 0.49, 2: 0.42, 4: 0.09}
        model, _ = m1
        space = enumerate_states(1, 6)
        kernel = one_step_kernel(model, space)
        row = kernel.matrix[space.ordinal(S((2,)))]
        assert row[space.ordinal(S((0,)))] == pytest.approx(0.49, abs=1e-15)
        assert row[space.ordinal(S((2,)))] == pytest.approx(0.42, abs=1e-15)
        assert row[space.ordinal(S((4,)))] == pytest.approx(0.09, abs=1e-15)

    def test_zero_row_absorbing(self, m1, m2):
        for model, _ in (m1, m2):
            space = enumerate_states(model.k, 4)
            kernel = one_step_kernel(model, space)
            row = kernel.matrix[0]
            assert row[0] == 1.0
            assert row.sum() == 1.0

    def test_rows_match_bruteforce(self, m2):
        model, _ = m2
        space = enumerate_states(2, 12)
        kernel = one_step_kernel(model, space)
        for counts in [(1, 0), (0, 1), (1, 1), (2, 1), (0, 3)]:
            exact = free_distribution(model, counts, 1)
            row = kernel.matrix[space.ordinal(S(counts))]
            for child, p in exact.items():
                assert row[space.ordinal(S(child))] == pytest.approx(p, abs=1e-14)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_overflow_collects_excess(self, m1):
        model, _ = m1
        space = enumerate_states(1, 3)  # (2) -> (4) must overflow
        kernel = one_step_kernel(model, space)
        row = kernel.matrix[space.ordinal(S((2,)))]
        assert row[space.overflow] == pytest.approx(0.09, abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_atom_beyond_the_cap(self):
        # an atom of total 3 leaves a cap of 1 from every state, the zero
        # state included: its whole mass goes to overflow
        law = OffspringLaw(((S((0,)), 0.6), (S((1,)), 0.1), (S((3,)), 0.3)))
        space = enumerate_states(1, 1)
        kernel = one_step_kernel(BranchingModel(("a",), (law,)), space)
        assert kernel.matrix[space.ordinal(S((1,)))].tolist() == [0.6, 0.1, 0.3]

    def test_row_stochastic(self, m1, m2):
        for model, _ in (m1, m2):
            space = enumerate_states(model.k, 15)
            kernel = one_step_kernel(model, space)
            kernel.validate(tol=1e-12)


class TestTStepKernel:
    """Powers of the one-step kernel."""

    def test_two_step_hand_value(self, m1):
        # P(2 steps, 1 -> 0) = 0.7 + 0.3 * 0.49 = 0.847
        model, _ = m1
        kernel = one_step_kernel(model, enumerate_states(1, 16))
        two = np.linalg.matrix_power(kernel.matrix, 2)
        space = kernel.space
        assert two[space.ordinal(S((1,))), 0] == pytest.approx(0.847, abs=1e-15)

    def test_composition_associative(self, m2):
        # K^3 = (K K) K against K (K K)
        model, _ = m2
        kernel = one_step_kernel(model, enumerate_states(2, 8))
        ok, detail = invariants.kernel_composition(kernel, [(1, 2)], tol=1e-12)
        assert ok, detail

    def test_chapman_kolmogorov_random_splits(self, m2):
        model, _ = m2
        kernel = one_step_kernel(model, enumerate_states(2, 10))
        rng = np.random.default_rng(7)
        splits = [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(5)]
        ok, detail = invariants.kernel_composition(kernel, splits, tol=1e-12)
        assert ok, detail

    def test_matches_bruteforce_distribution(self, m2):
        model, _ = m2
        space = enumerate_states(2, 14)
        kernel = one_step_kernel(model, space)
        exact = free_distribution(model, (1, 1), 3)
        *_, v = kernel.forward(S((1, 1)), 3)
        for counts, p in exact.items():
            assert v[space.ordinal(S(counts))] == pytest.approx(p, abs=1e-13)


@pytest.mark.parametrize("name, cap, start", [("m1", 40, (3,)), ("m2", 12, (1, 1))])
class TestPropagation:
    def test_forward_backward_duality(self, request, name, cap, start):
        # (e_n K^l) c = e_n (K^l c)
        model, _ = request.getfixturevalue(name)
        kernel = one_step_kernel(model, enumerate_states(model.k, cap))
        c = np.random.default_rng(3).random(kernel.space.size)
        n = kernel.space.ordinal(S(start))
        table = kernel.backward(c, 30)
        assert np.array_equal(table[0], c)
        for row, col in zip(kernel.forward(S(start), 30), table[1:]):
            assert abs(float(row @ c) - col[n]) <= 1e-14

    def test_pinned_backward_is_stopped_chain(self, request, name, cap, start):
        model, stopping = request.getfixturevalue(name)
        kernel = one_step_kernel(model, enumerate_states(model.k, cap))
        stopped = stopped_matrix(kernel, stopping)
        pin = [kernel.space.ordinal(s) for s in stopping]
        states = [kernel.space.ordinal(s) for s in (S(start), *stopping)]
        rows = np.eye(kernel.space.size)[states]
        for power in kernel.backward(np.eye(kernel.space.size), 30, pin=pin)[1:]:
            rows = rows @ stopped
            assert np.max(np.abs(power[states] - rows)) <= 1e-14


class TestRestrictedKernel:
    def test_t1_equals_one_step(self, m1):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 10))
        restricted = restricted_kernel(kernel, stopping, 4)
        np.testing.assert_array_equal(
            restricted.values[0],
            kernel.matrix[:, [kernel.space.ordinal(S((2,)))]],
        )

    def test_m1_two_step_first_passage_is_zero(self, m1):
        # from (1): the only step-1 successor outside the stopping set is
        # (0), which is sterile, so no 2-step first passage to (2)
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 10))
        restricted = restricted_kernel(kernel, stopping, 4)
        assert restricted.values[1, kernel.space.ordinal(S((1,))), 0] == 0.0

    def test_against_bruteforce(self, m2):
        # cap 40 covers every reachable total within 4 steps of the tested
        # starts, so the capped values are exact
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 40))
        restricted = restricted_kernel(kernel, stopping, 4)
        for t in (1, 2, 3, 4):
            for start in [(0, 1), (0, 2), (2, 0), (1, 1)]:
                oracle = first_passage_probability(model, start, {(1, 0)}, (1, 0), t)
                assert restricted.values[t - 1, kernel.space.ordinal(S(start)), 0] == pytest.approx(
                    oracle, abs=1e-13
                ), (t, start)

    def test_dominated_by_free_kernel(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 10))
        ok, detail = invariants.first_passage_dominated(
            kernel, restricted_kernel(kernel, stopping, 8), tol=1e-12)
        assert ok, detail

    def test_inclusion_exclusion_identity(self, m1, m2):
        for model, stopping in (m1, m2):
            kernel = one_step_kernel(model, enumerate_states(model.k, 20))
            ok, detail = invariants.first_passage_dual_route(
                kernel, restricted_kernel(kernel, stopping, 6), tol=1e-12)
            assert ok, detail

    def test_stopping_state_outside_cap(self, m1):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 1))
        with pytest.raises(CapacityError):
            restricted_kernel(kernel, stopping, 3)


class TestStopCoefficients:
    def test_initial_identity(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 10))
        coeffs = stop_coefficients(restricted_kernel(kernel, stopping, 8))
        assert coeffs.states == (S((1, 0)),)
        assert coeffs.first_column[0, 0, 0] == 1.0  # c(1, 1)

    def test_limit_against_independent_series(self, m1):
        # limit = 1 - sum of first-passage probabilities, summed to machine
        # tail via the independent inclusion-exclusion route
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 60))
        t_max = 120
        restricted = restricted_kernel(kernel, stopping, t_max)
        coeffs = stop_coefficients(restricted)
        via_ie = restricted_via_inclusion_exclusion(kernel, stopping, 40)
        alpha_ord = kernel.space.ordinal(S((2,)))
        series = float(via_ie[:, alpha_ord, 0].sum())
        assert coeffs.states == (S((2,)),)
        assert coeffs.limits[0, 0] == pytest.approx(1.0 - series, abs=1e-10)

    def test_rigorous_bound_with_summary(self, m1):
        # the limit of a 30-step table is off by at most the geometric tail
        # of the stopping state beyond step 30
        model, stopping = m1
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(1, 60))
        short = stop_coefficients(restricted_kernel(kernel, stopping, 30))
        long = stop_coefficients(restricted_kernel(kernel, stopping, 120))
        r = S((2,))
        bound = geometric_tail_bound(summary, r.counts, 30)
        assert abs(short.limits[0, 0] - long.limits[0, 0]) <= bound


ROUTES = ("direct", "formula", "restricted")


class TestAbsorptionRoutes:
    def test_m1_single_step(self, m1):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        q = table_values(kernel, stopping, S((1,)), S((2,)), [1])
        for method in ROUTES:
            assert q[1, method] == pytest.approx(0.3, abs=1e-15), method

    def test_m1_any_horizon_is_03(self, m1):
        # from one particle every path either dies at 0 or stops at (2) in
        # exactly one step, so the probability is 0.3 for every t
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        q = table_values(kernel, stopping, S((1,)), S((2,)), [1, 2, 5, 30])
        for t in (1, 2, 5, 30):
            for method in ROUTES:
                assert q[t, method] == pytest.approx(0.3, abs=1e-14), (t, method)

    def test_start_inside_stopping_set_rejected(self, m1):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        with pytest.raises(ValueError, match="inside the stopping set"):
            absorption_table(kernel, stopping, [S((2,))], S((2,)), [3])
        with pytest.raises(ValueError, match="zero state"):
            absorption_table(kernel, stopping, [S((0,))], S((2,)), [3])

    def test_start_beyond_cap_rejected(self, m1):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        with pytest.raises(CapacityError, match="above the cap 20"):
            absorption_table(kernel, stopping, [S((21,))], S((2,)), [3])

    def test_direct_matches_bruteforce(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 14))
        q = table_values(kernel, stopping, S((0, 2)), S((1, 0)), [1, 2, 3])
        for t in (1, 2, 3):
            oracle = stopped_distribution(model, (0, 2), {(1, 0)}, t).get((1, 0), 0.0)
            for method in ROUTES:
                assert q[t, method] == pytest.approx(oracle, abs=1e-13), (t, method)

    def test_three_routes_agree(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 16))
        t_max = 10
        n, r = S((0, 2)), S((1, 0))
        routes, _ = route_references(kernel, stopping, r, t_max)
        s = kernel.space.ordinal(n)
        for t in range(1, t_max + 1):
            direct = routes["direct"][t, s]
            assert abs(direct - routes["formula"][t, s]) <= 1e-10
            assert abs(direct - routes["restricted"][t, s]) <= 1e-12

    def test_three_routes_check_the_table_from_outside(self, m2, monkeypatch):
        # a table whose routes all err by the same factor agrees with itself;
        # only the backward stopped column shows the fault
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 16))
        starts = [S((0, 2)), S((1, 1)), S((2, 3))]
        ok, detail = invariants.three_routes(kernel, stopping, starts, S((1, 0)), [1, 4, 8])
        assert ok, detail
        build = exact_engine.absorption_table

        def scaled(*args):
            table = build(*args)
            for row in table.rows:
                row.q *= 1 + 1e-6
            return table

        table = scaled(kernel, stopping, starts, S((1, 0)), [1, 4, 8])
        q = np.array([row.q for row in table.rows]).reshape(-1, 3)
        assert np.abs(q[:, 1:] - q[:, :1]).max() <= invariants.ROUTE_TOL  # the routes agree
        monkeypatch.setattr(exact_engine, "absorption_table", scaled)
        ok, detail = invariants.three_routes(kernel, stopping, starts, S((1, 0)), [1, 4, 8])
        assert not ok, detail

    def test_monotone_in_horizon(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 12))
        ok, detail = invariants.absorption_monotone(kernel, stopping, S((1, 0)), 25, tol=1e-15)
        assert ok, detail

    def test_mass_balance(self, m2):
        # stopped chain mass at time t splits into: absorbed in the stopping
        # set, dead at zero, still alive, or overflowed; sums to one
        model, stopping = m2
        space = enumerate_states(2, 10)
        kernel = one_step_kernel(model, space)
        stopped = stopped_matrix(kernel, stopping)
        v = np.linalg.matrix_power(stopped, 12)[space.ordinal(S((0, 2)))]
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        stop_ords = [space.ordinal(m) for m in stopping]
        parts = (
            v[stop_ords].sum()
            + v[0]
            + v[space.overflow]
            + sum(
                v[i]
                for i in range(1, space.n_states)
                if i not in stop_ords
            )
        )
        assert parts == pytest.approx(1.0, abs=1e-12)

    def test_cap_never_increases_absorption(self, m1):
        model, stopping = m1
        n, r, t = S((1,)), S((2,)), 12
        values = []
        for cap in (4, 8, 16, 32):
            kernel = one_step_kernel(model, enumerate_states(1, cap))
            column = stopped_hitting_column(kernel, stopping, r, t)
            values.append(column[t, kernel.space.ordinal(n)])
        for small, big in zip(values, values[1:]):
            assert small <= big + 1e-12


class TestLimitingAbsorption:
    def test_m1_limit_is_03(self, m1):
        model, stopping = m1
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(1, 40))
        [result] = limiting_absorptions(
            kernel, stopping, summary, [S((1,))], S((2,)), tol=1e-10
        )
        assert result.value == pytest.approx(0.3, abs=max(result.tail_bound, 1e-10))
        assert result.tail_bound < 1e-9

    def test_agrees_with_long_horizon_direct(self, m2):
        model, stopping = m2
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(2, 24))
        n, r = S((0, 2)), S((1, 0))
        [result] = limiting_absorptions(kernel, stopping, summary, [n], r, tol=1e-11)
        oracle = stopped_hitting_column(kernel, stopping, r, 200)[200, kernel.space.ordinal(n)]
        assert result.value == pytest.approx(oracle, abs=max(1e-10, result.tail_bound))

    def test_supercritical_rejected(self, supercritical):
        model, stopping = supercritical
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        with pytest.raises(ValueError, match="subcritical"):
            limiting_absorptions(kernel, stopping, summary, [S((1,))], S((2,)))

    @pytest.mark.parametrize("name, cap, starts, overflows", [
        ("m1", 200, [(1,), (7,), (40,), (150,)], False),
        ("m1", 30, [(1,), (9,), (25,)], True),
        ("m2", 24, [(0, 2), (3, 1), (5, 5), (10, 0)], False),
    ])
    def test_many_starts_match_single_start(self, request, name, cap, starts, overflows):
        # one pass for all starts against one pass per start
        model, stopping = request.getfixturevalue(name)
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(model.k, cap))
        r = stopping.sorted_members()[0]
        starts = [S(counts) for counts in starts]
        many = limiting_absorptions(kernel, stopping, summary, starts, r, tol=1e-10)
        assert len(many) == len(starts)
        for n, got in zip(starts, many):
            [one] = limiting_absorptions(kernel, stopping, summary, [n], r, tol=1e-10)
            assert got.terms == one.terms
            assert got.tail_bound == one.tail_bound
            assert abs(got.value - one.value) <= 1e-14
            assert abs(got.overflow_mass - one.overflow_mass) <= 1e-14
        assert (max(res.overflow_mass for res in many) > 1e-6) == overflows

    @pytest.mark.parametrize("name, cap, start, members", [
        ("m1", 60, (3,), None),
        ("m2", 24, (0, 2), None),
        ("m2", 24, (1, 1), [(1, 0), (0, 2)]),
    ])
    def test_matches_stop_coefficient_series(self, request, name, cap, start, members):
        # the paper's series form, q(n -> r) = sum_l (e_n K^l) c_inf with the
        # limit stop coefficients c_inf, agrees with the stopped-chain pass
        # within the bounds of both
        model, stopping = request.getfixturevalue(name)
        if members is not None:
            stopping = StoppingSet(frozenset(S(m) for m in members))
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(model.k, cap))
        n, horizon, terms = S(start), 60, 80
        coeffs = stop_coefficients(restricted_kernel(kernel, stopping, horizon))
        ordinals = [kernel.space.ordinal(a) for a in coeffs.states]
        # coefficient truncation over the whole series, then the series tail
        coeff_bound = geometric_tail_bound(summary, n.counts, 0) * max(
            geometric_tail_bound(summary, a.counts, horizon) for a in coeffs.states
        )
        for j, r in enumerate(coeffs.states):
            c = coeffs.limits[:, j]
            series = sum(float(v[ordinals] @ c) for v in kernel.forward(n, terms))
            series_bound = float(np.abs(c).max()) * geometric_tail_bound(
                summary, n.counts, terms
            )
            [direct] = limiting_absorptions(kernel, stopping, summary, [n], r, tol=1e-10)
            assert series > 0.0
            assert abs(series - direct.value) <= (
                direct.tail_bound + coeff_bound + series_bound
            ), r.label()

    def test_many_starts_rejects_stopping_start(self, m1):
        model, stopping = m1
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        with pytest.raises(ValueError, match="inside the stopping set"):
            limiting_absorptions(
                kernel, stopping, summary, [S((1,)), S((2,))], S((2,))
            )


def assert_matches_dense(model, stopping, cap, starts, tol=1e-10):
    """Cap-free series against the dense stopped-chain pass, every target."""
    summary = perron_triple(moments(model))
    kernel = one_step_kernel(model, enumerate_states(model.k, cap))
    starts = [S(counts) for counts in starts]
    for r in stopping:
        dense = limiting_absorptions(kernel, stopping, summary, starts, r, tol=tol)
        free = series_absorptions(model, stopping, summary, starts, r, tol=tol)
        for n, got, want in zip(starts, free, dense):
            assert got.tail_bound <= tol
            assert 0.0 <= got.value <= 1.0
            assert abs(got.value - want.value) <= (
                got.tail_bound + want.tail_bound + want.overflow_mass), (n.label(), r.label())


def assert_solve_matches_renewal(model, stopping, starts, tol=1e-10):
    """The solve against the renewal over first entrances, which reads
    P_n(absorbed at r by T_n) off the same laws, for every target: they
    differ by at most phi_r b_n, the share of the bound the solve adds."""
    summary = perron_triple(moments(model))
    space = enumerate_states(model.k, stopping.max_total)
    members = stopping.sorted_members()
    cols = space.ordinals([a.counts for a in members])
    starts = [S(counts) for counts in starts]
    counts = [a.counts for a in members] + [n.counts for n in starts]
    m = len(members)
    for j, r in enumerate(members):
        results = series_absorptions(model, stopping, summary, starts, r, tol=tol)
        steps = max(res.terms for res in results)
        laws = np.concatenate([block for _, block in genfun.truncated_law_blocks(
            model, space, counts, steps)])[..., cols]
        for i, (n, got) in enumerate(zip(starts, results)):
            t, bound = exact_engine._horizon(summary, n.counts, tol / 2)
            phi = got.tail_bound / bound - 1.0
            assert got.terms == t
            assert got.tail_bound <= tol and phi <= 1.0 + 1e-12
            renewal = renewal_absorption(laws[:t, m + i], laws[:t, :m], j)
            assert abs(got.value - renewal) <= phi * bound + 1e-15, (n.label(), r.label())


class TestSeriesAbsorptions:
    @pytest.mark.parametrize("name, cap, starts, members", [
        ("m1", 400, [(1,), (3,), (50,), (150,)], None),
        ("m1", 30, [(1,), (9,), (25,)], None),
        ("m2", 40, [(0, 1), (0, 2), (1, 1), (3, 4)], None),
        ("m2", 30, [(1, 1), (3, 2), (0, 3)], [(1, 0), (0, 2)]),
    ])
    def test_matches_dense(self, request, name, cap, starts, members):
        model, stopping = request.getfixturevalue(name)
        if members is not None:
            stopping = StoppingSet(frozenset(S(m) for m in members))
        assert_matches_dense(model, stopping, cap, starts)

    def test_matches_dense_three_types(self, k3):
        model, stopping = k3
        assert_matches_dense(model, stopping, 18, [(1, 1, 1), (2, 0, 1), (0, 2, 0)])

    @pytest.mark.parametrize("name, starts", [
        ("m1", [(1,), (3,), (50,), (10**6,)]),
        ("m2", [(0, 1), (1, 1), (3, 4), (300, 400)]),
        ("k3", [(1, 1, 1), (2, 0, 1), (0, 2, 0), (40, 10, 30)]),
    ])
    def test_solve_matches_renewal(self, request, name, starts):
        model, stopping = request.getfixturevalue(name)
        assert_solve_matches_renewal(model, stopping, starts)

    def test_near_critical_memory_not_sized_by_steps(self):
        # delta = 0.995 and |S| = 29 need 6,525 steps; one (steps, |S|, |S|)
        # table of the laws alone would take 44 MB, and the renewal this
        # replaced peaked at 42.5 MiB
        law = OffspringLaw(((S((0,)), 0.405), (S((1,)), 0.395), (S((3,)), 0.2)))
        model = BranchingModel(("a",), (law,))
        stopping = StoppingSet(frozenset(S((c,)) for c in range(2, 31)))
        summary = perron_triple(moments(model))
        tracemalloc.start()
        try:
            [result] = series_absorptions(
                model, stopping, summary, [S((40,))], S((2,)), tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.terms > 6000 and result.tail_bound <= 1e-10
        assert peak < 16 << 20

    def test_eight_types_peak_within_the_size_check(self, monkeypatch):
        # k = 8, r0 = 4: 495 monomials and C(20, 16) = 4,845 pairs.  The
        # whole call, pair table included, stays below the bytes that the
        # size check books for it (about 2.3 of 5.3 MB)
        k = 8

        def state(*types):
            return S(tuple(types.count(i) for i in range(k)))

        # type i dies, begets one i + 1, or one i and one i + 3: delta = 0.6
        laws = tuple(OffspringLaw(((state(), 0.55), (state((i + 1) % k), 0.3),
                                   (state(i, (i + 3) % k), 0.15))) for i in range(k))
        model = BranchingModel(tuple(f"t{i}" for i in range(k)), laws)
        stopping = StoppingSet(frozenset({state(0, 1, 2, 3), state(7, 7, 7, 7), state(0, 0)}))
        summary = perron_triple(moments(model))
        booked = []
        check = genfun._check_budget
        monkeypatch.setattr(genfun, "_check_budget", lambda *a: booked.append(check(*a)))
        genfun._truncated_pairs.cache_clear()
        tracemalloc.start()
        try:
            results = series_absorptions(
                model, stopping, summary, [S((1000,) * k), state(0, 1)], state(0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(0.0 < r.value < 1.0 for r in results)
        assert len(booked) == 1 and peak < booked[0]

    def test_builds_no_kernel(self, m2, monkeypatch):
        model, stopping = m2
        summary = perron_triple(moments(model))
        states = exact_engine.enumerate_states

        def refuse_kernel(*args, **kwargs):
            raise AssertionError("series built a kernel")

        def degree_only(k, cap, *args, **kwargs):
            assert cap == stopping.max_total, "series enumerated states at the cap"
            return states(k, cap, *args, **kwargs)

        monkeypatch.setattr(exact_engine, "one_step_kernel", refuse_kernel)
        monkeypatch.setattr(exact_engine, "enumerate_states", degree_only)
        [result] = series_absorptions(
            model, stopping, summary, [S((30, 40))], S((1, 0)), tol=1e-10
        )
        assert 0.0 < result.value < 1.0

    def test_block_length_does_not_move_values(self, m1, monkeypatch):
        # the laws are summed in step order, the running total first, so the
        # values of several blocks are those of one block, bit for bit
        model, stopping = m1
        summary = perron_triple(moments(model))
        starts = [S((3,)), S((7,)), S((40,)), S((1000,))]
        laws = genfun.truncated_law_blocks
        blocks = []

        def counted(*args):
            out = list(laws(*args))
            blocks.append(len(out))
            return iter(out)

        def series():
            results = series_absorptions(model, stopping, summary, starts, S((2,)), tol=1e-12)
            return [(res.value, res.tail_bound) for res in results]

        monkeypatch.setattr(genfun, "truncated_law_blocks", counted)
        whole = series()
        for block_bytes in (1600, 3200):
            monkeypatch.setattr(genfun, "LAW_BLOCK_BYTES", block_bytes)
            assert series() == whole, block_bytes
        assert blocks[0] == 1 and min(blocks[1:]) > 1

    @pytest.mark.parametrize("name, r, starts", [
        ("m1", (2,), [(10**6,), (10**9,)]),
        ("m2", (1, 0), [(10**6, 10**6), (10**9, 2 * 10**9)]),
    ])
    def test_large_starts_against_mpmath(self, request, name, r, starts):
        # 50-digit reference by the stop-coefficient formula on decimal
        # probabilities; log a0 taken as log(1 - r) instead of log1p(-r)
        # moves these values by about 1.2e-11
        model, stopping = request.getfixturevalue(name)
        text = request.getfixturevalue(f"{name}_text")
        summary = perron_triple(moments(model))
        results = series_absorptions(
            model, stopping, summary, [S(n) for n in starts], S(r), tol=1e-12
        )
        for n, result in zip(starts, results):
            reference = mp_absorption(text, n, r, result.terms)
            assert abs(result.value - float(reference)) <= 1e-12, n


def linear_horizon(summary, counts, tol):
    for t in range(1, MAX_SERIES_TERMS + 1):
        bound = geometric_tail_bound(summary, counts, t - 1)
        if bound < tol:
            return t, bound
    raise AssertionError("no horizon")


class TestHorizon:
    @pytest.mark.parametrize("delta", [0.02, 0.3, 0.6, 0.9, 0.999])
    def test_matches_linear_scan(self, delta):
        law = OffspringLaw(((S((0,)), 1.0 - delta / 2), (S((2,)), delta / 2)))
        model = BranchingModel(("a",), (law,))
        summary = perron_triple(moments(model))
        for n in (1, 2, 7, 1000, 10**9):
            for tol in (0.5, 1e-3, 1e-9, 1e-10, 1e-13, 1e-15):
                expected = linear_horizon(summary, (n,), tol)
                assert exact_engine._horizon(summary, (n,), tol) == expected

    def test_matches_linear_scan_two_types(self, m2):
        summary = perron_triple(moments(m2[0]))
        for counts in [(0, 1), (1, 1), (30, 40), (10**6, 3)]:
            for tol in np.geomspace(1e-15, 1e-2, 40):
                expected = linear_horizon(summary, counts, tol)
                assert exact_engine._horizon(summary, counts, tol) == expected

    def test_refuses_nonpositive_tol(self, m1):
        summary = perron_triple(moments(m1[0]))
        with pytest.raises(ValueError, match="tol must be positive"):
            exact_engine._horizon(summary, (1,), 0.0)


class TestAbsorptionTable:
    def test_csv_round_values(self, m1, tmp_path):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        table = absorption_table(
            kernel, stopping, [S((1,)), S((3,))], S((2,)), t_list=[1, 2, 5]
        )
        out = tmp_path / "q.csv"
        with open(out, "w") as fh:
            table.write_csv(fh)
        text = out.read_text().splitlines()
        assert text[0] == "n,r,t,method,q,overflow_bound"
        assert len(text) == 1 + 2 * 3 * 3
        direct_rows = [l for l in text[1:] if ",direct," in l and l.startswith('"[1]"')]
        assert all(",0.3," in row or ",0.29999999999999999," in row for row in direct_rows)

    def test_routes_agree_in_table(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 12))
        table = absorption_table(
            kernel, stopping, [S((0, 2)), S((2, 0))], S((1, 0)), t_list=[1, 4, 8]
        )
        by_key = {}
        for row in table.rows:
            by_key.setdefault((row.n.counts, row.t), {})[row.method] = row.q
        for values in by_key.values():
            assert abs(values["direct"] - values["formula"]) <= 1e-10
            assert abs(values["direct"] - values["restricted"]) <= 1e-12


def assert_table_matches_routes(model, stopping, cap, t_list=(1, 4, 8), n_starts=24):
    """Every row of ``absorption_table`` against its route on its own
    backward table (``route_references``), and its overflow bound against
    the free chain's overflow mass, within 1e-13, for every target in S.
    Some q must be positive: a draw that never enters S compares zeros."""
    space = enumerate_states(model.k, cap)
    kernel = one_step_kernel(model, space)
    starts = [space.state(i) for i in range(1, space.n_states)]
    starts = [n for n in starts if n not in stopping][:n_starts]
    assert len(starts) >= 20
    largest = 0.0
    for r in stopping.sorted_members():
        routes, overflow = route_references(kernel, stopping, r, max(t_list))
        rows = iter(absorption_table(kernel, stopping, starts, r, list(t_list)).rows)
        for n in starts:
            s = space.ordinal(n)
            for t in t_list:
                for method in ROUTES:
                    row = next(rows)
                    assert (row.n, row.r, row.t, row.method) == (n, r, t, method)
                    assert abs(row.q - routes[method][t, s]) <= 1e-13
                    assert abs(row.overflow_bound - overflow[t, s]) <= 1e-13
                    largest = max(largest, row.q)
        assert next(rows, None) is None
    assert largest > 0.0, "S is never entered"


class TestAbsorptionTableBlock:
    @pytest.mark.parametrize("name, cap", [("m1", 40), ("m2", 12), ("k3", 8)])
    def test_matches_route_functions(self, request, name, cap):
        model, stopping = request.getfixturevalue(name)
        assert_table_matches_routes(model, stopping, cap)

    def test_overflow_bound_nonzero_at_small_cap(self, m2):
        # at cap 6 mass leaves the space within 8 steps, so the bound column
        # is exercised away from zero
        model, stopping = m2
        assert_table_matches_routes(model, stopping, 6)
