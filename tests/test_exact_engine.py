import math

import numpy as np
import pytest

from stopbp.exact_engine import (
    CapacityError,
    absorb_direct,
    absorb_via_formula,
    absorb_via_restricted,
    absorption_table,
    compose,
    distribution_after,
    enumerate_states,
    hitting_columns,
    limiting_absorption,
    limiting_absorptions,
    one_step_kernel,
    restricted_kernel,
    restricted_via_inclusion_exclusion,
    stop_coefficients,
    stopped_hitting_column,
    stopped_kernel,
    t_step_kernel,
)
from stopbp.model import PopulationState
from stopbp.spectral import moments, perron_triple

from oracles import first_passage_probability, free_distribution, stopped_distribution

S = PopulationState


class TestEnumerateStates:
    def test_single_type(self):
        space = enumerate_states(1, 3)
        assert [s.counts for s in space.states] == [(0,), (1,), (2,), (3,)]

    def test_two_types_cap_two(self):
        space = enumerate_states(2, 2)
        assert space.n_states == 6
        assert set(s.counts for s in space.states) == {
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        }

    def test_count_matches_binomial(self):
        # C(13, 3) = 286
        assert enumerate_states(3, 10).n_states == 286
        for k, cap in [(1, 7), (2, 9), (4, 5)]:
            assert enumerate_states(k, cap).n_states == math.comb(cap + k, k)

    def test_graded_lex_and_zero_first(self):
        space = enumerate_states(2, 3)
        totals = [s.total for s in space.states]
        assert totals == sorted(totals)
        assert space.states[0].counts == (0, 0)
        # within a total level, counts ascend lexicographically
        level = [s.counts for s in space.states if s.total == 2]
        assert level == sorted(level)

    def test_no_duplicates(self):
        space = enumerate_states(3, 6)
        assert len({s.counts for s in space.states}) == space.n_states

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            enumerate_states(3, 10, limit=100)


class TestOneStepKernel:
    def test_m1_unit_row_is_the_law(self, m1):
        model, _ = m1
        space = enumerate_states(1, 6)
        kernel = one_step_kernel(model, space)
        row = kernel.row(S((1,)))
        assert row[space.ordinal(S((0,)))] == pytest.approx(0.7, abs=1e-15)
        assert row[space.ordinal(S((2,)))] == pytest.approx(0.3, abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_m1_two_particle_row_is_convolution(self, m1):
        # {0: 0.7, 2: 0.3} convolved with itself: {0: 0.49, 2: 0.42, 4: 0.09}
        model, _ = m1
        space = enumerate_states(1, 6)
        kernel = one_step_kernel(model, space)
        row = kernel.row(S((2,)))
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
            row = kernel.row(S(counts))
            for child, p in exact.items():
                assert row[space.ordinal(S(child))] == pytest.approx(p, abs=1e-14)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_overflow_collects_excess(self, m1):
        model, _ = m1
        space = enumerate_states(1, 3)  # (2) -> (4) must overflow
        kernel = one_step_kernel(model, space)
        row = kernel.row(S((2,)))
        assert row[space.overflow] == pytest.approx(0.09, abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_row_stochastic(self, m1, m2):
        for model, _ in (m1, m2):
            space = enumerate_states(model.k, 15)
            kernel = one_step_kernel(model, space)
            kernel.validate(tol=1e-12)


class TestTStepKernel:
    def test_t_equals_one_unchanged(self, m1):
        model, _ = m1
        kernel = one_step_kernel(model, enumerate_states(1, 8))
        assert t_step_kernel(kernel, 1) is kernel or np.array_equal(
            t_step_kernel(kernel, 1).matrix, kernel.matrix
        )

    def test_two_step_hand_value(self, m1):
        # P(2 steps, 1 -> 0) = 0.7 + 0.3 * 0.49 = 0.847
        model, _ = m1
        kernel = one_step_kernel(model, enumerate_states(1, 16))
        two = t_step_kernel(kernel, 2)
        space = kernel.space
        assert two.matrix[space.ordinal(S((1,))), 0] == pytest.approx(0.847, abs=1e-15)

    def test_composition_associative(self, m2):
        model, _ = m2
        kernel = one_step_kernel(model, enumerate_states(2, 8))
        lhs = compose(kernel, t_step_kernel(kernel, 2))
        rhs = compose(t_step_kernel(kernel, 2), kernel)
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-12
        assert lhs.t == rhs.t == 3

    def test_chapman_kolmogorov_random_splits(self, m2):
        model, _ = m2
        kernel = one_step_kernel(model, enumerate_states(2, 10))
        rng = np.random.default_rng(7)
        for _ in range(5):
            t1, t2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            both = t_step_kernel(kernel, t1 + t2)
            split = compose(t_step_kernel(kernel, t1), t_step_kernel(kernel, t2))
            assert np.max(np.abs(both.matrix - split.matrix)) <= 1e-12

    def test_matches_bruteforce_distribution(self, m2):
        model, _ = m2
        space = enumerate_states(2, 14)
        kernel = one_step_kernel(model, space)
        exact = free_distribution(model, (1, 1), 3)
        v = distribution_after(kernel, S((1, 1)), 3)
        for counts, p in exact.items():
            assert v[space.ordinal(S(counts))] == pytest.approx(p, abs=1e-13)


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
        assert restricted.value(2, S((1,)), S((2,))) == 0.0

    def test_against_bruteforce(self, m2):
        # cap 40 covers every reachable total within 4 steps of the tested
        # starts, so the capped values are exact
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 40))
        restricted = restricted_kernel(kernel, stopping, 4)
        for t in (1, 2, 3, 4):
            for start in [(0, 1), (0, 2), (2, 0), (1, 1)]:
                oracle = first_passage_probability(model, start, {(1, 0)}, (1, 0), t)
                assert restricted.value(t, S(start), S((1, 0))) == pytest.approx(
                    oracle, abs=1e-13
                ), (t, start)

    def test_dominated_by_free_kernel(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 10))
        t_max = 8
        restricted = restricted_kernel(kernel, stopping, t_max)
        free = hitting_columns(kernel, restricted.targets, t_max)
        for t in range(1, t_max + 1):
            assert np.all(restricted.values[t - 1] <= free[t] + 1e-12)

    def test_inclusion_exclusion_identity(self, m1, m2):
        for model, stopping in (m1, m2):
            kernel = one_step_kernel(model, enumerate_states(model.k, 20))
            t_max = 6
            a = restricted_kernel(kernel, stopping, t_max).values
            b = restricted_via_inclusion_exclusion(kernel, stopping, t_max)
            assert np.max(np.abs(a - b)) <= 1e-12

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
        r = S((1, 0))
        assert coeffs.value(r, r, 1, 1) == 1.0

    def test_shift_rule(self, m1):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 12))
        coeffs = stop_coefficients(restricted_kernel(kernel, stopping, 10))
        r = S((2,))
        assert coeffs.value(r, r, 5, 3) == coeffs.value(r, r, 3, 1)
        for t in range(2, 8):
            for l in range(1, t):
                assert coeffs.value(r, r, t + 1, l + 1) == coeffs.value(r, r, t, l)

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
        assert coeffs.limit(S((2,)), S((2,))) == pytest.approx(1.0 - series, abs=1e-10)

    def test_rigorous_bound_with_summary(self, m1):
        model, stopping = m1
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(1, 60))
        short = stop_coefficients(restricted_kernel(kernel, stopping, 30), summary=summary)
        long = stop_coefficients(restricted_kernel(kernel, stopping, 120), summary=summary)
        r = S((2,))
        assert short.rigorous_bounds
        assert abs(short.limit(r, r) - long.limit(r, r)) <= short.limit_bound(r, r)


class TestAbsorptionRoutes:
    def test_m1_single_step(self, m1):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        assert absorb_direct(kernel, stopping, S((1,)), S((2,)), 1) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_m1_any_horizon_is_03(self, m1):
        # from one particle every path either dies at 0 or stops at (2) in
        # exactly one step, so the probability is 0.3 for every t
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        for t in (1, 2, 5, 30):
            assert absorb_direct(kernel, stopping, S((1,)), S((2,)), t) == pytest.approx(
                0.3, abs=1e-14
            )

    def test_start_inside_stopping_set_rejected(self, m1):
        model, stopping = m1
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        with pytest.raises(ValueError, match="inside the stopping set"):
            absorb_direct(kernel, stopping, S((2,)), S((2,)), 3)
        with pytest.raises(ValueError, match="zero state"):
            absorb_direct(kernel, stopping, S((0,)), S((2,)), 3)

    def test_direct_matches_bruteforce(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 14))
        for t in (1, 2, 3):
            oracle = stopped_distribution(model, (0, 2), {(1, 0)}, t).get((1, 0), 0.0)
            got = absorb_direct(kernel, stopping, S((0, 2)), S((1, 0)), t)
            assert got == pytest.approx(oracle, abs=1e-13)

    def test_three_routes_agree(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 16))
        t_max = 10
        restricted = restricted_kernel(kernel, stopping, t_max)
        coeffs = stop_coefficients(restricted)
        n, r = S((0, 2)), S((1, 0))
        for t in range(1, t_max + 1):
            direct = absorb_direct(kernel, stopping, n, r, t)
            formula = absorb_via_formula(kernel, coeffs, n, r, t)
            partial = absorb_via_restricted(restricted, n, r, t)
            assert abs(direct - formula) <= 1e-10
            assert abs(direct - partial) <= 1e-12

    def test_monotone_in_horizon(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 12))
        col = stopped_hitting_column(kernel, stopping, S((1, 0)), 25)
        diffs = np.diff(col, axis=0)
        assert diffs.min() >= -1e-15

    def test_mass_balance(self, m2):
        # stopped chain mass at time t splits into: absorbed in the stopping
        # set, dead at zero, still alive, or overflowed; sums to one
        model, stopping = m2
        space = enumerate_states(2, 10)
        kernel = one_step_kernel(model, space)
        stopped = stopped_kernel(kernel, stopping)
        v = distribution_after(stopped, S((0, 2)), 12)
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
            values.append(absorb_direct(kernel, stopping, n, r, t))
        for small, big in zip(values, values[1:]):
            assert small <= big + 1e-12


class TestLimitingAbsorption:
    def test_m1_limit_is_03(self, m1):
        model, stopping = m1
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(1, 40))
        restricted = restricted_kernel(kernel, stopping, 80)
        result = limiting_absorption(
            kernel, restricted, summary, S((1,)), S((2,)), tol=1e-10
        )
        assert result.value == pytest.approx(0.3, abs=max(result.tail_bound, 1e-10))
        assert result.tail_bound < 1e-9

    def test_agrees_with_long_horizon_direct(self, m2):
        model, stopping = m2
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(2, 24))
        restricted = restricted_kernel(kernel, stopping, 150)
        n, r = S((0, 2)), S((1, 0))
        result = limiting_absorption(kernel, restricted, summary, n, r, tol=1e-11)
        oracle = absorb_direct(kernel, stopping, n, r, 200)
        assert result.value == pytest.approx(oracle, abs=max(1e-10, result.tail_bound))

    def test_supercritical_rejected(self, supercritical):
        model, stopping = supercritical
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        restricted = restricted_kernel(kernel, stopping, 10)
        with pytest.raises(ValueError, match="subcritical"):
            limiting_absorption(kernel, restricted, summary, S((1,)), S((2,)))

    @pytest.mark.parametrize("name, cap, starts, overflows", [
        ("m1", 200, [(1,), (7,), (40,), (150,)], False),
        ("m1", 30, [(1,), (9,), (25,)], True),
        ("m2", 24, [(0, 2), (3, 1), (5, 5), (10, 0)], False),
    ])
    def test_many_starts_match_single_start(self, request, name, cap, starts, overflows):
        # one backward pass for all starts against one forward row per start
        model, stopping = request.getfixturevalue(name)
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(model.k, cap))
        restricted = restricted_kernel(kernel, stopping, 60)
        r = stopping.sorted_members()[0]
        starts = [S(counts) for counts in starts]
        many = limiting_absorptions(kernel, restricted, summary, starts, r, tol=1e-10)
        assert len(many) == len(starts)
        for n, got in zip(starts, many):
            one = limiting_absorption(kernel, restricted, summary, n, r, tol=1e-10)
            assert got.terms == one.terms
            assert got.tail_bound == one.tail_bound
            assert abs(got.value - one.value) <= 1e-14
            assert abs(got.overflow_mass - one.overflow_mass) <= 1e-14
        assert (max(res.overflow_mass for res in many) > 1e-6) == overflows

    def test_many_starts_rejects_stopping_start(self, m1):
        model, stopping = m1
        summary = perron_triple(moments(model))
        kernel = one_step_kernel(model, enumerate_states(1, 20))
        restricted = restricted_kernel(kernel, stopping, 20)
        with pytest.raises(ValueError, match="inside the stopping set"):
            limiting_absorptions(
                kernel, restricted, summary, [S((1,)), S((2,))], S((2,))
            )


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
