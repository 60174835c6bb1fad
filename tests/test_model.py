import json

import pytest

from stopbp.model import (
    ModelFormatError,
    ModelValidationError,
    OffspringLaw,
    PopulationState,
    StoppingSet,
    dump_model,
    load_model,
    parse_state,
    unit_state,
    zero_state,
)


class TestPopulationState:
    def test_total(self):
        assert PopulationState((2, 0, 3)).total == 5

    def test_zero_distinct_from_units(self):
        z = zero_state(2)
        assert z.is_zero
        assert z != unit_state(1, 2)
        assert z != unit_state(2, 2)

    def test_negative_rejected(self):
        with pytest.raises(ModelValidationError):
            PopulationState((1, -1))

    def test_label_roundtrip(self):
        s = PopulationState((2, 0))
        assert s.label() == "[2,0]"
        assert parse_state("[2,0]") == s

    def test_parse_rejects_garbage(self):
        with pytest.raises(ModelFormatError):
            parse_state("2,0")
        with pytest.raises(ModelFormatError):
            parse_state("[a,b]")


class TestUnitState:
    def test_first(self):
        assert unit_state(1, 2).counts == (1, 0)

    def test_second(self):
        assert unit_state(2, 2).counts == (0, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unit_state(3, 2)
        with pytest.raises(ValueError):
            unit_state(0, 2)

    def test_total_is_one(self):
        for k in range(1, 6):
            for i in range(1, k + 1):
                assert unit_state(i, k).total == 1


class TestOffspringLaw:
    def test_atoms_canonicalized(self):
        a = OffspringLaw(((PopulationState((2,)), 0.3), (PopulationState((0,)), 0.7)))
        b = OffspringLaw(((PopulationState((0,)), 0.7), (PopulationState((2,)), 0.3)))
        assert a == b
        assert [s.counts for s, _ in a.atoms] == [(0,), (2,)]

    def test_sum_violation(self):
        with pytest.raises(ModelValidationError, match="sum"):
            OffspringLaw(((PopulationState((0,)), 0.7), (PopulationState((2,)), 0.31)))

    def test_duplicate_atom(self):
        with pytest.raises(ModelValidationError, match="duplicate"):
            OffspringLaw(((PopulationState((0,)), 0.5), (PopulationState((0,)), 0.5)))

    def test_nonpositive_probability(self):
        with pytest.raises(ModelValidationError, match="positive"):
            OffspringLaw(((PopulationState((0,)), 1.0), (PopulationState((2,)), 0.0)))


class TestStoppingSet:
    def test_zero_rejected(self):
        with pytest.raises(ModelValidationError, match="zero state"):
            StoppingSet(frozenset({zero_state(1)}))

    def test_empty_rejected(self):
        with pytest.raises(ModelValidationError, match="empty"):
            StoppingSet(frozenset())

    def test_max_total(self):
        s = StoppingSet(frozenset({PopulationState((2, 0)), PopulationState((1, 2))}))
        assert s.max_total == 3

    def test_sorted_members_graded_lex(self):
        s = StoppingSet(
            frozenset(
                {PopulationState((0, 2)), PopulationState((1, 0)), PopulationState((2, 0))}
            )
        )
        assert [m.counts for m in s.sorted_members()] == [(1, 0), (0, 2), (2, 0)]


class TestLoadModel:
    def test_m1(self, m1_text):
        model, stopping = load_model(m1_text)
        assert model.k == 1
        assert len(model.laws[0].atoms) == 2
        assert stopping is not None and PopulationState((2,)) in stopping

    def test_m2_mean_matrix(self, m2_text):
        # expectations computed atom by atom:
        #   type 1: 0.5*(0,0) + 0.3*(0,1) + 0.2*(2,0) = (0.4, 0.3)
        #   type 2: 0.6*(0,0) + 0.4*(1,0)             = (0.4, 0.0)
        model, _ = load_model(m2_text)
        means = []
        for law in model.laws:
            mean = [0.0, 0.0]
            for state, p in law.atoms:
                for j, c in enumerate(state.counts):
                    mean[j] += p * c
            means.append(mean)
        assert means[0] == pytest.approx([0.4, 0.3], abs=1e-15)
        assert means[1] == pytest.approx([0.4, 0.0], abs=1e-15)

    def test_bad_probability_sum(self):
        text = json.dumps(
            {
                "version": 1,
                "types": ["a"],
                "offspring": [[{"counts": [0], "p": 0.7}, {"counts": [2], "p": 0.31}]],
            }
        )
        with pytest.raises(ModelValidationError, match="type 1"):
            load_model(text)

    def test_parse_error_has_position(self):
        with pytest.raises(ModelFormatError, match="line"):
            load_model("{not json")

    def test_unknown_field_rejected(self):
        text = json.dumps(
            {
                "version": 1,
                "types": ["a"],
                "offspring": [[{"counts": [0], "p": 1.0}]],
                "stoping_set": [[2]],
            }
        )
        with pytest.raises(ModelFormatError, match="unknown"):
            load_model(text)

    def test_wrong_version(self):
        text = json.dumps(
            {"version": 2, "types": ["a"], "offspring": [[{"counts": [0], "p": 1.0}]]}
        )
        with pytest.raises(ModelFormatError, match="version"):
            load_model(text)

    def test_dimension_mismatch(self):
        text = json.dumps(
            {
                "version": 1,
                "types": ["a", "b"],
                "offspring": [
                    [{"counts": [0], "p": 1.0}],
                    [{"counts": [0, 0], "p": 1.0}],
                ],
            }
        )
        with pytest.raises((ModelFormatError, ModelValidationError)):
            load_model(text)

    def test_zero_in_stopping_set(self):
        text = json.dumps(
            {
                "version": 1,
                "types": ["a"],
                "offspring": [[{"counts": [0], "p": 1.0}]],
                "stopping_set": [[0]],
            }
        )
        with pytest.raises(ModelValidationError, match="zero state"):
            load_model(text)

    def test_roundtrip(self, m1_text, m2_text):
        for text in (m1_text, m2_text):
            model, stopping = load_model(text)
            again, stopping2 = load_model(dump_model(model, stopping))
            assert again == model
            assert stopping2 == stopping

    def test_all_mass_sums_to_one(self, m1, m2):
        for model, _ in (m1, m2):
            for law in model.laws:
                assert abs(sum(p for _, p in law.atoms) - 1.0) <= 1e-12


class TestImmutability:
    def test_model_hashable(self, m1, m2):
        model1, s1 = m1
        model2, s2 = m2
        assert len({model1, model2}) == 2
        assert len({s1, s2}) == 2

    def test_frozen(self, m1):
        model, _ = m1
        with pytest.raises(Exception):
            model.type_names = ("x",)
