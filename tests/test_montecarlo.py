import hashlib
import tracemalloc

import numpy as np
import pytest

import stopbp.montecarlo as mc
from stopbp.exact_engine import enumerate_states, one_step_kernel, stopped_hitting_column
from stopbp.genfun import survival_path, yaglom
from stopbp.model import PopulationState, StoppingSet
from stopbp.montecarlo import (
    PARTICLE_BUDGET,
    AliasSampler,
    estimate_absorption,
    estimate_yaglom,
    trajectory_keys,
    _GAMMA,
    _batch_step,
    _samplers,
    _simulate_stopped_batch,
    _uniforms,
)

S = PopulationState


def rng(seed=0):
    return np.random.default_rng(seed)


# gamma is odd, so it has an inverse modulo 2**64
_GAMMA_INVERSE = np.uint64(pow(int(_GAMMA), -1, 2**64))


def batch_step(model, counts, rows, seed):
    """One generation from ``rows`` copies of ``counts`` (a state or a list of
    states); (next states, draws used), one row per trajectory.  The engine
    starts each trajectory's word at its key and advances it by gamma per
    draw, so the draws used are (word - key) / gamma modulo 2**64."""
    states = np.tile(np.asarray(counts, dtype=np.int64), (rows, 1))
    keys = trajectory_keys(seed, np.arange(len(states)))
    words = keys.copy()
    # the engine is type-major: (k, m) in, (k, m) out
    out = _batch_step(np.ascontiguousarray(states.T), words, _samplers(model))
    return out.T, (words - keys) * _GAMMA_INVERSE


def particle_reference(model, rows, seed):
    """The stream's definition, one particle at a time: draw number c of
    trajectory i is ``_uniforms(key_i + gamma * c)``, spent on the types in
    order."""
    samplers = _samplers(model)
    keys = trajectory_keys(seed, np.arange(len(rows)))
    out = np.zeros_like(rows)
    draws = np.zeros(len(rows), dtype=np.uint64)
    for i, row in enumerate(rows):
        for sampler, count in zip(samplers, row):
            for _ in range(count):
                u = _uniforms(keys[i : i + 1] + _GAMMA * draws[i : i + 1])
                out[i] += sampler.atoms[sampler.pick(u)[0]]
                draws[i] += 1
    return out, draws


def traced_peak(fn):
    """The peak of the memory that ``fn()`` allocates, traced, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def records(outcomes):
    """The engine's records by trajectory index: (kind, step, state), with
    step None for a trajectory alive at the horizon; a trajectory that died
    has none."""
    out = {}
    for kind in ("stopped", "exploded"):
        for i, step, state in zip(*getattr(outcomes, kind)):
            out[int(i)] = (kind, int(step), tuple(int(x) for x in state))
    for i, state in zip(*outcomes.alive):
        out[int(i)] = ("alive", None, tuple(int(x) for x in state))
    return out


def outcome_arrays(outcomes, m, t_max, k):
    """The (status, final, steps) arrays of the engine that filled one row per
    trajectory (0 alive, 1 died, 2 stopped, 3 exploded; final (m, k)), rebuilt
    from the records.  A died row, which has no record, reads status 1, final
    0 and step -1."""
    status = np.ones(m, dtype=np.int8)
    final = np.zeros((m, k), dtype=np.int64)
    steps = np.full(m, -1, dtype=np.int64)
    for code, (index, step, states) in ((2, outcomes.stopped), (3, outcomes.exploded)):
        status[index], steps[index], final[index] = code, step, states
    index, states = outcomes.alive
    status[index], steps[index], final[index] = 0, t_max, states
    return status, final, steps


class TestCounterStream:
    def test_deterministic(self):
        idx = np.arange(10)
        a = trajectory_keys(42, idx)
        b = trajectory_keys(42, idx)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, trajectory_keys(43, idx))

    def test_uniform_range_and_spread(self):
        keys = trajectory_keys(7, np.arange(200_000))
        u = _uniforms(keys)  # draw 0 of each stream
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.003
        assert abs(np.var(u) - 1 / 12) < 0.001


class TestAliasSampler:
    def test_frequencies_match_law(self, m2):
        model, _ = m2
        sampler = AliasSampler.from_law(model.laws[0])
        picks = sampler.pick(rng(1).random(200_000))
        freq = np.bincount(picks, minlength=3) / 200_000
        probs = [p for _, p in model.laws[0].atoms]
        np.testing.assert_allclose(freq, probs, atol=0.005)

    def test_single_atom(self):
        from stopbp.model import OffspringLaw

        law = OffspringLaw(((S((1, 0)), 1.0),))
        sampler = AliasSampler.from_law(law)
        assert np.all(sampler.pick(rng(2).random(100)) == 0)


class TestStep:
    def test_zero_absorbing(self, m1):
        model, _ = m1
        out, draws = batch_step(model, (0,), 100_000, 0)
        assert not out.any()
        assert not draws.any()

    def test_m1_frequencies(self, m1):
        model, _ = m1
        out, _ = batch_step(model, (1,), 100_000, 5)
        p0 = np.mean(out[:, 0] == 0)
        exact, sigma = 0.7, np.sqrt(0.7 * 0.3 / 100_000)
        assert abs(p0 - exact) <= 4 * sigma

    def test_m2_mean_total(self, m2):
        # row sums of the mean matrix: from (1,1) the expected next total
        # is (0.4 + 0.3) + (0.4 + 0.0) = 1.1
        model, _ = m2
        out, _ = batch_step(model, (1, 1), 100_000, 9)
        totals = out.sum(axis=1)
        sigma = totals.std() / np.sqrt(len(totals))
        assert abs(totals.mean() - 1.1) <= 4 * sigma


class TestStreamPinned:
    """Exact outputs recorded from the row-major engine that preceded the
    type-major one, at every worker count, and one step against the stream's
    definition: the engine may change its layout and arithmetic, never a
    stream.  The estimators also hold at particle budgets of 999 and, from one
    particle, 27: then 6 to 186 chunks split 20,000 or 5,000 reps into
    lengths that differ by one."""

    @pytest.mark.parametrize("name, n, r, t, seed, hits", [
        ("m1", (1,), (2,), 5, 42, 5970),
        ("m2", (1, 1), (1, 0), 18, 21, 7508),
        ("m2", (0, 2), (1, 0), 10, 7, 10518),
        ("k3", (1, 1, 1), (1, 0, 0), 10, 5, 4445),
        ("k3", (2, 0, 1), (0, 1, 1), 10, 6, 2608),
    ])
    def test_absorption_hits(self, request, monkeypatch, name, n, r, t, seed, hits):
        model, stopping = request.getfixturevalue(name)
        for budget in (PARTICLE_BUDGET, 999):
            monkeypatch.setattr(mc, "PARTICLE_BUDGET", budget)
            for workers in (1, 2, 3):
                est = estimate_absorption(
                    S(n), S(r), stopping, model, t, 20_000, seed, workers=workers
                )
                assert est.hits == hits

    @pytest.mark.parametrize("name, j, t, seed, survivors, counts", [
        ("m1", 1, 5, 3, 151, {(2,): 111, (4,): 32, (6,): 6, (8,): 1, (10,): 1}),
        ("m2", 1, 6, 8, 168, {
            (0, 1): 41, (0, 2): 7, (0, 3): 1, (1, 0): 48, (1, 1): 1, (1, 2): 1,
            (2, 0): 41, (2, 1): 12, (2, 2): 1, (2, 3): 1, (3, 0): 4, (3, 1): 5,
            (3, 2): 1, (4, 0): 2, (4, 2): 1, (6, 0): 1}),
        ("m2", 2, 4, 9, 304, {
            (0, 1): 94, (0, 2): 14, (1, 0): 90, (1, 1): 6, (1, 2): 3, (2, 0): 69,
            (2, 1): 13, (3, 0): 1, (3, 1): 4, (4, 0): 7, (4, 1): 1, (5, 0): 1,
            (6, 0): 1}),
    ])
    def test_yaglom_counts(self, request, monkeypatch, name, j, t, seed, survivors, counts):
        # the free process: the engine runs with an empty stopping set
        model, _ = request.getfixturevalue(name)
        for budget in (PARTICLE_BUDGET, 27, 999):
            monkeypatch.setattr(mc, "PARTICLE_BUDGET", budget)
            for workers in (1, 2, 3):
                est = estimate_yaglom(j, model, t, 5_000, seed, workers=workers)
                assert est.survivors == survivors
                assert est.counts == counts
                assert list(est.counts) == sorted(counts)

    @pytest.mark.parametrize("name, rows", [
        # trajectory 0 holds no type-a particle, so its segment starts at 0;
        # the law of type b has an all-zero column
        ("m2", [[0, 3], [2, 0], [0, 0], [1, 1], [4, 2]]),
        ("m2", [[3, 5]]),
        ("k3", [[0, 2, 1], [1, 0, 0], [2, 2, 2], [0, 0, 4]]),
        ("m1", [[0], [5], [1]]),
    ])
    def test_step_matches_particle_reference(self, request, name, rows):
        model, _ = request.getfixturevalue(name)
        for seed in (0, 17):
            out, draws = batch_step(model, rows, 1, seed)
            want, want_draws = particle_reference(model, np.array(rows), seed)
            np.testing.assert_array_equal(out, want)
            np.testing.assert_array_equal(draws, want_draws)

    def test_one_trajectory_batches(self, m2):
        # each trajectory leaves the same record, or none, run alone as
        # inside a batch of 40; at t_max = 3 some are still alive
        model, stopping = m2
        for t_max, kinds in ((18, {"stopped"}), (3, {"stopped", "alive"})):
            whole = records(_simulate_stopped_batch(
                model, S((1, 1)), stopping, t_max, 21, np.arange(40)
            ))
            assert {kind for kind, _, _ in whole.values()} == kinds
            assert len(whole) < 40  # some died
            for i in range(40):
                alone = records(_simulate_stopped_batch(
                    model, S((1, 1)), stopping, t_max, 21, np.array([i])
                ))
                assert alone == ({i: whole[i]} if i in whole else {})


class TestRunStopped:
    def test_m1_one_step_resolution(self, m1):
        # from one particle the trajectory always resolves at step 1:
        # either dead at 0 or stopped at (2), so at t_max = 1 none is alive
        model, stopping = m1
        for t_max in (1, 50):
            out = _simulate_stopped_batch(
                model, S((1,)), stopping, t_max, 3, np.arange(20_000)
            )
            assert out.alive[0].size == 0 and out.exploded[0].size == 0
            index, steps, final = out.stopped
            assert np.all(steps == 1)
            assert np.all(final == [2])
            assert np.array_equal(index, np.sort(index))
        stops = len(index)
        sigma = np.sqrt(0.3 * 0.7 / 20_000)
        assert abs(stops / 20_000 - 0.3) <= 4 * sigma

    def test_zero_horizon(self, m1):
        model, stopping = m1
        out = _simulate_stopped_batch(model, S((1,)), stopping, 0, 0, np.arange(10))
        index, final = out.alive
        assert np.array_equal(index, np.arange(10))
        assert np.all(final == [1])
        assert out.stopped[0].size == 0 and out.exploded[0].size == 0

    def test_start_in_stopping_set_rejected(self, m1):
        model, stopping = m1
        with pytest.raises(ValueError, match="stopping set"):
            estimate_absorption(S((2,)), S((2,)), stopping, model, 5, 10, 0)
        with pytest.raises(ValueError, match="zero"):
            estimate_absorption(S((0,)), S((2,)), stopping, model, 5, 10, 0)
        with pytest.raises(ValueError, match="2 entries for 1 types"):
            estimate_absorption(S((1, 0)), S((2,)), stopping, model, 5, 10, 0)

    def test_stopping_checked_before_branching(self, m2):
        # a trajectory that reports "stopped" must sit exactly on a
        # stopping state, and its step count is the first entry time
        model, stopping = m2
        _, _, final = _simulate_stopped_batch(
            model, S((0, 2)), stopping, 30, 13, np.arange(2000)
        ).stopped
        assert len(final)
        for row in final:
            assert S(tuple(int(x) for x in row)) in stopping


class TestEstimateAbsorption:
    def test_m1_matches_exact(self, m1):
        model, stopping = m1
        est = estimate_absorption(S((1,)), S((2,)), stopping, model, 5, 100_000, 42)
        assert est.within(0.3)

    def test_m2_matches_exact_engine(self, m2):
        model, stopping = m2
        kernel = one_step_kernel(model, enumerate_states(2, 40))
        column = stopped_hitting_column(kernel, stopping, S((1, 0)), 10)
        exact = column[10, kernel.space.ordinal(S((0, 2)))]
        est = estimate_absorption(S((0, 2)), S((1, 0)), stopping, model, 10, 100_000, 7)
        assert est.within(exact)

    def test_single_rep(self, m1):
        model, stopping = m1
        est = estimate_absorption(S((1,)), S((2,)), stopping, model, 5, 1, 0)
        assert est.value in (0.0, 1.0)
        assert est.stderr == 0.0

    def test_seed_determinism(self, m1):
        model, stopping = m1
        a = estimate_absorption(S((1,)), S((2,)), stopping, model, 5, 50_000, 11)
        b = estimate_absorption(S((1,)), S((2,)), stopping, model, 5, 50_000, 11)
        assert a.value == b.value and a.hits == b.hits

    def test_worker_count_invariance(self, m2):
        model, stopping = m2
        results = [
            estimate_absorption(
                S((0, 2)), S((1, 0)), stopping, model, 10, 20_000, 99, workers=w
            )
            for w in (1, 2, 3, 7)
        ]
        assert len({r.value for r in results}) == 1
        assert len({r.hits for r in results}) == 1

    def test_threads_capped_at_usable_cpus(self, m2, monkeypatch):
        # a fake pool records its size and runs inline: no thread starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        model, stopping = m2
        want = estimate_absorption(S((0, 2)), S((1, 0)), stopping, model, 10, 20_000, 99)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(mc, "PARTICLE_BUDGET", 999)
        est = estimate_absorption(
            S((0, 2)), S((1, 0)), stopping, model, 10, 20_000, 99, workers=10**6
        )
        assert est.hits == want.hits
        cpus = mc._usable_cpus()
        assert sizes == ([cpus] if cpus > 1 else [])
        # many CPUs: one chunk per thread, and no more threads than reps
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 64)
        sizes.clear()
        for reps, threads in ((20_000, 64), (5, 5)):
            est = estimate_absorption(
                S((0, 2)), S((1, 0)), stopping, model, 10, reps, 99, workers=10**6
            )
            assert est.hits == estimate_absorption(
                S((0, 2)), S((1, 0)), stopping, model, 10, reps, 99
            ).hits
        assert sizes == [64, 5]

    def test_memory_independent_of_reps(self, m2):
        # trajectories run in chunks of PARTICLE_BUDGET starting particles, so
        # 8x the reps costs no more memory; unchunked, the peak grew 8x
        model, stopping = m2

        def peak(reps):
            return traced_peak(lambda: estimate_absorption(
                S((1, 1)), S((1, 0)), stopping, model, 18, reps, 21))

        small = peak(250_000)
        assert peak(2_000_000) <= 1.25 * small

    def test_traced_peak_pinned(self, m2):
        # chunks of 2**17 starting particles, each trajectory carrying one
        # stream word, trace 6.3 MiB; 2**18 with a key and a counter, 13.5 MiB
        model, stopping = m2
        assert PARTICLE_BUDGET == 2**17
        assert traced_peak(lambda: estimate_absorption(
            S((1, 1)), S((1, 0)), stopping, model, 18, 500_000, 21)) <= 8 * 2**20

    def test_invalid_inputs(self, m1):
        model, stopping = m1
        with pytest.raises(ValueError):
            estimate_absorption(S((2,)), S((2,)), stopping, model, 5, 10, 0)
        with pytest.raises(ValueError):
            estimate_absorption(S((1,)), S((3,)), stopping, model, 5, 10, 0)
        with pytest.raises(ValueError):
            estimate_absorption(S((1,)), S((2,)), stopping, model, 5, 0, 0)


class TestEstimateYaglom:
    def test_conditioning_frequency_matches_survival(self, m1):
        # survival from one particle at t = 6 via the generating map
        model, _ = m1
        t = 6
        exact = float(survival_path(model, t, np.ones(1))[-1][0])
        est = estimate_yaglom(1, model, t, 200_000, 21)
        assert abs(est.conditioning_frequency - exact) <= 4 * est.conditioning_stderr

    def test_tv_against_exact_conditional(self, m1):
        model, _ = m1
        space = enumerate_states(1, 80)
        exact = yaglom(model, space, 1, 6)
        est = estimate_yaglom(1, model, 6, 500_000, 33)
        assert est.survivors > 1000
        assert est.tv_distance(exact) < 0.05

    def test_zero_horizon_point_mass(self, m1):
        model, _ = m1
        est = estimate_yaglom(1, model, 0, 100, 0)
        assert est.distribution() == {(1,): 1.0}
        assert est.conditioning_frequency == 1.0

    def test_worker_invariance(self, m1):
        model, _ = m1
        a = estimate_yaglom(1, model, 5, 30_000, 3, workers=1)
        b = estimate_yaglom(1, model, 5, 30_000, 3, workers=4)
        assert a.counts == b.counts

    def test_traced_peak_pinned(self, m2):
        # 11.4 MiB traced; 23.1 MiB at 2**18 with a key and a counter
        model, _ = m2
        assert traced_peak(lambda: estimate_yaglom(1, model, 9, 250_000, 21)) <= 14 * 2**20

    def test_bad_type(self, m1):
        model, _ = m1
        with pytest.raises(ValueError, match="out of range"):
            estimate_yaglom(2, model, 5, 10, 0)


class TestExplosionGuard:
    def test_exploded_rows_exceed_limit(self, supercritical, monkeypatch):
        import stopbp.montecarlo as mc

        model, _ = supercritical
        monkeypatch.setattr(mc, "EXPLOSION_LIMIT", 5000)
        stopping = StoppingSet(frozenset({S((3,))}))  # unreachable (even totals)
        status, final, steps = outcome_arrays(_simulate_stopped_batch(
            model, S((4,)), stopping, 60, 8, np.arange(50)
        ), 50, 60, 1)
        exploded = status == 3
        assert exploded.any()
        assert np.all(final[exploded].sum(axis=1) > 5000)
        # pinned from the row-major engine: every row explodes, at these steps
        assert np.all(exploded)
        assert int(final.sum()) == 317210 and int(steps.sum()) == 805
        raw = b"".join(np.ascontiguousarray(a).tobytes() for a in (status, final, steps))
        assert hashlib.sha256(raw).hexdigest()[:16] == "14f26782f132f481"

    def test_yaglom_rejects_explosion(self, supercritical, monkeypatch):
        import stopbp.montecarlo as mc

        model, _ = supercritical
        monkeypatch.setattr(mc, "EXPLOSION_LIMIT", 5000)
        with pytest.raises(ValueError, match="5000.*subcritical"):
            mc.estimate_yaglom(1, model, 60, 200, 1)

    def test_batch_estimator_counts_explosions_as_misses(
        self, supercritical, monkeypatch
    ):
        import stopbp.montecarlo as mc

        model, _ = supercritical
        monkeypatch.setattr(mc, "EXPLOSION_LIMIT", 5000)
        stopping = StoppingSet(frozenset({S((3,))}))
        est = mc.estimate_absorption(S((4,)), S((3,)), stopping, model, 60, 200, 1)
        assert est.value == 0.0  # odd target unreachable; explosions are not hits


class TestStatisticalAcceptanceSample:
    def test_m1_absorption_seed_sweep(self, m1):
        # small preview of the acceptance battery: 20 seeds at 20k reps
        model, stopping = m1
        misses = sum(
            not estimate_absorption(
                S((1,)), S((2,)), stopping, model, 5, 20_000, seed
            ).within(0.3)
            for seed in range(20)
        )
        assert misses <= 1
