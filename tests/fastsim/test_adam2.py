"""Tests for the vectorised Adam2 simulation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core.config import Adam2Config
from repro.fastsim.adam2 import Adam2Simulation
from repro.workloads.synthetic import step_workload, uniform_workload


def make_sim(n=200, seed=0, churn=0.0, **config_kwargs):
    defaults = dict(points=10, rounds_per_instance=30)
    defaults.update(config_kwargs)
    return Adam2Simulation(
        uniform_workload(0, 1000), n, Adam2Config(**defaults), seed=seed, churn_rate=churn
    )


class TestConstruction:
    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sim(n=1)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            Adam2Simulation(uniform_workload(0, 10), 10, Adam2Config(), exchange="telepathy")

    def test_deterministic_given_seed(self):
        a = make_sim(seed=9).run_instance()
        b = make_sim(seed=9).run_instance()
        assert np.array_equal(a.fractions, b.fractions)
        assert a.errors_entire == b.errors_entire


class TestSingleInstance:
    def test_converges_at_points(self):
        result = make_sim().run_instance()
        assert result.errors_points.maximum < 1e-5
        assert result.joined.all()

    def test_fraction_rows_nearly_identical(self):
        result = make_sim().run_instance()
        spread = result.fractions.std(axis=0).max()
        assert spread < 1e-5  # paper: cross-node std below 1e-5

    def test_size_estimates(self):
        result = make_sim(n=150).run_instance()
        assert np.median(result.size_estimates()) == pytest.approx(150.0, rel=1e-6)

    def test_extremes_found(self):
        sim = make_sim()
        result = sim.run_instance()
        assert result.minimum.min() == sim.values.min()
        assert result.maximum.max() == sim.values.max()
        # Everyone agrees after the epidemic.
        assert (result.minimum == sim.values.min()).all()

    def test_trace_recorded(self):
        result = make_sim().run_instance(track=True, track_every=5)
        assert len(result.trace) == 6  # 30 rounds / every 5
        assert result.trace.max_points[-1] < result.trace.max_points[0]

    def test_mean_estimate_queryable(self):
        sim = make_sim()
        estimate = sim.run_instance().mean_estimate()
        mid = estimate.evaluate(np.asarray([500.0]))[0]
        assert 0.4 < mid < 0.6

    def test_cost_accounting(self):
        sim = make_sim(n=100)
        result = sim.run_instance()
        # Near-everyone exchanges every round once joined.
        assert result.messages_total > 100 * 20
        assert result.bytes_total == result.messages_total * sim.config.message_bytes()

    def test_invalid_rounds(self):
        with pytest.raises(ConfigurationError):
            make_sim().run_instance(rounds=0)


class TestMultiInstance:
    def test_refinement_improves_step_cdf(self):
        sim = Adam2Simulation(
            step_workload([100.0, 200.0, 400.0, 800.0], weights=[0.4, 0.3, 0.2, 0.1]),
            300,
            Adam2Config(points=12, rounds_per_instance=25, selection="minmax"),
            seed=3,
        )
        run = sim.run_instances(4)
        maxs, _ = run.errors_by_instance()
        assert maxs[-1] < 0.5 * maxs[0]

    def test_run_result_accessors(self):
        run = make_sim().run_instances(2)
        assert len(run.instances) == 2
        assert run.final is run.instances[-1]
        assert run.final_errors == run.final.errors_entire
        assert run.estimate is not None

    def test_zero_instances_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sim().run_instances(0)

    def test_selection_override(self):
        sim = make_sim()
        sim.run_instance()
        result = sim.run_instance(selection="hcut")
        assert result.instance_index == 1


class TestChurn:
    def test_population_values_change(self):
        sim = make_sim(n=300, churn=0.01)
        before = sim.values.copy()
        sim.run_instance()
        assert not np.array_equal(sim.values, before)

    def test_errors_still_small_at_reference_churn(self):
        sim = make_sim(n=300, churn=0.001)
        result = sim.run_instance(rounds=40)
        assert result.errors_points.maximum < 0.05

    def test_participants_excludes_joiners(self):
        sim = make_sim(n=300, churn=0.05)
        result = sim.run_instance()
        assert result.participants.sum() < 300
        # Excluded joiners never join the running instance.
        assert not result.joined[~result.participants].any()

    def test_system_errors_after_instances(self):
        sim = make_sim(n=300, churn=0.01)
        sim.run_instances(2)
        errors = sim.system_errors()
        assert 0.0 <= errors.average <= 1.0
        assert errors.maximum >= errors.average

    def test_system_errors_before_any_instance_raises(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            make_sim().system_errors()


class TestConfidence:
    def test_confidence_sample_populated(self):
        sim = make_sim(verification_points=8)
        result = sim.run_instance(confidence_sample=20)
        assert result.est_errm.shape == result.est_erra.shape
        assert result.true_errm.shape[0] <= 20
        assert (result.est_errm >= result.est_erra - 1e-12).all()

    def test_no_confidence_without_verification(self):
        result = make_sim().run_instance(confidence_sample=20)
        assert result.est_errm is None


class TestMatchingKernel:
    def test_matching_converges(self):
        sim = Adam2Simulation(
            uniform_workload(0, 1000), 500, Adam2Config(points=8, rounds_per_instance=40),
            seed=4, exchange="matching",
        )
        result = sim.run_instance()
        assert result.errors_points.maximum < 1e-4


class TestBatchedState:
    def test_batch_and_buffers_reused_across_instances(self):
        sim = make_sim()
        sim.run_instance()
        batch, buffers = sim._batch, sim._buffers
        sim.run_instance()
        assert sim._batch is batch
        assert sim._buffers is buffers

    def test_results_detached_from_reused_batch(self):
        sim = make_sim()
        first = sim.run_instance()
        snapshot = (first.fractions.copy(), first.weights.copy())
        sim.run_instance()
        # The second instance refills the shared batch in place; the
        # first result must hold copies, not views into it.
        assert np.array_equal(first.fractions, snapshot[0])
        assert np.array_equal(first.weights, snapshot[1])

    def test_float32_mode_converges(self):
        config = Adam2Config(points=10, rounds_per_instance=30)
        f64 = Adam2Simulation(
            uniform_workload(0, 1000), 400, config, seed=2, dtype="float64"
        ).run_instance()
        f32 = Adam2Simulation(
            uniform_workload(0, 1000), 400, config, seed=2, dtype="float32"
        ).run_instance()
        assert f32.errors_points.maximum < 1e-3
        assert f32.errors_entire.average == pytest.approx(
            f64.errors_entire.average, abs=1e-3
        )

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            Adam2Simulation(
                uniform_workload(0, 10), 10, Adam2Config(), dtype="float16"
            )


@pytest.mark.parametrize("exchange", ["sequential", "matching"])
class TestKernelCallShape:
    """The per-round kernel is a public instance attribute that profilers
    and the sanitizer tests wrap; pin the shape of its calls."""

    def test_kernel_called_once_per_round_on_state(self, exchange):
        n, rounds = 300, 12
        sim = Adam2Simulation(
            uniform_workload(0, 1000), n,
            Adam2Config(points=10, rounds_per_instance=rounds),
            seed=3, exchange=exchange,
        )
        assert "kernel" in vars(sim)
        inner = sim.kernel
        calls = []

        def spy(*args, **kwargs):
            active = inner(*args, **kwargs)
            calls.append((args[0], active))
            return active

        sim.kernel = spy
        result = sim.run_instance()
        assert len(calls) == rounds
        width = result.thresholds.size + result.v_thresholds.size + 1
        for state, active in calls:
            assert isinstance(state, np.ndarray)
            assert state.shape == (n, width)
            assert state.nbytes == n * width * state.itemsize
            assert isinstance(active, int)
        # The return value is the active pair count the accounting uses.
        assert result.messages_total == 2 * sum(active for _, active in calls)
        if exchange == "matching":
            assert calls[-1][1] == n // 2
