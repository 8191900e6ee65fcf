"""Loadtest subsystem: seeded arrivals, scripted chaos, virtual-time replay."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.cli import main
from repro.loadtest import (BASE_READ_SECONDS, CORRUPT, LATENCY_SPIKE, OUTAGE,
                            PER_KEY_READ_SECONDS, SLOW_STORE, ChaosStore,
                            ChaosWindow, ColdStartKeys, LoadTestHarness,
                            Request, SCENARIOS, ServingFaultSchedule,
                            ZipfKeys, bursty_trace, chaos_schedule,
                            onoff_times, piecewise_poisson_times,
                            poisson_times, run_chaos, run_loadtest,
                            steady_trace)
from repro.lookalike import EmbeddingStore
from repro.resilience.faults import StoreUnavailableError
from repro.utils import ManualClock as FakeClock


class TestArrivals:
    def test_poisson_seeded_and_bounded(self):
        a = poisson_times(100.0, 5.0, rng=7)
        b = poisson_times(100.0, 5.0, rng=7)
        np.testing.assert_array_equal(a, b)
        assert (a >= 0).all() and (a < 5.0).all()
        assert (np.diff(a) >= 0).all()
        # mean count within a loose 5-sigma band of rate * duration
        assert 500 - 5 * np.sqrt(500) < len(a) < 500 + 5 * np.sqrt(500)

    def test_piecewise_burst_raises_local_density(self):
        times = piecewise_poisson_times(
            [(0.0, 10.0, 50.0), (4.0, 6.0, 450.0)], rng=0)
        burst = ((times >= 4.0) & (times < 6.0)).sum()
        before = (times < 4.0).sum()
        assert burst > 3 * before  # 10x the rate over half the span

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            piecewise_poisson_times([(2.0, 1.0, 10.0)])
        with pytest.raises(ValueError):
            piecewise_poisson_times([(0.0, 1.0, -5.0)])

    @pytest.mark.parametrize("segment", [
        (0.0, float("nan"), 10.0), (0.0, float("inf"), 10.0),
        (float("nan"), 1.0, 10.0), (float("-inf"), 1.0, 10.0),
        (0.0, 1.0, float("nan")), (0.0, 1.0, float("inf"))])
    def test_non_finite_segment_rejected(self, segment):
        # a NaN or infinite end never stops the gap loop: it must not start
        with pytest.raises(ValueError, match="finite"):
            piecewise_poisson_times([segment])

    @pytest.mark.parametrize("period, duration", [
        (2.0, float("inf")), (2.0, float("nan")), (float("inf"), 8.0),
        (float("nan"), 8.0)])
    def test_onoff_non_finite_rejected(self, period, duration):
        with pytest.raises(ValueError, match="finite"):
            onoff_times(on_rate=400.0, off_rate=10.0, period=period,
                        duty=0.5, duration=duration, rng=0)

    def test_onoff_alternates_rates(self):
        times = onoff_times(on_rate=400.0, off_rate=10.0, period=2.0,
                            duty=0.5, duration=8.0, rng=0)
        phase = np.floor(times / 1.0).astype(int) % 2  # 1s on, 1s off
        assert (phase == 0).sum() > 5 * (phase == 1).sum()

    def test_zipf_concentrates_on_hot_keys(self):
        sampler = ZipfKeys(1000, exponent=1.2)
        keys = sampler.sample(5000, np.random.default_rng(0))
        __, counts = np.unique(keys, return_counts=True)
        assert counts.max() > 20 * 5000 / 1000  # hot key >> uniform share

    def test_cold_start_keys_are_out_of_range(self):
        sampler = ColdStartKeys(first_unknown=512)
        keys = sampler.sample(100, np.random.default_rng(0))
        assert (keys >= 512).all()

    def test_scenarios_all_produce_sorted_in_range_traces(self):
        for name, trace_fn in SCENARIOS.items():
            events = trace_fn(duration=3.0, rate=50.0, n_keys=64, seed=1)
            assert events, name
            ts = [e.ts for e in events]
            assert ts == sorted(ts), name
            assert 0.0 <= ts[0] and ts[-1] < 3.0, name

    def test_traces_are_seed_deterministic(self):
        assert steady_trace(seed=3) == steady_trace(seed=3)
        assert bursty_trace(seed=3) != bursty_trace(seed=4)


class TestChaosSchedule:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            ChaosWindow("meteor", 0.0, 1.0)
        with pytest.raises(ValueError):
            ChaosWindow(OUTAGE, 2.0, 1.0)

    @pytest.mark.parametrize("start, end, magnitude", [
        (1.0, float("nan"), 1.0), (float("nan"), 1.0, 1.0),
        (0.0, float("inf"), 1.0), (0.0, 1.0, float("nan")),
        (0.0, 1.0, float("inf"))])
    def test_non_finite_window_rejected(self, start, end, magnitude):
        # a NaN outage would never be active: the gate would pass unharmed
        with pytest.raises(ValueError, match="finite"):
            ChaosWindow(OUTAGE, start, end, magnitude)

    def test_modifiers_compose(self):
        schedule = ServingFaultSchedule(
            windows=[ChaosWindow(SLOW_STORE, 0.0, 10.0, magnitude=2.0),
                     ChaosWindow(SLOW_STORE, 5.0, 10.0, magnitude=3.0),
                     ChaosWindow(LATENCY_SPIKE, 5.0, 10.0, magnitude=0.01),
                     ChaosWindow(CORRUPT, 5.0, 10.0, magnitude=0.5)],
            corruption_rate=0.1)
        assert schedule.slowdown(1.0) == pytest.approx(2.0)
        assert schedule.slowdown(6.0) == pytest.approx(6.0)   # compound
        assert schedule.slowdown(11.0) == pytest.approx(1.0)
        assert schedule.extra_latency(6.0) == pytest.approx(0.01)
        assert schedule.corruption_at(1.0) == pytest.approx(0.1)  # background
        assert schedule.corruption_at(6.0) == pytest.approx(0.5)  # window wins

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ServingFaultSchedule(failure_rate=1.5)

    def test_rates_outside_unit_interval_rejected(self):
        for name in ("failure_rate", "corruption_rate"):
            for rate in (-0.1, 2.0):
                with pytest.raises(ValueError, match=name):
                    ServingFaultSchedule(**{name: rate})

    def test_acceptance_schedule_has_the_gate_ingredients(self):
        schedule = chaos_schedule(duration=30.0)
        assert schedule.failure_rate == pytest.approx(0.2)
        outages = schedule.of(OUTAGE)
        assert len(outages) == 1
        assert outages[0].end - outages[0].start == pytest.approx(2.0)
        for kind in (SLOW_STORE, LATENCY_SPIKE, CORRUPT):
            assert schedule.of(kind), kind


class TestChaosStore:
    def _store(self, schedule, clock, **kwargs):
        inner = EmbeddingStore(dim=4)
        inner.put_many(range(8), np.random.default_rng(0).normal(size=(8, 4)))
        return inner, ChaosStore(inner, schedule, clock=clock, **kwargs)

    def test_bills_virtual_service_time(self):
        clock = FakeClock()
        __, chaos = self._store(ServingFaultSchedule(), clock)
        chaos.get_batch(list(range(8)))
        assert clock() == pytest.approx(BASE_READ_SECONDS
                                        + 8 * PER_KEY_READ_SECONDS)

    def test_slow_window_multiplies_and_spike_adds(self):
        clock = FakeClock()
        schedule = ServingFaultSchedule(
            windows=[ChaosWindow(SLOW_STORE, 0.0, 10.0, magnitude=4.0),
                     ChaosWindow(LATENCY_SPIKE, 0.0, 10.0, magnitude=0.05)])
        __, chaos = self._store(schedule, clock)
        chaos.get(0)
        assert clock() == pytest.approx(
            (BASE_READ_SECONDS + PER_KEY_READ_SECONDS) * 4.0 + 0.05)

    def test_outage_window_fails_fast(self):
        clock = FakeClock()
        schedule = ServingFaultSchedule(
            windows=[ChaosWindow(OUTAGE, 1.0, 2.0)])
        __, chaos = self._store(schedule, clock)
        chaos.get(0)                       # before the window: fine
        clock.now = 1.5
        with pytest.raises(StoreUnavailableError):
            chaos.get_batch([0, 1])
        assert clock() == pytest.approx(1.5)  # no service time billed
        assert chaos.outage_rejections == 1
        clock.now = 2.5
        chaos.get(0)                       # window over

    def test_background_failures_are_seeded(self):
        def run():
            clock = FakeClock()
            __, chaos = self._store(ServingFaultSchedule(failure_rate=0.3),
                                    clock, rng=5)
            outcomes = []
            for i in range(50):
                try:
                    chaos.get(i % 8)
                    outcomes.append(True)
                except StoreUnavailableError:
                    outcomes.append(False)
            return outcomes

        first, second = run(), run()
        assert first == second
        assert 0 < first.count(False) < 50

    def test_corrupt_window_poisons_found_rows_only(self):
        clock = FakeClock()
        schedule = ServingFaultSchedule(
            windows=[ChaosWindow(CORRUPT, 0.0, 10.0, magnitude=1.0)])
        inner, chaos = self._store(schedule, clock)
        matrix, found = chaos.get_batch([0, 1, 999])
        assert found.tolist() == [True, True, False]
        assert np.isnan(matrix[:2]).all()
        assert np.isfinite(matrix[2]).all()   # absent row left alone
        assert chaos.injected_corruptions == 2

    def test_writes_pass_through(self):
        clock = FakeClock()
        inner, chaos = self._store(ServingFaultSchedule(), clock)
        chaos.put(100, np.ones(4))
        assert 100 in inner and clock() == 0.0  # writes bill nothing
        assert chaos.dim == 4 and len(chaos) == 9

    def test_writes_pass_a_store_whose_reads_all_fail(self):
        inner = EmbeddingStore(dim=2)
        inner.put("u", np.ones(2))
        chaos = ChaosStore(inner, ServingFaultSchedule(failure_rate=1.0))
        with pytest.raises(StoreUnavailableError):
            chaos.get("u")
        chaos.put("v", np.zeros(2))        # faults hit reads, never writes
        assert "v" in inner and len(chaos) == 2
        assert chaos.dim == 2

    def test_failure_pattern_follows_the_seed(self):
        def run(seed):
            inner = EmbeddingStore(dim=2)
            inner.put("u", np.ones(2))
            chaos = ChaosStore(inner, ServingFaultSchedule(failure_rate=0.5),
                               rng=seed)
            outcomes = []
            for __ in range(20):
                try:
                    chaos.get("u")
                    outcomes.append(True)
                except StoreUnavailableError:
                    outcomes.append(False)
            return outcomes

        assert run(9) == run(9)
        assert False in run(9) and True in run(9)
        assert run(9) != run(10)

    def test_fail_next_forces_failures(self):
        inner = EmbeddingStore(dim=2)
        inner.put("u", np.ones(2))
        chaos = ChaosStore(inner)          # no schedule, private clock
        chaos.fail_next(2)
        with pytest.raises(StoreUnavailableError):
            chaos.get("u")
        with pytest.raises(StoreUnavailableError):
            chaos.get_batch(["u"])
        np.testing.assert_array_equal(chaos.get("u"), np.ones(2))
        assert chaos.injected_failures == 2

    def test_corrupt_next_poisons_every_found_row_of_one_read(self):
        __, chaos = self._store(ServingFaultSchedule(), FakeClock())
        chaos.corrupt_next()
        matrix, found = chaos.get_batch([0, 1, 999])
        assert np.isnan(matrix[found]).all()
        assert np.isfinite(matrix[~found]).all()
        assert chaos.injected_corruptions == 2
        assert np.isfinite(chaos.get_batch([0, 1])[0]).all()  # one read only

    def test_forced_failures_draw_nothing_from_the_rng(self):
        def outcomes(forced: int):
            __, chaos = self._store(
                ServingFaultSchedule(failure_rate=0.3, corruption_rate=0.2),
                FakeClock(), rng=5)
            chaos.fail_next(forced)
            for __ in range(forced):
                with pytest.raises(StoreUnavailableError):
                    chaos.get_batch([0])
            run = []
            for i in range(40):
                try:
                    run.append(bool(np.isnan(chaos.get(i % 8)).any()))
                except StoreUnavailableError:
                    run.append(None)
            return run

        seeded = outcomes(0)
        assert outcomes(3) == seeded
        assert None in seeded and True in seeded and False in seeded


class TestReplayDriver:
    def test_small_replay_resolves_every_request(self):
        harness = LoadTestHarness(n_users=32, seed=0)
        events = steady_trace(duration=2.0, rate=50.0, n_keys=32, seed=0)
        result = harness.run(events)
        assert result.requests == len(events)
        assert result.completed + result.shed == result.requests
        assert result.unhandled == 0
        assert len(result.latencies) == result.completed
        assert (result.latencies >= 0).all()

    def test_latency_bounded_by_batch_delay_plus_service(self):
        harness = LoadTestHarness(n_users=32, seed=0, max_delay_seconds=0.005)
        result = harness.run(steady_trace(duration=2.0, rate=50.0,
                                          n_keys=32, seed=0))
        assert result.quantile(99) < 0.05  # virtual flush timer honoured

    def test_replay_is_bit_deterministic(self):
        def once():
            return run_chaos(duration=8.0, rate=40.0, seed=11)

        a, b = once(), once()
        np.testing.assert_array_equal(a.latencies, b.latencies)
        assert a.shed_counts == b.shed_counts
        assert a.source_counts == b.source_counts
        assert a.injected_failures == b.injected_failures
        assert [s.passed for s in a.statuses] == [s.passed for s in b.statuses]

    def test_queue_bound_sheds_deterministically(self):
        harness = LoadTestHarness(n_users=16, seed=0, max_queue=2,
                                  max_batch=8, throttle=None)
        burst = [Request(0.0, k % 16) for k in range(6)]  # simultaneous
        result = harness.run(burst)
        # 6 simultaneous arrivals against max_queue=2: two queue, four shed
        assert result.shed_counts == {"queue_full": 4}
        assert result.completed + result.shed == 6

    def test_acceptance_chaos_gate_passes(self):
        """The headline criterion: 20% store failure + 10x burst + 2s outage
        -> zero unhandled errors, bounded shed, SLOs green."""
        result = run_chaos(duration=30.0, seed=0)
        assert result.unhandled == 0
        assert result.shed_rate <= 0.2
        assert result.slo_passed
        assert result.passed
        # the run genuinely exercised the fault machinery...
        assert result.injected_failures > 0
        assert result.outage_rejections > 0
        assert result.breaker_trips > 0
        assert result.injected_corruptions > 0
        assert result.corruptions_detected == result.injected_corruptions
        # ...and the degraded tiers actually served traffic
        for source in ("store", "cache", "stale", "default"):
            assert result.source_counts[source] > 0, source

    def test_render_mentions_the_verdict(self):
        result = run_loadtest("steady", duration=1.0, rate=40.0,
                              n_users=16, seed=0)
        text = result.render()
        assert "chaos gate" in text
        assert "slo" in text

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_loadtest("tsunami")


class TestLoadtestCLI:
    def test_loadtest_command_passes_on_calm_traffic(self):
        out = io.StringIO()
        code = main(["loadtest", "--scenario", "steady", "--duration", "2",
                     "--rate", "50", "--users", "64"], out=out)
        assert code == 0
        assert "chaos gate: PASS" in out.getvalue()

    def test_chaos_command_runs_the_acceptance_scenario(self):
        out = io.StringIO()
        code = main(["chaos", "--duration", "10", "--rate", "40"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "outage" in text and "chaos gate: PASS" in text

    def test_chaos_ci_gate_replays_bit_identically(self):
        out = io.StringIO()
        code = main(["chaos", "--duration", "30", "--seed", "0"], out=out)
        lines = out.getvalue().splitlines()
        assert code == 0
        assert "chaos gate: PASS" in lines
        assert lines[-1] == "replay with the same seed: bit-identical"

    def test_chaos_command_fails_on_a_diverged_replay(self, monkeypatch):
        import repro.loadtest as loadtest

        runs = iter([run_chaos(duration=4.0, seed=0),
                     run_chaos(duration=4.0, seed=1)])
        monkeypatch.setattr(loadtest, "run_chaos",
                            lambda **kwargs: next(runs))
        out = io.StringIO()
        assert main(["chaos", "--duration", "4"], out=out) == 1
        assert "replay with the same seed: DIVERGED" in out.getvalue()

    def test_an_unresolved_request_fails_the_gate(self):
        result = run_chaos(duration=4.0, seed=0)
        assert result.passed
        result.resolved -= 1                       # one request leaked
        assert not result.passed

    def test_degrade_policy_sheds_and_still_passes(self):
        # a degraded request is shed *and* answered by the fallback, so it
        # counts in both ``shed`` and ``completed``; the gate must hold
        out = io.StringIO()
        code = main(["chaos", "--duration", "8", "--seed", "0",
                     "--policy", "degrade", "--max-queue", "8"], out=out)
        text = out.getvalue()
        assert code == 0, text
        assert "shed by cause:" in text and "chaos gate: PASS" in text
        result = run_chaos(duration=8.0, seed=0, policy="degrade",
                           max_queue=8)
        assert result.shed > 0 and result.unhandled == 0
        assert result.completed + result.shed > result.requests
        assert result.resolved == result.requests and result.passed

    def test_gate_failure_maps_to_exit_code(self):
        out = io.StringIO()
        # a 1-deep queue against a 10x burst sheds far past the 20% limit
        code = main(["loadtest", "--scenario", "burst", "--duration", "4",
                     "--rate", "100", "--users", "64", "--max-queue", "1",
                     "--no-throttle"], out=out)
        assert code == 1
        assert "chaos gate: FAIL" in out.getvalue()

    @pytest.mark.parametrize("argv", [
        ["chaos", "--failure-rate", "2"],
        ["chaos", "--outage-seconds", "-3"],
        ["chaos", "--outage-seconds", "nan"],
        ["chaos", "--duration", "-5"],
        ["loadtest", "--failure-rate", "2"],
        ["loadtest", "--duration", "-5"],
        ["loadtest", "--rate", "-1"]])
    def test_rejected_flag_is_a_usage_error(self, argv, capsys):
        # exit 1 means "the gate failed"; a bad flag value is exit 2
        assert main(argv, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["loadtest", "chaos"])
    @pytest.mark.parametrize("budget", ["nan", "-5"])
    def test_bad_budget_is_a_usage_error(self, command, budget, capsys):
        # only 0 means "no deadlines"; anything else not > 0 is a bad value
        assert main([command, "--budget-ms", budget], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: --budget-ms must be >= 0")
        assert err.count("\n") == 1

    def test_zero_budget_still_disables_deadlines(self):
        from repro.cli import _loadtest_harness_kwargs, build_parser

        args = build_parser().parse_args(["loadtest", "--budget-ms", "0"])
        assert _loadtest_harness_kwargs(args)["deadline_budget_seconds"] is None
        assert main(["loadtest", "--duration", "2", "--budget-ms", "0"],
                    out=io.StringIO()) == 0

    @pytest.mark.parametrize("argv", [
        ["loadtest", "--rate", "0"],
        ["chaos", "--duration", "0.0001"]])
    def test_empty_replay_fails_the_gate(self, argv):
        out = io.StringIO()
        assert main(argv, out=out) == 1
        assert "chaos gate: FAIL (no requests replayed)" in out.getvalue()

    def test_unmeetable_slo_fails_the_gate(self):
        result = run_loadtest("steady", duration=2.0, rate=50.0, n_users=32,
                              seed=0, objectives=("p99 latency <= 1ms",))
        assert not result.slo_passed and not result.passed
        assert result.unhandled == 0   # it failed the SLO, not correctness

    def test_deterministic_across_cli_invocations(self):
        def run():
            out = io.StringIO()
            main(["chaos", "--duration", "8", "--seed", "4"], out=out)
            return out.getvalue()

        assert run() == run()
