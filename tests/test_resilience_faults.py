"""Fault injection: seeded crash schedules and the ``repro faults`` command
that measures real sharded-training recovery."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.resilience import FaultEvent, FaultSchedule


class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.generate(50, 4, crash_rate=0.1, seed=42)
        b = FaultSchedule.generate(50, 4, crash_rate=0.1, seed=42)
        assert a.events == b.events and a.events  # reproducible & non-empty

    def test_different_seed_different_schedule(self):
        a = FaultSchedule.generate(50, 4, crash_rate=0.2, seed=1)
        b = FaultSchedule.generate(50, 4, crash_rate=0.2, seed=2)
        assert a.events != b.events

    def test_zero_rates_empty_schedule(self):
        schedule = FaultSchedule.generate(100, 8, crash_rate=0.0)
        assert schedule.events == []

    def test_certain_crash_hits_every_cell_in_order(self):
        schedule = FaultSchedule.generate(10, 3, crash_rate=1.0)
        assert schedule.events == sorted(schedule.events)
        assert {(e.step, e.worker) for e in schedule.events} == \
            {(s, w) for s in range(10) for w in range(3)}
        assert schedule.at(4) == [FaultEvent(4, 0), FaultEvent(4, 1),
                                  FaultEvent(4, 2)]

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultSchedule.generate(10, 2, crash_rate=1.5)
        with pytest.raises(ValueError, match="crash_rate"):
            FaultSchedule.generate(10, 2, crash_rate=-0.1)


class TestFaultsCommand:
    @pytest.mark.slow
    def test_recovered_runs_match_the_fault_free_run(self, shard_cluster):
        # 256 users are 4 steps of 64; at seed 0 and rate 0.1 both workers
        # are killed at step 1.
        out = io.StringIO()
        code = main(["faults", "--users", "256", "--crash-rates", "0,0.1",
                     "--checkpoint-interval", "2"], out=out)
        rows = [line.split() for line in out.getvalue().splitlines()[3:]]
        assert code == 0
        assert [row[0] for row in rows] == ["0.00%", "10.00%"]
        crashes, recoveries = int(rows[1][1]), int(rows[1][2])
        assert crashes == 2 and recoveries >= 1
        assert all(row[-1] == "yes" for row in rows)

    def test_parameters_that_differ_exit_1(self, monkeypatch):
        import repro.experiments
        from repro.experiments.exp_fault_tolerance import (
            FaultRun, FaultToleranceResult)

        result = FaultToleranceResult(n_workers=2, n_steps=4, runs=[
            FaultRun(0.0, 0, 0, 1.0, 0.0, True),
            FaultRun(0.1, 2, 1, 1.5, 0.5, False)])
        monkeypatch.setattr(repro.experiments, "run_fault_tolerance",
                            lambda **kwargs: result)
        out = io.StringIO()
        assert main(["faults"], out=out) == 1
        assert out.getvalue().splitlines()[-1].split()[-1] == "NO"
