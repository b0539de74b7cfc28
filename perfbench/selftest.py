"""Self-test of the harness arithmetic (``python3 perfbench/run.py --selftest``).

Checks, on hand-computed inputs: median and quartiles, the nearest-rank p90
and its ten-beyond rule, the error rate, the trimmed mean and the choice of
host-speed reference calls around a sample, and self-time subtraction over
nested, folded and cross-thread probed calls.
"""

from __future__ import annotations

import threading

import stats
from hostspeed import NOMINAL_S, HostSpeed
from layers import Recorder


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def check_statistics() -> None:
    assert stats.median([3, 1, 2]) == 2.0
    assert stats.median([4, 1, 3, 2]) == 2.5
    # statistics.quantiles' default (exclusive) method on 1..10.
    assert stats.quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25)
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)

    p = stats.percentile(list(range(1, 101)), 90)
    assert (p["value"], p["n"], p["beyond"], p["trusted"]) == (90.0, 100, 10, True)
    p = stats.percentile(list(range(1, 100)), 90)
    assert (p["value"], p["beyond"], p["trusted"]) == (90.0, 9, False)
    p = stats.percentile(list(range(200, 0, -1)), 90)
    assert (p["value"], p["beyond"], p["trusted"]) == (180.0, 20, True)
    assert stats.percentile([7.0], 90)["value"] == 7.0

    # 10% of 20 samples is 2 dropped from each end.
    values = [100.0, 90.0] + [float(v) for v in range(1, 17)] + [-50.0, -60.0]
    assert stats.trimmed_mean(values) == 8.5
    assert stats.trimmed_mean([1.0, 2.0, 9.0]) == 4.0
    assert stats.trimmed_mean([1.0, 2.0, 9.0], weights=[1.0, 3.0, 0.0]) == 1.75

    assert stats.error_rate(0, 40) == 0.0
    assert stats.error_rate(3, 12) == 0.25
    for bad in ((1, 0), (5, 4), (-1, 4)):
        try:
            stats.error_rate(*bad)
        except ValueError:
            continue
        raise AssertionError(f"error_rate{bad} should raise")
    assert stats.ratio(1.0, 0.0) == 0.0


def check_host_speed() -> None:
    speed = HostSpeed()
    speed.samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    speed.ends = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 100.0]
    # Each call weighs the time since the previous one (the first, its own).
    assert _close(speed.reference_s(), (1 * 1 + 10 * 27 + 30 * 8) / 91)  # the whole run
    assert speed.reference_s(15.0, 45.0) == 3.0  # the calls within the span
    assert speed.reference_s(41.0, 44.0) == 4.0  # none within: 40, 50, 30 nearest
    # One within (100): widened around 90 to 70, then 60.
    assert _close(speed.reference_s(79.0, 101.0), (10 * 6 + 10 * 7 + 30 * 8) / 50)
    assert _close(speed.reference_s(0.0, 1.0), (1 * 1 + 10 * 2 + 10 * 3) / 21)  # before any
    assert _close(speed.scale(15.0, 45.0), NOMINAL_S / 3.0)


def check_self_times() -> None:
    clock = FakeClock()
    rec = Recorder(clock=clock)
    # suite(10) > [execution(7) > [build(4) > paulis(1)], [score(1)]], store(2)
    suite = rec.enter("suite.run_scenario")
    clock.advance(0.5)
    run = rec.enter("execution.run")
    build = rec.enter("benchmarks.build")
    clock.advance(1.0)
    paulis = rec.enter("paulis.expectation")
    assert rec.enter("paulis.expectation") is None  # same layer folds
    clock.advance(1.0)
    rec.exit(paulis)
    clock.advance(2.0)
    rec.exit(build)
    score = rec.enter("benchmarks.score")
    clock.advance(1.0)
    rec.exit(score)
    clock.advance(2.0)
    rec.exit(run)
    store = rec.enter("store.get")
    clock.advance(2.0)
    rec.exit(store)
    clock.advance(0.5)
    rec.exit(suite)

    rows = rec.snapshot()["rows"]
    expected = {
        "suite.run_scenario": (10.0, 1.0),
        "execution.run": (7.0, 2.0),
        "benchmarks.build": (4.0, 3.0),
        "paulis.expectation": (1.0, 1.0),
        "benchmarks.score": (1.0, 1.0),
        "store.get": (2.0, 2.0),
    }
    for row, (total, own) in expected.items():
        assert rows[row]["count"] == 1, row
        assert _close(rows[row]["total_s"], total), (row, rows[row])
        assert _close(rows[row]["self_s"], own), (row, rows[row])
    assert _close(sum(r["self_s"] for r in rows.values()), 10.0)
    assert rec.snapshot()["roots"] == {"suite.run_scenario": 10.0}


def check_cross_thread() -> None:
    clock = FakeClock()
    rec = Recorder(clock=clock)
    run = rec.enter("execution.run")
    clock.advance(1.0)

    def pool_work() -> None:
        frame = rec.enter("simulation.run_batch")
        clock.advance(3.0)
        rec.exit(frame)

    worker = threading.Thread(target=pool_work)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.advance(1.0)
    rec.exit(run)
    rows = rec.snapshot()["rows"]
    assert _close(rows["execution.run"]["self_s"], 2.0), rows
    assert _close(rows["simulation.run_batch"]["self_s"], 3.0), rows
    assert rec.snapshot()["roots"] == {"execution.run": 5.0}

    # With no open root, a frame on another thread is a root of its own.
    lone = threading.Thread(target=pool_work)
    lone.start()
    lone.join(timeout=10)
    assert rec.snapshot()["roots"]["simulation.run_batch"] == 3.0


def main() -> int:
    for check in (check_statistics, check_host_speed, check_self_times, check_cross_thread):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
