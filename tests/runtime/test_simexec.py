"""Unit tests for the discrete-event simulated executor."""

import pytest

from repro.runtime.depgraph import TaskGraph
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.task import RegionSpace
from repro.simarch.presets import xeon_8160_2s
from tests.conftest import laptop_sim


def diamond(rs=None, payload_log=None):
    g = TaskGraph()
    rs = rs or RegionSpace()
    a, b, c = rs.get("a", 1000), rs.get("b", 1000), rs.get("c", 1000)

    def fn(name):
        if payload_log is None:
            return None
        return lambda: payload_log.append(name)

    g.add_task("src", fn("src"), outs=[a], flops=1e6, kind="cell")
    g.add_task("left", fn("left"), ins=[a], outs=[b], flops=1e6, kind="cell")
    g.add_task("right", fn("right"), ins=[a], outs=[c], flops=1e6, kind="cell")
    g.add_task("sink", fn("sink"), ins=[b, c], flops=1e6, kind="merge")
    return g


def test_all_tasks_executed_once():
    trace = SimulatedExecutor(laptop_sim(4)).run(diamond())
    assert trace.num_tasks() == 4
    assert sorted(r.name for r in trace.records) == ["left", "right", "sink", "src"]


def test_respects_dependencies_in_time():
    trace = SimulatedExecutor(laptop_sim(4)).run(diamond())
    t = {r.name: r for r in trace.records}
    assert t["left"].start >= t["src"].end
    assert t["right"].start >= t["src"].end
    assert t["sink"].start >= max(t["left"].end, t["right"].end)


def test_parallel_branches_overlap():
    trace = SimulatedExecutor(laptop_sim(4)).run(diamond())
    t = {r.name: r for r in trace.records}
    # left and right are independent: they must run concurrently
    assert t["left"].start < t["right"].end and t["right"].start < t["left"].end


def test_single_core_serializes():
    trace = SimulatedExecutor(laptop_sim(4), n_cores=1).run(diamond())
    assert trace.peak_concurrency() == 1
    assert all(r.core == 0 for r in trace.records)


def test_determinism():
    m = xeon_8160_2s()
    mk1 = SimulatedExecutor(m, n_cores=8).run(diamond()).makespan
    mk2 = SimulatedExecutor(m, n_cores=8).run(diamond()).makespan
    assert mk1 == mk2


def test_execute_payloads_runs_numerics_in_order():
    log = []
    g = diamond(payload_log=log)
    SimulatedExecutor(laptop_sim(2), execute_payloads=True).run(g)
    assert set(log) == {"src", "left", "right", "sink"}
    assert log[0] == "src" and log[-1] == "sink"


def test_n_cores_validation():
    with pytest.raises(ValueError):
        SimulatedExecutor(laptop_sim(4), n_cores=99)


def test_more_cores_never_slower_for_wide_graph():
    g1 = TaskGraph()
    rs = RegionSpace()
    for i in range(32):
        g1.add_task(f"t{i}", None, outs=[rs.get(("r", i), 1000)], flops=1e7, kind="cell")
    m = laptop_sim(8)
    slow = SimulatedExecutor(m, n_cores=1).run(g1).makespan
    g2 = TaskGraph()
    rs2 = RegionSpace()
    for i in range(32):
        g2.add_task(f"t{i}", None, outs=[rs2.get(("r", i), 1000)], flops=1e7, kind="cell")
    fast = SimulatedExecutor(m, n_cores=8).run(g2).makespan
    assert fast < slow


def test_trace_carries_machine_and_cache_stats():
    m = laptop_sim(2)
    trace = SimulatedExecutor(m).run(diamond())
    assert trace.machine is m
    assert trace.cache_stats.total_bytes > 0


def test_persistent_cache_speeds_second_run():
    m = xeon_8160_2s()
    rs = RegionSpace()
    sim = SimulatedExecutor(m, n_cores=2, persistent_cache=True)
    g = diamond(rs)
    cold = sim.run(g).makespan
    warm = sim.run(g).makespan
    assert warm <= cold


def test_reset_cache():
    m = xeon_8160_2s()
    rs = RegionSpace()
    sim = SimulatedExecutor(m, n_cores=2)
    g = diamond(rs)
    sim.run(g)
    warm = sim.run(g).makespan
    # homes persist on regions, but an executor without a persistent cache
    # drops the residency before every run: its second run is not faster
    cold = SimulatedExecutor(m, n_cores=2, persistent_cache=False)
    cold.run(g)
    cold_again = cold.run(g).makespan
    assert cold_again >= warm


def test_overhead_charged_per_task():
    m = laptop_sim(2)
    trace = SimulatedExecutor(m).run(diamond())
    for r in trace.records:
        assert r.overhead == pytest.approx(m.task_overhead_s)


def test_extra_overhead_from_meta():
    g = TaskGraph()
    rs = RegionSpace()
    g.add_task("t", None, outs=[rs.get("a", 10)], meta={"extra_overhead_s": 0.5})
    trace = SimulatedExecutor(laptop_sim(2)).run(g)
    assert trace.records[0].duration >= 0.5


def test_empty_graph():
    machine = laptop_sim(2)
    trace = SimulatedExecutor(machine).run(TaskGraph())
    assert trace.makespan == 0.0
    # the same epilogue as any run: the machine and the cache counters
    assert trace.machine is machine and trace.cache_stats is not None


@pytest.mark.parametrize("scheduler", ["fifo", "fuzz:4", "locality"])
def test_all_schedulers_complete(scheduler):
    trace = SimulatedExecutor(laptop_sim(4), scheduler=scheduler).run(diamond())
    assert trace.num_tasks() == 4
    assert trace.scheduler == scheduler.partition(":")[0]
