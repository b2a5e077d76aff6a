"""The five workloads: inputs from a seed, set-up, the timed region, the checks.

Everything here calls ``repro`` through its public classes and functions and
times those calls; no metric is read from inside the program except what its
return values (``ExecutionTrace``, ``FleetStats``) already report.

Sizes are stated for ``--seconds 10`` and scale linearly with ``--seconds``
(``--quick`` is the same code at ``--seconds 1``).  Every run-level number is
a median: over steps, over blocks of consecutive steps, or over passes.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    BParEngine,
    BRNNParams,
    BRNNSpec,
    ExecutionConfig,
    FleetServer,
    ServeConfig,
)
from repro.compile import plan_warmup_shapes
from repro.data.batching import pad_sequences
from repro.models.reference import reference_forward, reference_loss_and_grads
from repro.runtime.shm import list_segments
from repro.runtime.trace import percentile
from repro.serve import SHED_REASONS, WorkloadConfig, bursty_workload, poisson_workload

import layers
from spans import Tracer

#: the ``--seconds`` at which the sizes below are stated
REF_SECONDS = 10.0
#: set-up is repeated and its median reported (a fresh engine/server each time)
SETUP_REPEATS = 3
#: the timed steps of an engine workload are cut into this many blocks for throughput
BLOCKS = 5
#: latency limit the benchmark applies to ``serve_poisson`` afterwards
POISSON_LIMIT_S = 0.100
#: every n-th ``serve_poisson`` completion is recomputed with the sequential oracle
POISSON_CHECK_EVERY = 50

clock = time.perf_counter
median = statistics.median


class Outcome:
    """Operations attempted and failed, the reasons, and the metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: name -> (value, number of samples behind it)
        self.metrics: Dict[str, Tuple[float, int]] = {}
        self.info: Dict[str, object] = {}

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = (float(value), int(n))


def peak_rss_mb() -> float:
    """Largest resident set of any process of this workload, in MiB.

    The worker process itself, or a forked executor worker it has waited for
    (``train_gemm_process``).  Linux reports ``ru_maxrss`` in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def derive_seed(seed: int, *path: int) -> int:
    """A child seed for one pass or one purpose; the same inputs for the same seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def scaled(count: float, seconds: float) -> int:
    return max(1, round(count * seconds / REF_SECONDS))


# -- engine workloads: a closed loop of one client calling BParEngine ---------------


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    spec: BRNNSpec
    seq_len: int
    batch: int
    execution: ExecutionConfig
    training: bool
    #: untimed steps per set-up at REF_SECONDS
    warmup_steps: int

    # -- inputs ------------------------------------------------------------------

    def make_batches(self, seed: int, n: int = 4) -> List[Tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(derive_seed(seed, 0))
        shape = (self.seq_len, self.batch, self.spec.input_size)
        return [
            (
                rng.standard_normal(shape).astype(np.float32),
                rng.integers(0, self.spec.num_classes, size=self.batch),
            )
            for _ in range(n)
        ]

    # -- one step ----------------------------------------------------------------

    def new_engine(self, execution: Optional[ExecutionConfig] = None) -> BParEngine:
        params = BRNNParams.initialize(self.spec, 0)
        return BParEngine(self.spec, params, config=execution or self.execution)

    def step(self, engine: BParEngine, batch):
        x, labels = batch
        return engine.train_batch(x, labels) if self.training else engine.forward(x)

    def setup(self, batches, seconds: float):
        """A fresh engine plus its warm-up steps; returns the first step's output."""
        engine = self.new_engine()
        first = None
        for i in range(scaled(self.warmup_steps, seconds)):
            out = self.step(engine, batches[i % len(batches)])
            if first is None:
                first = out
        return engine, first

    # -- checks ------------------------------------------------------------------

    def references(self, batches) -> list:
        """What the oracle says: the first step's loss, or every batch's logits."""
        params = BRNNParams.initialize(self.spec, 0)
        if self.training:
            x, labels = batches[0]
            return [reference_loss_and_grads(self.spec, params, x, labels)[0]]
        return [reference_forward(self.spec, params, x)[0] for x, _ in batches]

    def check_first(self, out: Outcome, first, refs) -> None:
        if self.training and not math.isclose(first, refs[0], rel_tol=1e-4):
            out.fail(f"first step loss {first!r} is not within 1e-4 of the oracle's {refs[0]!r}")

    def step_ok(self, result, ref) -> bool:
        if self.training:
            return math.isfinite(result)
        return np.array_equal(result, ref)  # bitwise: mbs=1 keeps the oracle's order

    def run_steps(
        self,
        engine: BParEngine,
        batches,
        refs,
        seconds: float,
        out: Outcome,
        tracer: Optional[Tracer] = None,
        min_steps: int = 2,
    ) -> Tuple[List[float], List[dict]]:
        """Call the engine until ``seconds`` have passed.

        Returns each call's wall time and, under a tracer, what its
        ``ExecutionTrace`` says.  A step that raises, or whose output fails
        its check, is a failed operation and the loop goes on.
        """
        times: List[float] = []
        task_stats: List[dict] = []
        deadline = clock() + seconds
        i = 0
        while clock() < deadline or i < min_steps:
            batch = batches[i % len(batches)]
            ref = None if self.training else refs[i % len(batches)]
            i += 1
            out.attempted += 1
            try:
                with tracer.root("step") if tracer else nullcontext():
                    t0 = clock()
                    result = self.step(engine, batch)
                    t1 = clock()
            except Exception as exc:  # the run must go on and report it
                out.fail(f"step {i} raised {type(exc).__name__}: {exc}")
                continue
            times.append(t1 - t0)
            if tracer:
                task_stats.append(layers.trace_stats(engine.last_trace))
            if not self.step_ok(result, ref):
                out.fail(f"step {i} failed its output check")
        return times, task_stats

    def leak_check(self, out: Outcome) -> int:
        leaked = len(list_segments()) if self.execution.executor == "process" else 0
        if leaked:
            out.fail(f"{leaked} repro_mp_* shared-memory segments left behind")
        return leaked

    # -- the two runs ------------------------------------------------------------

    def closed_loop_metrics(self, out: Outcome, times: Sequence[float]) -> None:
        """One client: a step's latency is its wall time, throughput its inverse."""
        n = len(times)
        if not n:
            return
        out.info["samples"] = {"step_s": list(times)}
        out.put("step_ms", median(times) * 1e3, n)
        per_block = [
            self.batch * len(block) / sum(block)
            for block in np.array_split(np.asarray(times), min(BLOCKS, n))
        ]
        out.put("seq_per_s", median(per_block), len(per_block))
        out.put("req_per_s", median(per_block) / self.batch, len(per_block))
        out.put("latency_p50_ms", median(times) * 1e3, n)
        out.put("latency_p95_ms", percentile(times, 95) * 1e3, n)
        out.put("slo_attainment", (out.attempted - out.failed) / out.attempted, out.attempted)

    def run(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        batches = self.make_batches(seed)
        refs = self.references(batches)
        setups = []
        for _ in range(SETUP_REPEATS):
            engine = None  # repeating set-up is the benchmark's doing: one instance at a time
            gc.collect()
            t0 = clock()
            engine, first = self.setup(batches, seconds)
            setups.append(clock() - t0)
            self.check_first(out, first, refs)
        times, _ = self.run_steps(engine, batches, refs, seconds, out)
        self.leak_check(out)
        self.closed_loop_metrics(out, times)
        out.put("setup_s", median(setups), len(setups))
        out.put("peak_rss_mb", peak_rss_mb())
        return out

    def run_traced(self, seed: int, seconds: float, tracer: Tracer) -> Outcome:
        """Untraced steps, then the same steps under spans, then the layer probes."""
        out = Outcome()
        batches = self.make_batches(seed)
        refs = self.references(batches)
        engine, first = self.setup(batches, seconds)
        self.check_first(out, first, refs)
        third = seconds / 3.0
        plain, _ = self.run_steps(engine, batches, refs, third, out)
        with tracer.patched():
            traced, task_stats = self.run_steps(engine, batches, refs, third, out, tracer)
        self.closed_loop_metrics(out, plain)
        layers.engine_layers(self, out, tracer, engine, plain, traced, task_stats, batches)
        out.put("runtime.shm_leaked_segments", self.leak_check(out))
        return out


# -- serving workloads: an open loop through FleetServer on its own event clock ------


@dataclass
class Pass:
    """What one ``FleetServer.run`` did, as numbers."""

    n: int
    wall: float
    sheds: Dict[str, int]
    gap: int
    late: int
    in_time: int
    latency: List[float]
    queue_wait: List[float]
    batch_size: List[int]
    service: List[float]
    warm: List[Optional[bool]]
    padding_waste: float
    busy_frac: float


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    spec: BRNNSpec
    serve: ServeConfig
    execution: ExecutionConfig
    arrivals: Callable[[WorkloadConfig, int], list]
    #: arrival schedule of one pass at REF_SECONDS
    load: WorkloadConfig
    #: server-clock length of the untimed warm pass at REF_SECONDS
    warm_s: float
    #: applied by the benchmark to completed requests afterwards (None: the
    #: config's own deadline decides)
    limit_s: Optional[float] = None

    @property
    def functional(self) -> bool:
        return self.execution.executor != "sim"

    def requests(self, seed: int, duration_s: float) -> list:
        return self.arrivals(replace(self.load, duration_s=duration_s), seed)

    def pass_s(self, seconds: float) -> float:
        return self.load.duration_s * seconds / REF_SECONDS

    def setup(self, seed: int, seconds: float) -> FleetServer:
        """Build the fleet, compile every reachable shape, run the warm pass (other seed).

        Left to traffic, which shapes get compiled follows the batch sizes the
        queue happens to produce, and with them peak RSS and the odd cold
        batch: a slow host compiles more.  Warming all of them makes the timed
        region replay only.
        """
        params = BRNNParams.initialize(self.spec, 0) if self.functional else None
        server = FleetServer.build(
            self.spec, self.serve, execution=self.execution, params=params
        )
        lo, hi = self.load.seq_len_range
        sizes = range(1, self.serve.max_batch_size + 1)
        shapes = plan_warmup_shapes(
            range(lo, hi + 1), self.serve.bucket_width, self.serve.max_batch_size, sizes
        )
        server.pool.warmup(shapes, router=self.serve.make_router())
        warm = self.requests(derive_seed(seed, 1), self.warm_s * seconds / REF_SECONDS)
        server.run(warm)
        return server

    # -- one pass ----------------------------------------------------------------

    def one_pass(
        self, server: FleetServer, requests: list, out: Outcome,
        tracer: Optional[Tracer] = None,
    ) -> Optional["Pass"]:
        """``FleetServer.run`` over one schedule; accounts for every arrival.

        Only numbers are kept: holding every pass's ``FleetStats`` would make
        peak RSS follow how many passes the host got through.
        """
        n = len(requests)
        out.attempted += n
        t0 = clock()
        try:
            with tracer.root("fleet.run") if tracer else nullcontext():
                stats = server.run(requests)
        except Exception as exc:  # the run must go on and report it
            out.fail(f"FleetServer.run raised {type(exc).__name__}: {exc}", n)
            return None
        wall = clock() - t0
        sheds = stats.shed_reason_counts()
        gap = n - len(stats.completed) - sum(sheds.values())
        unknown = sum(c for why, c in sheds.items() if why not in SHED_REASONS)
        if gap:
            out.fail(f"{gap} of {n} arrivals neither completed nor shed", abs(gap))
        if unknown:
            out.fail(f"{unknown} requests shed without a known reason", unknown)
        if self.functional:
            self.check_results(out, stats, requests, server.pool.params)
        done = stats.completed
        if self.limit_s is not None:
            in_time = sum(1 for c in done if c.latency <= self.limit_s)
        else:
            in_time = sum(1 for c in done if c.met_deadline)
        return Pass(
            n=n, wall=wall, sheds=sheds, gap=gap, in_time=in_time,
            late=sum(1 for c in done if not c.met_deadline),
            latency=[c.latency for c in done],
            queue_wait=[c.queue_wait for c in done],
            batch_size=[b.size for b in stats.batches],
            service=[b.service_time for b in stats.batches],
            warm=[b.warm for b in stats.batches],
            padding_waste=stats.padding_overhead(),
            busy_frac=stats.engine_busy_fraction() / len(server.pool),
        )

    def check_results(self, out: Outcome, stats, requests, params) -> None:
        """Every n-th completion against the oracle on its own zero-padded sequence."""
        by_rid = {r.rid: r for r in requests}
        for done in stats.completed[::POISSON_CHECK_EVERY]:
            x, _ = pad_sequences([by_rid[done.rid].x], length=done.padded_len)
            want = reference_forward(self.spec, params, x)[0][0]
            if not np.allclose(done.result, want, rtol=1e-4, atol=1e-6):
                out.fail(f"request {done.rid}: logits differ from the oracle's")

    def open_loop_metrics(self, out: Outcome, passes: List["Pass"], seconds: float) -> None:
        k = len(passes)
        if not k:
            return
        out.info["samples"] = {
            "pass_wall_s": [p.wall for p in passes],
            "pass_arrivals": [p.n for p in passes],
            "pass_completed": [len(p.latency) for p in passes],
        }
        out.put("req_per_s", median(p.n / p.wall for p in passes), k)
        out.put("seq_per_s", median(len(p.latency) / p.wall for p in passes), k)
        # the timed call is FleetServer.run, so the step is one pass; how many arrivals a
        # schedule holds follows the seed (bursty: +-19 %), so scale to the nominal count
        nominal = self.load.rate_hz * self.pass_s(seconds)
        out.put("step_ms", median(p.wall / p.n for p in passes) * nominal * 1e3, k)
        if self.functional:
            # finish minus scheduled arrival over all arrivals; not completed is +inf
            lat = [t for p in passes for t in p.latency + [math.inf] * (p.n - len(p.latency))]
        else:
            # most arrivals are refused by design: latency of those that were served
            lat = [t for p in passes for t in p.latency]
        arrivals = sum(p.n for p in passes)
        out.put("latency_p50_ms", percentile(lat, 50) * 1e3, len(lat))
        out.put("latency_p95_ms", percentile(lat, 95) * 1e3, len(lat))
        out.put("slo_attainment", sum(p.in_time for p in passes) / arrivals, arrivals)

    def timed_passes(self, server, seed, seconds, budget, out, first_pass=0, tracer=None,
                     max_passes=None):
        """Fresh schedules, one pass each, until ``budget`` seconds have passed."""
        passes = []
        deadline = clock() + budget
        i = first_pass
        while (clock() < deadline and len(passes) != max_passes) or not passes:
            requests = self.requests(derive_seed(seed, 2, i), self.pass_s(seconds))
            passes.append(self.one_pass(server, requests, out, tracer))
            i += 1
        return [p for p in passes if p is not None]

    # -- the two runs ------------------------------------------------------------

    def run(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        setups = []
        for _ in range(SETUP_REPEATS):
            server = None  # repeating set-up is the benchmark's doing: one instance at a time
            gc.collect()
            t0 = clock()
            server = self.setup(seed, seconds)
            setups.append(clock() - t0)
        passes = self.timed_passes(server, seed, seconds, seconds, out)
        self.open_loop_metrics(out, passes, seconds)
        out.put("setup_s", median(setups), len(setups))
        out.put("peak_rss_mb", peak_rss_mb())
        return out

    def run_traced(self, seed: int, seconds: float, tracer: Tracer) -> Outcome:
        out = Outcome()
        executions = tracer.capture.setdefault("engine.execute", [])
        plans = tracer.capture.setdefault("compile_graph", [])
        with tracer.patched():
            with tracer.root("setup"):
                server = self.setup(seed, seconds)
        # a third of the size throughout: passes a third as long, for a third of the time;
        # two traced passes are enough to attribute time and keep the span file readable
        third = seconds / 3.0
        plain = self.timed_passes(server, seed, third, third, out)
        with tracer.patched():
            traced = self.timed_passes(
                server, seed, third, third, out, first_pass=len(plain), tracer=tracer,
                max_passes=2,
            )
        self.open_loop_metrics(out, plain, third)
        layers.serve_layers(self, out, tracer, server, plain, traced, executions, plans)
        return out


# -- the table ---------------------------------------------------------------------

_GEMM = BRNNSpec(cell="lstm", input_size=128, hidden_size=256, num_layers=3,
                 head="many_to_one", num_classes=11)
_FINE = BRNNSpec(cell="lstm", input_size=39, hidden_size=32, num_layers=4,
                 head="many_to_one", num_classes=11)
_SERVED = BRNNSpec(cell="lstm", input_size=39, hidden_size=128, num_layers=2,
                   head="many_to_one", num_classes=11)

WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload(
            "train_gemm", _GEMM, seq_len=32, batch=64, training=True, warmup_steps=2,
            execution=ExecutionConfig(executor="threaded", n_workers=2, mbs=2),
        ),
        EngineWorkload(
            "infer_fine", _FINE, seq_len=100, batch=4, training=False, warmup_steps=5,
            execution=ExecutionConfig(executor="threaded", n_workers=2, mbs=1),
        ),
        ServeWorkload(
            "serve_poisson", _SERVED,
            serve=ServeConfig(replicas=2, router="hash", batcher="continuous",
                              max_batch_size=8, bucket_width=20, queue_capacity=256),
            execution=ExecutionConfig(executor="threaded", n_workers=1, mbs=1, compile="on"),
            arrivals=poisson_workload,
            load=WorkloadConfig(rate_hz=120.0, duration_s=2.0, seq_len_range=(20, 60),
                                features=39),
            warm_s=0.5, limit_s=POISSON_LIMIT_S,
        ),
        ServeWorkload(
            "serve_overload", _SERVED,
            serve=ServeConfig(replicas=4, router="least_loaded", batcher="continuous",
                              deadline_slo_s=0.05, tenant_rate_hz=1300.0,
                              max_batch_size=8, bucket_width=20, queue_capacity=256),
            execution=ExecutionConfig(executor="sim", compile="on"),
            arrivals=bursty_workload,
            load=WorkloadConfig(rate_hz=3000.0, duration_s=15.0, seq_len_range=(20, 60),
                                tenants=2),
            warm_s=15.0,
        ),
        EngineWorkload(
            "train_gemm_process", _GEMM, seq_len=32, batch=64, training=True, warmup_steps=1,
            execution=ExecutionConfig(executor="process", n_workers=2, mbs=2),
        ),
    )
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_out: Optional[str] = None) -> Outcome:
    workload = WORKLOADS[name]
    if not trace:
        return workload.run(seed, seconds)
    tracer = Tracer()
    out = workload.run_traced(seed, seconds, tracer)
    out.info["spans"] = len(tracer.spans)
    if trace_out:
        tracer.write(trace_out, {"workload": name, "seed": seed, "seconds": seconds})
        out.info["trace_out"] = trace_out
    return out
