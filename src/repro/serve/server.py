"""Single-engine serving: the one-replica :class:`~repro.serve.fleet.FleetServer`.

:class:`Server` serves an open-loop workload (a list of
:class:`~repro.serve.request.InferenceRequest` with arrival times) on one
:class:`~repro.serve.engine.InferenceEngine` the caller built, by putting
that engine in a pool of one and running the fleet loop over it — so a
single engine gets the same admission budget, doomed-request expiry,
plan warmup and stats as a fleet (docs/SERVING.md).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.snapshot import SnapshotLog
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine
from repro.serve.fleet import FleetServer, ReplicaPool
from repro.serve.request import InferenceRequest
from repro.serve.stats import ServerStats


class Server:
    """Single-engine inference server: ``engine`` behind a one-replica fleet.

    ``config.replicas`` must be 1.  ``snapshot_interval_s`` throttles the
    per-batch registry sampling of :attr:`snapshots` (``None`` when the
    engine carries no metrics registry).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: Optional[ServeConfig] = None,
        keep_traces: bool = False,
        snapshot_interval_s: float = 0.0,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.fleet = FleetServer(
            ReplicaPool.from_engines([engine], self.config),
            keep_traces=keep_traces,
        )
        if self.fleet.snapshots is not None:
            self.fleet.snapshots.interval_s = snapshot_interval_s

    @property
    def snapshots(self) -> Optional[SnapshotLog]:
        return self.fleet.snapshots

    def run(self, requests: Sequence[InferenceRequest]) -> ServerStats:
        """Serve ``requests`` to completion and return the collected stats."""
        return self.fleet.run(requests)


def serve_workload(
    engine: InferenceEngine,
    requests: Sequence[InferenceRequest],
    config: Optional[ServeConfig] = None,
    keep_traces: bool = False,
) -> ServerStats:
    """One-call convenience wrapper around :class:`Server`."""
    return Server(engine, config, keep_traces=keep_traces).run(requests)
