"""A lightweight, thread-safe metrics registry.

:class:`MetricsRegistry` holds named metric families — :class:`Counter`
(monotonic), :class:`Gauge` (last value), :class:`Histogram` (fixed bucket
boundaries) — each optionally split into label series (``core="3"``,
``kind="cell"``, ``policy="locality"``).  :meth:`MetricsRegistry.flat` is
the one read surface: ``{"name{label=...}": value}``, which serving reports
embed (``FleetStats.summary()["metrics"]``).

The registry is deliberately dependency-free and cheap: all updates take
one shared re-entrant lock (runtime publishers batch their updates once
per run, so contention is negligible), and :meth:`flat` reads under the
same lock.  The runtime integration —
executors and schedulers publishing into a registry — lives in
:mod:`repro.obs.publish`; nothing here imports the rest of the package.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

#: default bucket boundaries (seconds) for task/latency duration histograms
DURATION_BUCKETS_S = (
    1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value (``inc`` only)."""

    kind = "counter"

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value (``set``/``inc``/``dec``)."""

    kind = "gauge"

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-boundary histogram: a count per bin, plus the total count and sum.

    ``buckets`` are the *upper* bounds of each bin; an implicit ``+Inf``
    bucket always exists, so every observation lands somewhere.
    """

    kind = "histogram"

    def __init__(self, lock: threading.RLock, buckets: Sequence[float]) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket boundary")
        bs = [float(b) for b in buckets]
        if bs != sorted(bs):
            raise ValueError("bucket boundaries must be sorted ascending")
        self._lock = lock
        self.buckets: Tuple[float, ...] = tuple(bs)
        self.counts: List[int] = [0] * (len(bs) + 1)  # trailing +Inf bin
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _Family:
    """One metric name: type, help text, and its label series."""

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series: Dict[LabelItems, object] = {}


class MetricsRegistry:
    """Get-or-create metric families keyed by name (+ label series).

    Asking twice for the same name/labels returns the same object, so
    publishers never need to coordinate creation.  Re-registering a name
    as a different metric type is an error (it would corrupt exports).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, _Family] = {}

    # -- creation --------------------------------------------------------------

    def _get(self, name: str, kind: str, help: str, labels: Dict[str, str], factory):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(name, kind, help)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested {kind}"
                )
            key = _label_key(labels)
            metric = family.series.get(key)
            if metric is None:
                metric = family.series[key] = factory()
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(name, "counter", help, labels, lambda: Counter(self._lock))

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(name, "gauge", help, labels, lambda: Gauge(self._lock))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DURATION_BUCKETS_S,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        metric = self._get(
            name, "histogram", help, labels, lambda: Histogram(self._lock, buckets)
        )
        if tuple(float(b) for b in buckets) != metric.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.buckets}, requested {tuple(buckets)}"
            )
        return metric

    # -- introspection ---------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def flat(self) -> Dict[str, float]:
        """``{"name{label=...}": value}`` for counters/gauges plus histogram
        ``_count``/``_sum``: the registry's one read surface, which
        ``FleetStats.summary()`` embeds and a soak can sample at any time."""
        out: Dict[str, float] = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                for key in sorted(family.series):
                    metric = family.series[key]
                    suffix = _format_labels(key)
                    if isinstance(metric, Histogram):
                        out[f"{name}_count{suffix}"] = float(metric.count)
                        out[f"{name}_sum{suffix}"] = metric.sum
                    else:
                        out[f"{name}{suffix}"] = metric.value
        return out
