"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the numeric half of the observability layer (spans are
the structural half, :mod:`repro.obs.trace`).  It follows the
Prometheus data model — metric *families* identified by a snake_case
name, each holding samples distinguished by label sets — and renders
to the Prometheus text exposition format as well as a JSON-ready dict
with deterministic key order.

Two registries matter in practice:

* the **process-wide** registry (:func:`get_registry`): the long-lived
  accumulator the simulated device stack (PCIe link, command queues)
  and every completed engine run publish into;
* a **layer-scoped** registry, one per :class:`LayerMetrics`: each
  engine run, service, server, stream runner and sweep pass counts
  into its own, takes its frozen :class:`Snapshot` from it, and merges
  it into the process-wide registry — the registry is the source of
  truth, the snapshot its frozen view.  Both are built from the
  layer's declaration in :mod:`repro.obs.keys`.

Counting is cheap (one dict lookup + add per event, and the engine
counts per *chunk*, not per option), so metrics stay on even when
tracing is disabled.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

from ..errors import ReproError
from . import keys
from .keys import DEFAULT_LATENCY_BUCKETS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LayerMetrics",
    "MetricsRegistry",
    "Snapshot",
    "get_registry",
    "set_registry",
    "parse_prometheus",
    "DEFAULT_LATENCY_BUCKETS",
]


def _label_key(labels: dict) -> "tuple[tuple[str, str], ...]":
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_labels(key: "tuple[tuple[str, str], ...]") -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Common behaviour of one metric family."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def sorted_samples(self):
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count, optionally labelled."""

    metric_type = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: "dict[tuple, float]" = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ReproError(
                f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set (the unlabelled view)."""
        return sum(self._values.values())

    def sorted_samples(self):
        for key in sorted(self._values):
            yield self.name, key, self._values[key]

    def merge_from(self, other: "Counter") -> None:
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value

    def reset(self) -> None:
        """Back to a single unlabelled zero."""
        self._values = {(): 0.0}


class Gauge(_Metric):
    """A value that can go up and down (last write wins on merge)."""

    metric_type = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: "dict[tuple, float]" = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def sorted_samples(self):
        for key in sorted(self._values):
            yield self.name, key, self._values[key]

    def merge_from(self, other: "Gauge") -> None:
        self._values.update(other._values)

    def reset(self) -> None:
        """Back to a single unlabelled zero."""
        self._values = {(): 0.0}


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    metric_type = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: "Sequence[float]" = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ReproError(f"histogram {self.name} needs at least one bucket")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect.bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> "list[tuple[float, int]]":
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out, running = [], 0
        for bound, count in zip(self.bounds + (math.inf,), self._counts):
            running += count
            out.append((bound, running))
        return out

    def sorted_samples(self):
        for bound, cumulative in self.cumulative_buckets():
            yield (f"{self.name}_bucket",
                   (("le", _format_value(bound)),), float(cumulative))
        yield f"{self.name}_sum", (), self._sum
        yield f"{self.name}_count", (), float(self._count)

    def merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ReproError(
                f"histogram {self.name} bucket bounds differ; cannot merge")
        for i, count in enumerate(other._counts):
            self._counts[i] += count
        self._sum += other._sum
        self._count += other._count

    def reset(self) -> None:
        """No observations."""
        self._counts = [0] * len(self._counts)
        self._sum = 0.0
        self._count = 0


class MetricsRegistry:
    """A named collection of metric families with stable ordering."""

    def __init__(self) -> None:
        self._metrics: "dict[str, _Metric]" = {}

    # -- registration ------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ReproError(
                f"metric {name} already registered as "
                f"{metric.metric_type}, not {cls.metric_type}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: "Sequence[float]" = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # -- reading -----------------------------------------------------------

    def get(self, name: str) -> "_Metric | None":
        return self._metrics.get(name)

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge sample (0.0 if absent)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            return float(metric.count)
        return metric.value(**labels)

    def names(self) -> "list[str]":
        return sorted(self._metrics)

    def families(self) -> "Iterable[_Metric]":
        for name in self.names():
            yield self._metrics[name]

    # -- export ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: "list[str]" = []
        for metric in self.families():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.metric_type}")
            for sample_name, label_key, value in metric.sorted_samples():
                lines.append(
                    f"{sample_name}{_format_labels(label_key)} "
                    f"{_format_value(value)}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        """JSON-ready snapshot with deterministic ordering."""
        out: dict = {}
        for metric in self.families():
            samples = {
                (_format_labels(label_key) or "_"): value
                for _, label_key, value in metric.sorted_samples()
            }
            out[metric.name] = {
                "type": metric.metric_type,
                "help": metric.help,
                "samples": samples,
            }
        return out

    # -- composition -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters add, gauges overwrite)."""
        for name, theirs in other._metrics.items():
            mine = self._metrics.get(name)
            if type(mine) is not type(theirs):  # new here, or a clash
                mine = self._get_or_create(
                    type(theirs), name, theirs.help,
                    **({"buckets": theirs.bounds}
                       if isinstance(theirs, Histogram) else {}))
            mine.merge_from(theirs)

    def clear(self) -> None:
        self._metrics.clear()


#: The process-wide registry the device stack and engine publish into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Tests use this to observe a hermetic registry and restore the old
    one in a ``finally``.
    """
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, registry
    return previous


class LayerMetrics:
    """One layer's scoped metrics, built from its declaration.

    ``LayerMetrics("service")`` makes a private registry with one
    family per counter, gauge and histogram key of
    :data:`repro.obs.keys.SERVICE` plus its export-only families,
    seeds every counter and gauge with zero (absent-vs-zero is
    ambiguous to scrapers), and exposes each handle as an attribute
    named after its key, so the hot path is one method call per event:
    ``metrics.requests.inc()``.  :meth:`Snapshot.from_metrics` freezes
    it; :meth:`publish` folds it into the process-wide registry.
    """

    def __init__(self, layer: str) -> None:
        self.layer = keys.LAYERS[layer]
        self.registry = registry = MetricsRegistry()
        for key in self.layer.keys + self.layer.export:
            if key.kind == keys.COUNTER:
                handle = Counter(key.metric, key.help)
                handle.reset()
            elif key.kind == keys.GAUGE:
                handle = Gauge(key.metric, key.help)
                handle.reset()
            elif key.kind == keys.HISTOGRAM:
                handle = Histogram(key.metric, key.help, key.buckets)
            else:
                continue
            registry._metrics[key.metric] = handle
            setattr(self, key.name, handle)

    def publish(self) -> None:
        """Merge this layer's registry into the process-wide registry."""
        get_registry().merge(self.registry)

    def reset(self) -> None:
        """Zero every family, so one object can scope run after run
        (the engine keeps one per engine instead of building one per
        run)."""
        for metric in self.registry._metrics.values():
            metric.reset()


class Snapshot:
    """The frozen stats of one layer, in its declared key order.

    Values read as attributes (``stats.requests``); :meth:`as_dict`
    is the JSON-ready form, keyed exactly by the layer's declared keys
    (:attr:`repro.obs.keys.Layer.names`).  Build one from live metrics
    with :meth:`from_metrics` or from its dict form with
    :meth:`from_dict`.
    """

    __slots__ = ("layer", "_values")

    def __init__(self, layer: str, values: dict) -> None:
        # one tuple in declared key order: a snapshot rides along with
        # every result, so it holds no per-instance dict
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "_values", tuple(
            values[name] for name in _KEY_INDEX[layer]))

    @classmethod
    def from_metrics(cls, metrics: LayerMetrics, **values) -> "Snapshot":
        """Freeze ``metrics``: counters and gauges read their value,
        histograms their mean; the layer's run-value keys come from
        ``values`` (their declared default when absent)."""
        layer = metrics.layer
        out = {}
        for key in layer.keys:
            if key.kind == keys.VALUE:
                out[key.name] = values.pop(key.name, key.default)
            elif key.kind == keys.HISTOGRAM:
                hist = getattr(metrics, key.name)
                out[key.name] = hist.sum / hist.count if hist.count else 0.0
            else:
                out[key.name] = key.type(getattr(metrics, key.name).value())
        if values:
            raise ReproError(
                f"{layer.name} stats have no run value {sorted(values)}")
        return cls(layer.name, out)

    @classmethod
    def from_dict(cls, layer: str, data: dict) -> "Snapshot":
        """Rebuild from :meth:`as_dict` form: unknown keys are dropped,
        missing keys take their declared default."""
        return cls(layer, {key.name: data.get(key.name, key.default)
                           for key in keys.LAYERS[layer].keys})

    def as_dict(self) -> dict:
        """JSON-ready snapshot: the layer's keys, in declared order."""
        return dict(zip(_KEY_INDEX[self.layer], self._values))

    def __getattr__(self, name: str):
        if not name.startswith("_"):
            index = _KEY_INDEX[self.layer].get(name)
            if index is not None:
                return self._values[index]
        raise AttributeError(
            f"{type(self).__name__} has no attribute {name!r}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen")

    def __reduce__(self):
        return type(self), (self.layer, self.as_dict())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self.layer == other.layer and self._values == other._values

    def __hash__(self) -> int:
        return hash((self.layer, self._values))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}[{self.layer}]({fields})"


#: Position of each snapshot key in its layer's value tuple (keys in
#: declared order).
_KEY_INDEX = {name: {key: index for index, key in enumerate(layer.names)}
              for name, layer in keys.LAYERS.items()}


def parse_prometheus(text: str) -> "dict[str, float]":
    """Parse Prometheus text back into ``{'name{labels}': value}``.

    Supports exactly what :meth:`MetricsRegistry.render_prometheus`
    emits (one metric per line, ``# HELP`` / ``# TYPE`` comments); used
    by the round-trip tests and the CI artifact check.
    """
    samples: "dict[str, float]" = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            series, value = line.rsplit(" ", 1)
        except ValueError as exc:
            raise ReproError(f"unparseable metric line: {line!r}") from exc
        if value == "+Inf":
            parsed = math.inf
        elif value == "-Inf":
            parsed = -math.inf
        else:
            try:
                parsed = float(value)
            except ValueError as exc:
                raise ReproError(
                    f"unparseable metric value in line: {line!r}") from exc
        samples[series] = parsed
    return samples
