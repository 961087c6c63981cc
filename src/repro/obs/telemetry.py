"""Deterministic metrics primitives: counters, gauges, histograms.

The registry follows the tracer's contract (``obs/tracer.py``): it is
pure bookkeeping over values the caller hands it, so everything a test
asserts is virtual-time or count based and therefore deterministic for
a given job stream.  Wall-clock quantities (queue wait, run latency)
may be *observed* into histograms — their observation **count** is
deterministic (every job is observed exactly once), but the bucket
each observation lands in and the ``sum`` are wall clock and must
never be asserted.

Three metric kinds, Prometheus-shaped:

* ``Counter`` — monotone float/int, ``inc(amount)``.
* ``Gauge`` — settable value, ``set``/``inc``/``dec``.
* ``Histogram`` — fixed cumulative buckets chosen at registration;
  ``observe(v)`` and ``quantile(q)`` (linear interpolation inside the
  winning bucket, Prometheus ``histogram_quantile`` style).

Metrics are registered once by name; label *names* are fixed at
registration and children are materialised per label-value tuple via
``.labels(...)``.  ``snapshot()`` renders the whole registry as a
plain JSON value with every list sorted by ``(name, label values)``
so two registries that saw the same events — in any interleaving —
serialise identically.  ``render_prometheus()`` emits the text
exposition format and ``parse_prometheus()`` reads it back (used by
the round-trip test and by scrape tooling).

Thread safety: one registry-wide lock guards registration, updates and
snapshots.  Instrument methods are cheap (dict lookup + add) and the
service's hot path goes through them only a handful of times per job.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterable

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "parse_prometheus",
    "render_prometheus",
]

# latency buckets in milliseconds, 1 ms .. 10 s (a +Inf bucket is
# always appended); roughly-2.5x spacing like the Prometheus default
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Bad metric/label name, kind conflict, or label mismatch."""


def _check_name(name: str, what: str) -> None:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid {what} {name!r}")


def _jsonable_num(v: float) -> float | int:
    """Integral floats render as ints so JSON snapshots stay tidy."""
    if isinstance(v, float) and v.is_integer() and abs(v) < 2**53:
        return int(v)
    return v


class _Metric:
    """Shared parent: name/help/label bookkeeping + child cache."""

    kind = ""

    def __init__(self, name: str, help: str, label_names: tuple[str, ...],
                 lock: threading.Lock) -> None:
        _check_name(name, "metric name")
        for ln in label_names:
            _check_name(ln, "label name")
        if len(set(label_names)) != len(label_names):
            raise MetricError(f"duplicate label names in {name!r}")
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labelvals: str):
        if set(labelvals) != set(self.label_names):
            raise MetricError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labelvals))}")
        key = tuple(str(labelvals[ln]) for ln in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _default_child(self):
        """The single unlabelled child (metrics with no label names)."""
        if self.label_names:
            raise MetricError(f"{self.name} requires labels "
                              f"{self.label_names}")
        return self.labels()

    def _sorted_children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        with self._lock:
            self.value += amount


class Counter(_Metric):
    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild(_CounterChild):
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(Counter):
    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)


class _HistogramChild:
    __slots__ = ("_lock", "edges", "bucket_counts", "count", "sum")

    def __init__(self, lock: threading.Lock,
                 edges: tuple[float, ...]) -> None:
        self._lock = lock
        self.edges = edges                     # finite upper bounds
        self.bucket_counts = [0] * (len(edges) + 1)  # + the +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        v = float(value)
        # first bucket whose upper bound admits the value; the +Inf
        # bucket at the end catches the rest
        idx = len(self.edges)
        for i, edge in enumerate(self.edges):
            if v <= edge:
                idx = i
                break
        with self._lock:
            self.bucket_counts[idx] += 1
            self.count += 1
            self.sum += v

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile from bucket counts.

        Linear interpolation within the winning bucket, like
        Prometheus' ``histogram_quantile``; an unbounded (+Inf)
        winner returns the highest finite edge.  Empty → 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        with self._lock:
            counts = list(self.bucket_counts)
            total = self.count
        if total == 0:
            return 0.0
        target = q * total
        cum = 0.0
        lo = 0.0
        for i, c in enumerate(counts):
            prev = cum
            cum += c
            if cum >= target and c > 0:
                if i >= len(self.edges):       # +Inf bucket
                    return self.edges[-1] if self.edges else 0.0
                hi = self.edges[i]
                frac = (target - prev) / c if c else 0.0
                return lo + (hi - lo) * frac
            if i < len(self.edges):
                lo = self.edges[i]
        return lo


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...],
                 lock: threading.Lock,
                 buckets: Iterable[float]) -> None:
        super().__init__(name, help, label_names, lock)
        edges = tuple(float(b) for b in buckets if math.isfinite(b))
        if not edges or list(edges) != sorted(set(edges)):
            raise MetricError(
                f"{name}: buckets must be finite, sorted, unique")
        self.edges = edges

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.edges)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        return self._default_child().quantile(q)


class MetricsRegistry:
    """A named set of metrics with a deterministic serialisation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- registration (get-or-create; conflicting re-registration is
    #    a programming error and raises) ----------------------------
    def _register(self, cls, name: str, help: str,
                  labels: Iterable[str] = (), **kw) -> _Metric:
        label_names = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.label_names != label_names):
                    raise MetricError(
                        f"{name!r} already registered as "
                        f"{existing.kind}{existing.label_names}")
                return existing
            metric = cls(name, help, label_names,
                         threading.Lock(), **kw)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str,
                labels: Iterable[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str,
              labels: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(self, name: str, help: str,
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
                  labels: Iterable[str] = ()) -> Histogram:
        return self._register(Histogram, name, help, labels,
                              buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def _sorted_metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    # -- serialisation ---------------------------------------------
    def snapshot(self) -> dict:
        """JSON value of every metric, fully sorted → deterministic."""
        counters: list[dict] = []
        gauges: list[dict] = []
        histograms: list[dict] = []
        for metric in self._sorted_metrics():
            for key, child in metric._sorted_children():
                labels = dict(zip(metric.label_names, key))
                if metric.kind == "histogram":
                    with metric._lock:
                        buckets = [
                            {"le": e, "count": c} for e, c in
                            zip(metric.edges, child.bucket_counts)]
                        buckets.append({"le": "+Inf",
                                        "count": child.bucket_counts[-1]})
                        histograms.append({
                            "name": metric.name, "help": metric.help,
                            "labels": labels, "buckets": buckets,
                            "count": child.count,
                            "sum": round(child.sum, 6)})
                else:
                    row = {"name": metric.name, "help": metric.help,
                           "labels": labels,
                           "value": _jsonable_num(child.value)}
                    (counters if metric.kind == "counter"
                     else gauges).append(row)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def render_prometheus(self) -> str:
        return render_prometheus(self)


# ----------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------

def _escape_help(s: str) -> str:
    return s.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(s: str) -> str:
    return (s.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def _fmt_labels(names: tuple[str, ...], values: tuple[str, ...],
                extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{n}="{_escape_label_value(v)}"'
             for n, v in zip(names, values)]
    pairs += [f'{n}="{_escape_label_value(v)}"' for n, v in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _fmt_value(v: float) -> str:
    if isinstance(v, float) and v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(float(v))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Text exposition format (version 0.0.4), deterministic order."""
    lines: list[str] = []
    for metric in registry._sorted_metrics():
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for key, child in metric._sorted_children():
            if metric.kind == "histogram":
                with metric._lock:
                    counts = list(child.bucket_counts)
                    total, s = child.count, child.sum
                cum = 0
                for edge, c in zip(metric.edges, counts):
                    cum += c
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_fmt_labels(metric.label_names, key, (('le', _fmt_value(edge)),))}"
                        f" {cum}")
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_fmt_labels(metric.label_names, key, (('le', '+Inf'),))}"
                    f" {total}")
                lines.append(
                    f"{metric.name}_sum"
                    f"{_fmt_labels(metric.label_names, key)} "
                    f"{_fmt_value(s)}")
                lines.append(
                    f"{metric.name}_count"
                    f"{_fmt_labels(metric.label_names, key)} {total}")
            else:
                lines.append(
                    f"{metric.name}"
                    f"{_fmt_labels(metric.label_names, key)} "
                    f"{_fmt_value(child.value)}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(s: str) -> str:
    return (s.replace(r"\"", '"').replace(r"\n", "\n")
            .replace(r"\\", "\\"))


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse the text exposition format back into a plain structure.

    Returns ``{family_name: {"type": kind, "help": str, "samples":
    [(sample_name, labels_dict, value), ...]}}``.  Histogram series
    (``_bucket``/``_sum``/``_count``) are attached to their family.
    Used by the round-trip test and the CI smoke scrape.
    """
    families: dict[str, dict] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name.removesuffix(suffix)
            if base != sample_name and base in families \
                    and families[base]["type"] == "histogram":
                return base
        return sample_name

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []})
            families[name]["help"] = (help_text
                                      .replace(r"\n", "\n")
                                      .replace(r"\\", "\\"))
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []})
            families[name]["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise MetricError(f"unparseable exposition line: {raw!r}")
        labels = {k: _unescape_label_value(v)
                  for k, v in _LABEL_RE.findall(m.group("labels") or "")}
        value = float(m.group("value"))
        fam = family_of(m.group("name"))
        families.setdefault(
            fam, {"type": "untyped", "help": "", "samples": []})
        families[fam]["samples"].append((m.group("name"), labels, value))
    return families
