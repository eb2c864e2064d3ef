"""Typed metrics: counters, gauges, and log-bucketed histograms.

The registry is the store-internal source of truth for operational
counters; :class:`repro.engines.base.StoreStats` is assembled from it on
demand (a *view*), so the flat counter bag the tests and benchmarks read
keeps working while every metric also has a typed, queryable, exportable
home.

Histograms are log-bucketed in the RocksDB-statistics style: bucket
boundaries grow geometrically (``growth`` per bucket, default 2**0.25 ≈
+19%), so memory stays bounded no matter how many samples are recorded
and any percentile is off by at most one bucket width — the bucketing
preserves sample order, so the estimated quantile always lands in the
same bucket as the exact one.

Exposition follows the Prometheus text format (``repro_`` prefix, dots
mapped to underscores, sorted output) so a dump is diffable and
deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]
LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram bucketing: first finite boundary and per-bucket growth.
HIST_LO = 1e-9
HIST_GROWTH = 2.0 ** 0.25


def _labels_key(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _expo_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _expo_labels(labels: LabelItems) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _fmt(value: Number) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class Counter:
    """A monotonically increasing value (int or float)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n

    def snapshot(self) -> Number:
        return self.value


class Gauge:
    """A value that can move both ways (set, add, or track a maximum)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def track_max(self, value: Number) -> None:
        if value > self.value:
            self.value = value

    def snapshot(self) -> Number:
        return self.value


class Histogram:
    """Log-bucketed sample distribution with bounded memory.

    Bucket 0 covers ``(-inf, lo]``; bucket ``i >= 1`` covers
    ``(lo * growth**(i-1), lo * growth**i]``.  ``percentile(q)`` matches
    the ``sorted(samples)[min(n-1, int(q*n))]`` convention of the raw
    sample lists it replaces and is exact to within one bucket width.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "lo",
        "growth",
        "_log_growth",
        "_log_lo",
        "_inv_log_growth",
        "_count",
        "_total",
        "_min",
        "_max",
        "_buckets",
        "_pending",
    )

    #: ``record`` only appends to a pending list; bucketing happens in
    #: batches of this size, keeping the hot path close to a raw
    #: ``list.append`` while memory stays bounded.
    _BATCH = 4096

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        lo: float = HIST_LO,
        growth: float = HIST_GROWTH,
    ) -> None:
        if lo <= 0 or growth <= 1.0:
            raise ValueError("histogram needs lo > 0 and growth > 1")
        self.name = name
        self.labels = labels
        self.lo = lo
        self.growth = growth
        self._log_growth = math.log(growth)
        self._log_lo = math.log(lo)
        self._inv_log_growth = 1.0 / self._log_growth
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._buckets: Dict[int, int] = {}
        self._pending: List[float] = []

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= self._BATCH:
            self._drain()

    def _drain(self) -> None:
        pending = self._pending
        if not pending:
            return
        # Sorting (C speed) lets whole runs of samples land in one bucket
        # with a single log/pow + bisect, instead of a log per sample.
        pending.sort()
        self._count += len(pending)
        self._total += sum(pending)
        if pending[0] < self._min:
            self._min = pending[0]
        if pending[-1] > self._max:
            self._max = pending[-1]
        buckets = self._buckets
        lo, growth = self.lo, self.growth
        log_lo, inv = self._log_lo, self._inv_log_growth
        i, n = 0, len(pending)
        while i < n:
            value = pending[i]
            if value <= lo:
                index, upper = 0, lo
            else:
                index = 1 + int((math.log(value) - log_lo) * inv)
                # Guard the boundary case where float rounding puts an
                # exact bucket upper bound one slot too high.
                lower = lo * growth ** (index - 1)
                if lower >= value:
                    index, upper = index - 1, lower
                else:
                    upper = lo * growth ** index
            # Claim at least one sample so rounding on the upper bound
            # can never stall the walk.
            j = max(bisect_right(pending, upper, i, n), i + 1)
            buckets[index] = buckets.get(index, 0) + (j - i)
            i = j
        self._pending = []

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count + len(self._pending)

    @property
    def total(self) -> float:
        self._drain()
        return self._total

    @property
    def max(self) -> float:
        self._drain()
        return self._max

    @property
    def buckets(self) -> Dict[int, int]:
        self._drain()
        return self._buckets

    def _index(self, value: float) -> int:
        if value <= self.lo:
            return 0
        index = 1 + int((math.log(value) - self._log_lo) * self._inv_log_growth)
        while self.bucket_bounds(index)[0] >= value:
            index -= 1
        return index

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``(exclusive lower, inclusive upper)`` bounds of one bucket."""
        if index <= 0:
            return (0.0, self.lo)
        return (self.lo * self.growth ** (index - 1), self.lo * self.growth ** index)

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def percentile(self, q: float) -> float:
        """Quantile estimate, within one bucket width of the exact value."""
        self._drain()
        if not self._count:
            return 0.0
        rank = min(self._count - 1, int(q * self._count))
        seen = 0
        for index in sorted(self._buckets):
            in_bucket = self._buckets[index]
            if seen + in_bucket > rank:
                lower, upper = self.bucket_bounds(index)
                # Interpolate by rank inside the bucket; clamp to the
                # recorded extremes so p0/p100 report real sample values.
                position = (rank - seen + 1) / in_bucket
                estimate = lower + (upper - lower) * position
                return min(max(estimate, self._min), self._max)
            seen += in_bucket
        return self._max  # pragma: no cover - unreachable

    def bucket_width_at(self, value: float) -> float:
        """Width of the bucket containing ``value`` (error-bound checks)."""
        lower, upper = self.bucket_bounds(self._index(value))
        return upper - lower

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        self._drain()
        return {
            "count": self._count,
            "sum": self._total,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "buckets": dict(self.buckets),
        }

    def merge(self, other: "Histogram") -> None:
        if (other.lo, other.growth) != (self.lo, self.growth):
            raise ValueError("cannot merge histograms with different bucketing")
        self._drain()
        other._drain()
        self._count += other._count
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of typed metrics with deterministic exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        lo: float = HIST_LO,
        growth: float = HIST_GROWTH,
        **labels,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, lo=lo, growth=growth)

    def get(self, name: str, **labels) -> Optional[Metric]:
        return self._metrics.get((name, _labels_key(labels)))

    def value(self, name: str, default: Number = 0, **labels) -> Number:
        metric = self.get(name, **labels)
        if metric is None or isinstance(metric, Histogram):
            return default
        return metric.value

    def __iter__(self) -> Iterable[Metric]:
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Snapshot / delta / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-data view keyed by ``name{label="v"}`` exposition keys."""
        out: Dict[str, object] = {}
        for metric in self:
            key = metric.name + _expo_labels(metric.labels)
            out[key] = metric.snapshot()
        return out

    def delta(self, before: Dict[str, object]) -> Dict[str, object]:
        """Difference between now and an earlier :meth:`snapshot`.

        Counters subtract; gauges report their current value; histograms
        subtract counts/sums/buckets (min/max are since-start).
        """
        out: Dict[str, object] = {}
        for metric in self:
            key = metric.name + _expo_labels(metric.labels)
            prior = before.get(key)
            if isinstance(metric, Counter) and isinstance(prior, (int, float)):
                out[key] = metric.value - prior
            elif isinstance(metric, Histogram) and isinstance(prior, dict):
                buckets = dict(metric.buckets)
                for index, n in prior.get("buckets", {}).items():
                    buckets[index] = buckets.get(index, 0) - n
                out[key] = {
                    "count": metric.count - prior.get("count", 0),
                    "sum": metric.total - prior.get("sum", 0.0),
                    "buckets": {i: n for i, n in buckets.items() if n},
                }
            else:
                out[key] = metric.snapshot()
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry (shard aggregation).

        Counters add, gauges take the maximum (peaks stay peaks),
        histograms merge bucket-wise.
        """
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(
                        metric.name, key[1], lo=metric.lo, growth=metric.growth
                    )
                else:
                    mine = type(metric)(metric.name, key[1])
                self._metrics[key] = mine
            if isinstance(metric, Histogram):
                assert isinstance(mine, Histogram)
                mine.merge(metric)
            elif isinstance(metric, Gauge):
                assert isinstance(mine, Gauge)
                mine.track_max(metric.value)
            else:
                assert isinstance(mine, Counter)
                mine.value += metric.value

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Prometheus-style text exposition (sorted, deterministic)."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for metric in self:
            base = _expo_name(metric.name)
            if base not in seen_types:
                seen_types[base] = metric.kind
                lines.append(f"# TYPE {base} {metric.kind}")
            label_text = _expo_labels(metric.labels)
            if isinstance(metric, Histogram):
                cumulative = 0
                for index in sorted(metric.buckets):
                    cumulative += metric.buckets[index]
                    upper = metric.bucket_bounds(index)[1]
                    le = (
                        "{" + (label_text[1:-1] + "," if label_text else "")
                        + f'le="{upper!r}"' + "}"
                    )
                    lines.append(f"{base}_bucket{le} {cumulative}")
                inf_label = (
                    "{" + (label_text[1:-1] + "," if label_text else "")
                    + 'le="+Inf"' + "}"
                )
                lines.append(f"{base}_bucket{inf_label} {metric.count}")
                lines.append(f"{base}_sum{label_text} {_fmt(metric.total)}")
                lines.append(f"{base}_count{label_text} {metric.count}")
            else:
                lines.append(f"{base}{label_text} {_fmt(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")
