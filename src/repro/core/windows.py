"""Sliding-window accumulators used by the NWS forecasters.

The NWS runs its forecaster battery on every new measurement, so the
windowed statistics must be incremental: O(1) for the mean, O(log w) for
order statistics.  These classes are deliberately free of NumPy -- the
values arrive one at a time and the windows are small (5-100 samples), so
scalar updates beat array churn (see the hpc-parallel guide: measure, don't
assume; avoid per-step allocation).

Each window keeps its samples in a plain ``list`` that grows by appends
until it holds ``capacity`` samples, after which every push evicts the
oldest with ``pop(0)``.  A forecast service holds dozens of these per
series, most of them shallow, so their resident size must follow the
samples held: an empty ``list`` is 56 bytes where an empty
``collections.deque`` allocates a 760-byte block up front.  For windows
of at most a hundred samples ``pop(0)`` -- one short ``memmove`` -- also
measured no slower than a ring index.
"""

from __future__ import annotations

from bisect import bisect_left, insort

__all__ = ["RingMean", "RingMedian", "RingTrimmedMean"]


class RingMean:
    """Fixed-capacity sliding window maintaining its mean in O(1).

    The window sum is kept in *prefix form*: ``_total`` is the running sum
    of every value ever pushed and ``_base`` the running sum of every value
    ever evicted, so the window sum is ``_total - _base``.  Both are built
    by the same left-to-right additions as ``numpy.cumsum`` over the full
    input, which makes the mean bit-identical to the vectorized
    ``(cumsum[t] - cumsum[t - w]) / w`` used by :mod:`repro.core.batch` --
    the streaming/batch parity contract hinges on this formulation.

    Parameters
    ----------
    capacity:
        Maximum number of retained samples (>= 1).
    """

    __slots__ = ("_buffer", "_capacity", "_total", "_base")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._buffer: list[float] = []
        self._total = 0.0
        self._base = 0.0

    def push(self, value: float) -> None:
        """Append ``value``, evicting the oldest sample if full."""
        self._buffer.append(value)
        self._total += value
        if len(self._buffer) > self._capacity:
            # Replaying the prefix sum keeps _base on the exact float
            # trajectory _total took when the evicted value was pushed.
            self._base += self._buffer.pop(0)

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def mean(self) -> float:
        """Mean of the retained samples.

        Raises
        ------
        ValueError
            If the window is empty.
        """
        if not self._buffer:
            raise ValueError("window is empty")
        # Prefix differences carry bounded drift (~n * eps * max|x| over
        # the whole stream); availability values are O(1) so this stays
        # far below forecast resolution even on week-long traces.
        return (self._total - self._base) / len(self._buffer)

    def values(self) -> list[float]:
        """Retained samples, oldest first."""
        return list(self._buffer)


class RingMedian:
    """Fixed-capacity sliding window maintaining its median in O(log w).

    Keeps the window contents both in arrival order (for eviction) and in a
    sorted list (for the order statistic).
    """

    __slots__ = ("_buffer", "_capacity", "_sorted")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._buffer: list[float] = []
        self._sorted: list[float] = []

    def push(self, value: float) -> None:
        """Append ``value``, evicting the oldest sample if full."""
        self._buffer.append(value)
        insort(self._sorted, value)
        if len(self._buffer) > self._capacity:
            oldest = self._buffer.pop(0)
            # list.remove is O(w) but w <= ~100 in every NWS configuration;
            # a skip list would only pay off for much larger windows.
            index = self._index_of(oldest)
            del self._sorted[index]

    def _index_of(self, value: float) -> int:
        index = bisect_left(self._sorted, value)
        if index >= len(self._sorted) or self._sorted[index] != value:
            raise RuntimeError("sorted window out of sync")  # pragma: no cover
        return index

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def median(self) -> float:
        """Median of the retained samples (mean of middle two when even)."""
        if not self._sorted:
            raise ValueError("window is empty")
        n = len(self._sorted)
        mid = n // 2
        if n % 2:
            return self._sorted[mid]
        return 0.5 * (self._sorted[mid - 1] + self._sorted[mid])

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the retained samples, ``q`` in [0, 1]."""
        if not self._sorted:
            raise ValueError("window is empty")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        index = min(int(q * len(self._sorted)), len(self._sorted) - 1)
        return self._sorted[index]

    def values(self) -> list[float]:
        """Retained samples, oldest first."""
        return list(self._buffer)


class RingTrimmedMean(RingMedian):
    """Sliding window reporting an alpha-trimmed mean.

    Discards the ``trim`` smallest and ``trim`` largest retained samples
    before averaging, which is the NWS's defence against measurement spikes.

    Parameters
    ----------
    capacity:
        Window capacity.
    trim:
        Number of samples trimmed from *each* end; must satisfy
        ``2 * trim < capacity``.
    """

    __slots__ = ("_trim",)

    def __init__(self, capacity: int, trim: int):
        super().__init__(capacity)
        if trim < 0 or 2 * trim >= capacity:
            raise ValueError(
                f"trim must satisfy 0 <= 2*trim < capacity, got trim={trim}"
            )
        self._trim = int(trim)

    @property
    def trimmed_mean(self) -> float:
        """Mean of the retained samples after symmetric trimming.

        When the window holds too few samples to trim, falls back to the
        plain mean of what is there.
        """
        if not self._sorted:
            raise ValueError("window is empty")
        if len(self._sorted) > 2 * self._trim:
            kept = self._sorted[self._trim : len(self._sorted) - self._trim]
        else:
            kept = self._sorted
        return sum(kept) / len(kept)
