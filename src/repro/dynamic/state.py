"""Resident-population bookkeeping for the dynamic epoch runner.

The dynamic regime tracks balls at *bin* granularity.  Balls of one
bin are exchangeable, so the per-bin loads are a sufficient statistic
for every departure policy except ``fifo``:

* ``uniform`` departures sample uniformly among all resident balls:
  a multivariate hypergeometric draw over the ``n`` bin loads;
* ``hotset`` departures drain the currently hottest bins first —
  uniformly among the residents of the top ``hot_frac`` fraction of
  bins, falling back to the cold bins only when the hot set runs out;
* ``greedy_adversary`` departures drain the *lightest* bins level by
  level — the gap-maximizing attack: the maximum load is never
  touched while the mean sinks, so each epoch of churn widens the gap
  by the full departure volume spread over the valley floor.  The
  drain is deterministic given the loads (ties at the boundary level
  split by :func:`repro.lowerbound.adversary.spread_budget`) and
  spends no randomness;
* ``fifo`` departures consume balls oldest-first, so only they need
  the arrival epoch of each ball.  A state built for ``fifo``
  (:meth:`ResidentState.for_policy`) groups its residents into
  **cohorts** — one per arrival epoch — and splits only the boundary
  cohort (hypergeometrically over its bins).

Merging categories of a multivariate hypergeometric gives another
one, so a draw over the bin loads has the same law as the per-bin
column sums of a draw over the ``(cohort, bin)`` matrix — at O(n)
instead of O(C·n) cost per departure, with no state growing in the
run length.

Every draw comes from the caller-supplied generator (one spawned
control stream per epoch), so a dynamic run replays bitwise from its
root seed regardless of policy.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["ResidentState"]


class ResidentState:
    """Per-bin resident counts; grouped into arrival cohorts only when
    ``track_cohorts`` (which ``fifo`` departures need)."""

    def __init__(self, n: int, *, track_cohorts: bool = False) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        self.track_cohorts = track_cohorts
        #: Oldest-first list of ``[epoch_id, (n,) counts]`` cohorts;
        #: always empty when cohorts are not tracked.
        self.cohorts: list[list] = []
        self._loads = np.zeros(n, dtype=np.int64)

    @classmethod
    def for_policy(cls, n: int, departures: str) -> "ResidentState":
        """The state a run under the ``departures`` policy needs:
        cohorts are tracked for ``fifo`` only."""
        return cls(n, track_cohorts=departures == "fifo")

    @property
    def loads(self) -> np.ndarray:
        """Current per-bin resident counts (a defensive copy)."""
        return self._loads.copy()

    @property
    def population(self) -> int:
        """Total resident balls."""
        return int(self._loads.sum())

    def add_cohort(self, epoch: int, counts: np.ndarray) -> None:
        """Admit one arrival cohort with the given per-bin placement."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n,):
            raise ValueError(
                f"cohort counts must have shape ({self.n},), "
                f"got {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("cohort counts must be non-negative")
        if counts.sum() == 0:
            return
        if self.track_cohorts:
            self.cohorts.append([epoch, counts.copy()])
        self._loads += counts

    def _matrix(self) -> np.ndarray:
        """The ``(C, n)`` cohort-by-bin count matrix (a view stack)."""
        if not self.cohorts:
            return np.zeros((0, self.n), dtype=np.int64)
        return np.stack([c for _, c in self.cohorts])

    def _depart_fifo(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Consume cohorts oldest-first, splitting only the boundary
        one; drop emptied cohorts."""
        matrix = self._matrix()
        taken = np.zeros_like(matrix)
        remaining = k
        for i in range(matrix.shape[0]):
            size = int(matrix[i].sum())
            if size <= remaining:
                taken[i] = matrix[i]
                remaining -= size
            elif remaining > 0:
                taken[i] = rng.multivariate_hypergeometric(
                    matrix[i], remaining
                )
                remaining = 0
            else:
                break
        departed = taken.sum(axis=0)
        for row, cohort in zip(taken, self.cohorts):
            cohort[1] -= row
        self.cohorts = [c for c in self.cohorts if c[1].sum() > 0]
        self._loads -= departed
        if np.any(self._loads < 0):  # pragma: no cover - internal guard
            raise AssertionError("departures exceeded resident counts")
        return departed

    def _greedy_drain(self, k: int) -> np.ndarray:
        """Gap-maximizing drain: empty the lightest bins level by
        level, apportioning the boundary level's budget across its
        tied bins with the adversaries' largest-remainder spreader.
        The maximum bin is never touched (unless the budget consumes
        the whole population), so the mean falls while the max stands
        — the worst case for the gap."""
        from repro.lowerbound.adversary import spread_budget

        per_bin = np.zeros(self.n, dtype=np.int64)
        remaining = k
        for level in np.unique(self._loads[self._loads > 0]):
            bins = np.flatnonzero(self._loads == level)
            level_total = int(level) * bins.size
            if level_total <= remaining:
                per_bin[bins] = level
                remaining -= level_total
                if remaining == 0:
                    break
            else:
                per_bin[bins] = spread_budget(remaining, np.ones(bins.size))
                break
        return per_bin

    def depart(
        self,
        k: int,
        policy: str,
        rng: Optional[np.random.Generator],
        *,
        hot_frac: float = 0.1,
    ) -> np.ndarray:
        """Remove ``k`` residents under ``policy``; returns the per-bin
        departure counts.

        ``k = 0`` is a strict no-op: no generator draw, no state
        change (the zero-churn bitwise-stability guarantee).  A state
        that tracks cohorts departs under ``fifo`` only, and ``fifo``
        needs one that does (see :meth:`for_policy`).
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return np.zeros(self.n, dtype=np.int64)
        if k > self.population:
            raise ValueError(
                f"cannot depart {k} balls from a population of "
                f"{self.population}"
            )
        if policy == "fifo":
            if not self.track_cohorts:
                raise ValueError(
                    "fifo departures need cohort tracking: build the "
                    "state with ResidentState.for_policy(n, 'fifo')"
                )
            return self._depart_fifo(k, rng)
        if self.track_cohorts:
            raise ValueError(
                f"departure policy {policy!r} on a cohort-tracking "
                "state: only fifo keeps cohorts in sync"
            )
        loads = self._loads
        if policy == "uniform":
            departed = rng.multivariate_hypergeometric(loads, k)
        elif policy == "hotset":
            n_hot = max(1, min(self.n - 1, math.ceil(hot_frac * self.n)))
            order = np.argsort(-loads, kind="stable")
            hot = order[:n_hot]
            cold = order[n_hot:]
            departed = np.zeros(self.n, dtype=np.int64)
            k_hot = min(k, int(loads[hot].sum()))
            if k_hot > 0:
                departed[hot] = rng.multivariate_hypergeometric(
                    loads[hot], k_hot
                )
            if k > k_hot:
                departed[cold] = rng.multivariate_hypergeometric(
                    loads[cold], k - k_hot
                )
        elif policy == "greedy_adversary":
            departed = self._greedy_drain(k)
        else:
            raise ValueError(f"unknown departure policy {policy!r}")
        self._loads -= departed
        return departed

    def reshuffle(
        self,
        new_loads: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Set the loads to ``new_loads`` after a full re-placement.

        ``new_loads`` may total *less* than the current population (a
        protocol that strands balls evicts them).  Without cohorts this
        is a plain assignment and draws nothing.  With cohorts, the
        full-rerun oracle changes where each cohort's balls sit without
        changing cohort membership: placed balls of one run are
        exchangeable, so each cohort's new bin distribution is a
        hypergeometric split of the placement, drawn oldest-first from
        ``rng``, and the shortfall is charged to the newest cohorts.
        """
        new_loads = np.asarray(new_loads, dtype=np.int64)
        if new_loads.shape != (self.n,):
            raise ValueError(
                f"new_loads must have shape ({self.n},), "
                f"got {new_loads.shape}"
            )
        total_placed = int(new_loads.sum())
        shortfall = self.population - total_placed
        if shortfall < 0:
            raise ValueError(
                "reshuffle target exceeds the resident population"
            )
        if self.track_cohorts:
            self._reshuffle_cohorts(new_loads, shortfall, rng)
        self._loads = new_loads.copy()

    def _reshuffle_cohorts(
        self,
        new_loads: np.ndarray,
        shortfall: int,
        rng: np.random.Generator,
    ) -> None:
        sizes = [int(c[1].sum()) for c in self.cohorts]
        for i in range(len(sizes) - 1, -1, -1):
            if shortfall <= 0:
                break
            cut = min(sizes[i], shortfall)
            sizes[i] -= cut
            shortfall -= cut
        remaining = new_loads.copy()
        for size, cohort in zip(sizes, self.cohorts):
            if size == 0:
                part = np.zeros(self.n, dtype=np.int64)
            elif size == int(remaining.sum()):
                part = remaining.copy()
            else:
                part = rng.multivariate_hypergeometric(remaining, size)
            cohort[1] = part.astype(np.int64)
            remaining -= part
        self.cohorts = [c for c in self.cohorts if c[1].sum() > 0]
