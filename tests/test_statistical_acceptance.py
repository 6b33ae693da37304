"""Statistical acceptance tests: distributional paper claims at scale.

The paper's bounds are w.h.p. statements about *distributions* — the
gap of ``A_heavy`` is ``O(1)`` with probability ``1 - n^{-c}``, naive
single-choice concentrates at its ``sqrt``-excess, and the aggregate
fast path is identical in law to the per-ball semantics.  With the
trial-batched replication engine, 256 replications per assertion are
cheap enough to run in the tier-1 suite, so these claims are asserted
on empirical quantiles rather than a handful of runs.

All seeds are pinned, so every assertion is deterministic; the
tolerances are set wide enough that they are *comfortably* inside the
observed values (documented per test), not at the edge — re-tightening
them is an explicit act, never a flake.
"""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis.theory import (
    expected_max_load_single_choice,
    predicted_rounds,
)
from repro.api import allocate_many, replicate
from repro.dynamic import ResidentState
from repro.experiments.exp_replication import heavy_gap_envelope

SEED = 20190416
TRIALS = 256


class TestHeavyGapEnvelope:
    """Theorem 1: gap O(1) w.h.p. — checked at the p99 quantile."""

    @pytest.mark.parametrize("n,ratio", [(256, 64), (256, 512), (1024, 64)])
    def test_gap_quantiles_within_theory_envelope(self, n, ratio):
        m = n * ratio
        rep = replicate("heavy", m, n, trials=TRIALS, seed=SEED)
        assert rep.all_complete
        q = rep.quantiles("gap", (0.5, 0.95, 0.99, 1.0))
        envelope = heavy_gap_envelope(n)
        # Observed: p50 = 4, max <= 5 at these sizes; envelope is 7.
        assert 0.0 <= q[0.5] <= q[0.99] <= envelope
        assert q[1.0] <= envelope + 1  # even the worst of 256 trials
        # m >= n => max load >= ceil(m/n) => gap >= 0 in every trial.
        assert rep.gaps.min() >= 0.0

    def test_round_quantiles_within_theory_bound(self):
        m, n = 256 * 512, 256
        rep = replicate("heavy", m, n, trials=TRIALS, seed=SEED)
        q = rep.quantiles("rounds", (0.5, 0.99))
        bound = predicted_rounds(m, n) + 2
        # Observed: p99 = 9 vs bound 14.
        assert q[0.5] <= q[0.99] <= bound

    def test_message_bound_linear_in_m(self):
        # Theorem 6: O(m) total messages; observed constant ~2.25.
        m, n = 256 * 256, 256
        rep = replicate("heavy", m, n, trials=TRIALS, seed=SEED)
        q = rep.quantiles("messages", (0.99,))
        assert q[0.99] <= 4 * m


class TestSingleChoiceClassics:
    """The baseline's classical forms anchor the statistics layer."""

    def test_max_load_near_logn_over_loglogn_at_m_eq_n(self):
        n = 1024
        rep = replicate("single", n, n, trials=TRIALS, seed=SEED)
        mean_max = float(rep.max_loads.mean())
        predicted = expected_max_load_single_choice(n, n)
        # ln n / ln ln n = 3.57 at n=1024; the classical max load is
        # (1+o(1)) of it.  Observed mean ~5.3 vs predicted 4.58: the
        # window [0.6x, 2.0x] has >= 1.7x slack on both sides.
        assert 0.6 * predicted <= mean_max <= 2.0 * predicted

    def test_heavy_beats_naive_sqrt_excess(self):
        # Section 1: naive pays Theta(sqrt((m/n) log n)); A_heavy O(1).
        m, n = 256 * 512, 256
        naive = replicate("single", m, n, trials=64, seed=SEED)
        heavy = replicate("heavy", m, n, trials=64, seed=SEED)
        naive_p50 = naive.quantiles("gap", (0.5,))[0.5]
        heavy_p99 = heavy.quantiles("gap", (0.99,))[0.99]
        # Observed: 65 vs 4 — an order of magnitude; require 4x.
        assert naive_p50 >= 4 * heavy_p99


class TestPerballAggregateAgreement:
    """Two-sample check: the aggregate fast path (which the batched
    engine runs) agrees in law with exact per-ball semantics."""

    @pytest.mark.parametrize("name", ["heavy", "single"])
    def test_gap_samples_agree(self, name):
        m, n, t = 20_000, 64, 128
        aggregate = replicate(name, m, n, trials=t, seed=SEED)
        assert aggregate.batched and aggregate.mode == "aggregate"
        perball = allocate_many(
            name, m, n, repeats=t, seed=SEED, mode="perball"
        )
        per_gaps = np.array([r.gap for r in perball])
        # Same root seed, same spawned children — but different draw
        # paths (per-ball choices vs multinomial counts), so the
        # samples are independent draws from the two laws.
        ks = scipy_stats.ks_2samp(aggregate.gaps, per_gaps)
        # Observed p-values ~0.3+; anything above 0.005 passes.  A
        # genuine law mismatch (e.g. an off-by-one in capacity) drives
        # p below 1e-6 at 128 trials.
        assert ks.pvalue > 0.005, (ks, name)
        # Mean agreement, scaled by the standard error of the
        # difference: observed |diff| is ~0.4 SEM (heavy) and ~2.8 SEM
        # (single); 5 SEM is the generous deterministic bound.
        sem_diff = math.sqrt(
            (aggregate.gaps.var(ddof=1) + per_gaps.var(ddof=1)) / t
        )
        assert abs(
            aggregate.gaps.mean() - per_gaps.mean()
        ) <= 5.0 * sem_diff, name

    def test_mean_load_identical_by_conservation(self):
        m, n, t = 20_000, 64, 32
        rep = replicate("heavy", m, n, trials=t, seed=SEED)
        assert np.all(rep.loads.sum(axis=1) == m)
        assert math.isclose(rep.loads.mean(), m / n)


def _cohort_matrix_departures(matrix, k, policy, rng, hot_frac):
    """Reference: the departure draw over the flattened (cohort, bin)
    matrix that ``ResidentState`` made before it kept per-bin loads
    only; returns the per-bin column sums."""
    if policy == "uniform":
        return rng.multivariate_hypergeometric(matrix.ravel(), k).reshape(
            matrix.shape
        ).sum(axis=0)
    n = matrix.shape[1]
    order = np.argsort(-matrix.sum(axis=0), kind="stable")
    n_hot = max(1, min(n - 1, math.ceil(hot_frac * n)))
    hot, cold = order[:n_hot], order[n_hot:]
    out = np.zeros(n, dtype=np.int64)
    k_hot = min(k, int(matrix[:, hot].sum()))
    for bins, q in ((hot, k_hot), (cold, k - k_hot)):
        if q > 0:
            out[bins] = rng.multivariate_hypergeometric(
                matrix[:, bins].ravel(), q
            ).reshape(-1, bins.size).sum(axis=0)
    return out


class TestLoadOnlyDepartureLaw:
    """Merging categories of a multivariate hypergeometric gives
    another one, so departures drawn over the per-bin loads have the
    law of the per-bin sums of a draw over the (cohort, bin) matrix.
    Two-sample KS over per-bin departure counts and their maximum."""

    REPS = 2000
    HOT_FRAC = 0.25

    @pytest.fixture(scope="class")
    def matrix(self):
        rng = np.random.default_rng(SEED)
        n = 16
        sizes = (300, 200, 120, 80)
        weights = rng.dirichlet(np.full(n, 2.0), size=len(sizes))
        return np.stack(
            [rng.multinomial(s, w) for s, w in zip(sizes, weights)]
        ).astype(np.int64)

    @pytest.mark.parametrize(
        "policy,k", [("uniform", 350), ("hotset", 40), ("hotset", 400)]
    )
    def test_per_bin_departures_agree(self, matrix, policy, k):
        loads = matrix.sum(axis=0)
        old_rng = np.random.default_rng([SEED, 1])
        new_rng = np.random.default_rng([SEED, 2])
        old = np.stack(
            [
                _cohort_matrix_departures(
                    matrix, k, policy, old_rng, self.HOT_FRAC
                )
                for _ in range(self.REPS)
            ]
        )
        new = np.empty_like(old)
        for r in range(self.REPS):
            state = ResidentState.for_policy(loads.size, policy)
            state.add_cohort(0, loads)
            new[r] = state.depart(k, policy, new_rng, hot_frac=self.HOT_FRAC)
        assert np.all(new.sum(axis=1) == k)
        # The hottest bin, the two bins either side of the hot-set
        # boundary (4 of 16 bins at HOT_FRAC), the coldest bin, and
        # the per-draw maximum.
        order = np.argsort(-loads, kind="stable")
        columns = {
            f"bin{b}": (old[:, b], new[:, b])
            for b in order[[0, 3, 4, loads.size - 1]]
        }
        columns["max"] = (old.max(axis=1), new.max(axis=1))
        for name, (a, b) in columns.items():
            ks = scipy_stats.ks_2samp(a, b)
            # Observed: every p-value >= 0.39.  Multinomial (with
            # replacement) departures at k=350 drive bin 7's p to
            # ~1e-7, and a hot set one bin too wide to ~1e-78.
            assert ks.pvalue > 1e-3, (policy, k, name, ks)
            assert abs(a.mean() - b.mean()) <= 5 * math.sqrt(
                (a.var() + b.var()) / self.REPS
            ) + 1e-9, (policy, k, name)
