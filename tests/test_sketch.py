"""Tests for the mergeable quantile sketch (exactness, merging, error bounds)."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.sketch import QuantileDigest, merge_digest_dicts
from repro.metrics.stats import percentile

FRACTIONS = (0.0, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0)


def digest_of(values, **kwargs) -> QuantileDigest:
    digest = QuantileDigest(**kwargs)
    digest.add_many(values)
    return digest


def uniform_samples(n, seed=7):
    rng = random.Random(seed)
    return [rng.uniform(1e-6, 5e-3) for _ in range(n)]


def lognormal_samples(n, seed=11):
    rng = random.Random(seed)
    return [rng.lognormvariate(-9.0, 1.0) for _ in range(n)]


class TestExactMode:
    def test_small_samples_are_bit_exact(self):
        values = uniform_samples(500)
        digest = digest_of(values)
        assert digest.is_exact
        for fraction in FRACTIONS:
            assert digest.percentile(fraction) == percentile(values, fraction)

    def test_accounting(self):
        values = [3.0, 1.0, 2.0]
        digest = digest_of(values)
        assert digest.count == len(digest) == 3
        assert digest.sum == pytest.approx(6.0)
        assert digest.mean == pytest.approx(2.0)
        assert digest.min == 1.0
        assert digest.max == 3.0

    def test_zeros_are_ranked(self):
        digest = digest_of([0.0, 0.0, 1.0, 2.0])
        assert digest.percentile(0.0) == 0.0
        assert digest.percentile(1.0) == 2.0
        assert digest.percentile(0.5) == percentile([0.0, 0.0, 1.0, 2.0], 0.5)

    def test_empty_digest_is_falsy_and_rejects_queries(self):
        digest = QuantileDigest()
        assert not digest
        with pytest.raises(ValueError):
            digest.percentile(0.5)
        with pytest.raises(ValueError):
            digest.mean

    def test_invalid_samples_rejected(self):
        digest = QuantileDigest()
        with pytest.raises(ValueError):
            digest.add(-1.0)
        with pytest.raises(ValueError):
            digest.add(float("nan"))
        with pytest.raises(ValueError):
            digest.add(float("inf"))

    def test_invalid_fraction_rejected(self):
        digest = digest_of([1.0])
        with pytest.raises(ValueError):
            digest.percentile(1.5)


#: One step on a digest: absorb a sample, merge a digest of samples,
#: condense, or replace the digest by its copy or its round trip.
_SAMPLE = st.one_of(st.just(0.0), st.floats(1e-9, 1e3))
_DIGEST_STEP = st.one_of(
    st.tuples(st.just("add"), _SAMPLE),
    st.tuples(st.just("merge"), st.lists(_SAMPLE, max_size=6)),
    st.tuples(st.sampled_from(["condense", "copy", "from_dict"]), st.none()),
)


class TestSortedSamples:
    """Exact mode sorts its samples once per set of them: a percentile
    asked after any step reads the samples as they are after it."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_DIGEST_STEP, max_size=25))
    def test_every_percentile_after_every_step_is_the_exact_rule(self, steps):
        digest, samples = QuantileDigest(max_exact=16), []
        for op, arg in steps:
            if op == "add":
                digest.add(arg)
                samples.append(arg)
            elif op == "merge":
                digest.merge(digest_of(arg, max_exact=16))
                samples.extend(arg)
            elif op == "condense":
                if digest.is_exact:
                    digest._condense()
            elif op == "copy":
                digest = digest.copy()
            else:
                digest = QuantileDigest.from_dict(digest.to_dict())
            if not samples:
                continue
            for fraction in FRACTIONS:
                if digest.is_exact:
                    assert digest.percentile(fraction) == percentile(samples, fraction)
                else:
                    fresh = QuantileDigest.from_dict(digest.to_dict())
                    assert digest.percentile(fraction) == fresh.percentile(fraction)

    def test_a_tail_cdf_sorts_once(self, monkeypatch):
        import repro.metrics.sketch as sketch

        digest = digest_of(uniform_samples(1000))
        calls = []
        monkeypatch.setattr(sketch, "sorted", lambda values: calls.append(1) or sorted(values),
                            raising=False)
        points = digest.tail_cdf(0.0, 1000)
        assert calls == [1]
        values = uniform_samples(1000)
        assert points == [(percentile(values, fraction), fraction) for _, fraction in points]
        digest.add(1.0)
        digest.tail_cdf()
        assert calls == [1, 1]


class TestBucketMode:
    def test_condenses_past_max_exact(self):
        digest = digest_of(uniform_samples(50), max_exact=10)
        assert not digest.is_exact
        assert digest.count == 50

    @pytest.mark.parametrize(
        "samples", [uniform_samples(5000), lognormal_samples(5000)],
        ids=["uniform", "lognormal"],
    )
    def test_percentile_error_within_documented_bound(self, samples):
        digest = digest_of(samples, max_exact=100)
        assert not digest.is_exact
        for fraction in (0.10, 0.50, 0.90, 0.99, 0.999):
            exact = percentile(samples, fraction)
            approx = digest.percentile(fraction)
            # Documented: within relative_error (1%) of a bracketing order
            # statistic; the small extra slack covers the gap between
            # adjacent order statistics at 5k samples.
            assert approx == pytest.approx(exact, rel=0.02)

    def test_point_mass(self):
        digest = digest_of([4.2e-4] * 3000, max_exact=100)
        assert not digest.is_exact
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert digest.percentile(fraction) == pytest.approx(
                4.2e-4, rel=digest.relative_error
            )

    def test_percentiles_clamped_to_observed_range(self):
        samples = uniform_samples(2000)
        digest = digest_of(samples, max_exact=10)
        assert min(samples) <= digest.percentile(0.0)
        assert digest.percentile(1.0) <= max(samples)

    def test_zeros_in_bucket_mode(self):
        digest = digest_of([0.0] * 900 + [1.0] * 100, max_exact=10)
        assert digest.percentile(0.5) == 0.0
        assert digest.percentile(0.95) == pytest.approx(1.0, rel=digest.relative_error)

    def test_tail_cdf_monotone(self):
        digest = digest_of(lognormal_samples(3000), max_exact=100)
        cdf = digest.tail_cdf(0.90, points=20)
        values = [value for value, _ in cdf]
        fractions = [fraction for _, fraction in cdf]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[0] == pytest.approx(0.90)


class TestMerge:
    def test_commutative_and_associative_to_serialization(self):
        chunks = [uniform_samples(700, seed=s) for s in (1, 2, 3)]
        a, b, c = (digest_of(chunk) for chunk in chunks)

        def quantile_state(digest):
            # Everything except the running sum, whose low bits depend on
            # floating-point addition order.
            return {k: v for k, v in digest.to_dict().items() if k != "sum"}

        left = a.copy().merge(b).merge(c)
        right = a.copy().merge(b.copy().merge(c))
        swapped = c.copy().merge(a).merge(b)
        # Same multiset of samples -> identical quantile state, whatever the
        # merge order or grouping (the cache returns rows in any order).
        assert quantile_state(left) == quantile_state(right) == quantile_state(swapped)

        streamed = digest_of([v for chunk in chunks for v in chunk])
        assert quantile_state(left) == quantile_state(streamed)
        assert left.sum == pytest.approx(streamed.sum)
        for fraction in FRACTIONS:
            assert left.percentile(fraction) == streamed.percentile(fraction)

    def test_merge_matches_pooled_distribution(self):
        first, second = uniform_samples(800, seed=4), lognormal_samples(800, seed=5)
        merged = digest_of(first).merge(digest_of(second))
        pooled = first + second
        assert merged.count == len(pooled)
        assert merged.sum == pytest.approx(sum(pooled))
        for fraction in (0.5, 0.99):
            assert merged.percentile(fraction) == pytest.approx(
                percentile(pooled, fraction), rel=0.02
            )

    def test_exact_merges_stay_exact_until_ceiling(self):
        a = digest_of(uniform_samples(400, seed=1))
        b = digest_of(uniform_samples(400, seed=2))
        assert a.copy().merge(b).is_exact          # 800 <= 1024
        c = digest_of(uniform_samples(400, seed=3))
        assert not a.copy().merge(b).merge(c).is_exact  # 1200 > 1024

    def test_merge_leaves_other_untouched(self):
        a, b = digest_of([1.0, 2.0]), digest_of([3.0])
        before = b.to_dict()
        a.merge(b)
        assert b.to_dict() == before

    def test_mismatched_parameters_rejected(self):
        with pytest.raises(ValueError, match="different parameters"):
            QuantileDigest(relative_error=0.01).merge(QuantileDigest(relative_error=0.02))
        with pytest.raises(ValueError, match="different parameters"):
            QuantileDigest(max_exact=10).merge(QuantileDigest(max_exact=20))

    def test_merge_digest_dicts_skips_missing(self):
        payloads = [None, digest_of([1.0, 2.0]).to_dict(), None, digest_of([3.0]).to_dict()]
        merged = merge_digest_dicts(payloads)
        assert merged is not None and merged.count == 3
        assert merge_digest_dicts([None, None]) is None


class TestSerialization:
    @pytest.mark.parametrize("max_exact", [1024, 10], ids=["exact", "buckets"])
    def test_round_trip_through_json(self, max_exact):
        digest = digest_of(lognormal_samples(300), max_exact=max_exact)
        payload = json.loads(json.dumps(digest.to_dict()))
        clone = QuantileDigest.from_dict(payload)
        assert clone == digest
        for fraction in FRACTIONS:
            assert clone.percentile(fraction) == digest.percentile(fraction)

    def test_round_trip_preserves_mergeability(self):
        digest = digest_of(uniform_samples(200))
        clone = QuantileDigest.from_dict(digest.to_dict())
        assert clone.merge(digest).count == 400

    def test_malformed_payload_rejected(self):
        payload = digest_of([1.0]).to_dict()
        payload["buckets"] = [[0, 1]]  # both exact and buckets present
        with pytest.raises(ValueError, match="exactly one"):
            QuantileDigest.from_dict(payload)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            QuantileDigest(relative_error=0.0)
        with pytest.raises(ValueError):
            QuantileDigest(max_exact=-1)
