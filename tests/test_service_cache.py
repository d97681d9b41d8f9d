"""Unit tests for the content-addressed result cache."""

import gc
import hashlib
import json
import os
import random
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.config import PipelineConfig, SAPSConfig
from repro.exceptions import ConfigurationError
from repro.inference import RankingPipeline
from repro.io import (
    EncodedResult,
    load_result,
    result_from_payload,
    result_to_payload,
)
from repro.service import (
    CACHE_ENTRY_SCHEMA,
    RankingJob,
    ResultCache,
    ScenarioSpec,
    fingerprint_job,
    job_from_payload,
    job_to_payload,
)
from repro.service.cache import BoundedLRU, _fits_one_key, sorted_vote_columns
from repro.service.jobs import config_to_payload
from repro.types import InferenceResult, Ranking, Vote, VoteSet


def _result(order):
    return InferenceResult(ranking=Ranking(order), log_preference=-1.0,
                           step_seconds={"search": 0.5})


class TestFingerprint:
    def test_same_content_same_key(self, tiny_votes):
        a = RankingJob(job_id="a", votes=tiny_votes, seed=5)
        b = RankingJob(job_id="totally-different-id", votes=tiny_votes, seed=5)
        assert fingerprint_job(a) == fingerprint_job(b)

    def test_vote_order_is_canonicalised(self):
        votes = [Vote(0, 0, 1), Vote(1, 1, 2), Vote(2, 0, 2)]
        fwd = VoteSet.from_votes(3, votes)
        rev = VoteSet.from_votes(3, list(reversed(votes)))
        assert (fingerprint_job(RankingJob(job_id="a", votes=fwd, seed=1))
                == fingerprint_job(RankingJob(job_id="b", votes=rev, seed=1)))

    def test_seed_and_config_are_significant(self, tiny_votes):
        base = RankingJob(job_id="a", votes=tiny_votes, seed=1)
        other_seed = RankingJob(job_id="a", votes=tiny_votes, seed=2)
        other_config = RankingJob(
            job_id="a", votes=tiny_votes, seed=1,
            config=PipelineConfig(saps=SAPSConfig(iterations=5)),
        )
        keys = {fingerprint_job(base), fingerprint_job(other_seed),
                fingerprint_job(other_config)}
        assert len(keys) == 3

    def test_scenario_jobs_fingerprint_by_spec(self):
        a = RankingJob(job_id="a", scenario=ScenarioSpec(10, 0.5), seed=1)
        b = RankingJob(job_id="b", scenario=ScenarioSpec(10, 0.5), seed=1)
        c = RankingJob(job_id="c", scenario=ScenarioSpec(11, 0.5), seed=1)
        assert fingerprint_job(a) == fingerprint_job(b)
        assert fingerprint_job(a) != fingerprint_job(c)

    def test_unseeded_jobs_never_collide(self, tiny_votes):
        job = RankingJob(job_id="a", votes=tiny_votes)
        assert fingerprint_job(job) != fingerprint_job(job)


@st.composite
def _vote_jobs(draw):
    """A seeded vote job with at least one vote (hypothesis strategy)."""
    n_objects = draw(st.integers(2, 7))
    obj = st.integers(0, n_objects - 1)
    rows = draw(st.lists(
        st.tuples(st.integers(0, 2**40), obj, obj).filter(
            lambda row: row[1] != row[2]),
        min_size=1, max_size=25,
    ))
    votes = VoteSet.from_votes(n_objects, [Vote(*row) for row in rows])
    seed = draw(st.integers(0, 2**31))
    return RankingJob(job_id="p", votes=votes, seed=seed)


def _with_votes(job, n_objects, rows):
    return RankingJob(job_id=job.job_id, seed=job.seed, config=job.config,
                      votes=VoteSet.from_votes(
                          n_objects, [Vote(*row) for row in rows]))


def _rows(job):
    return [(v.worker, v.winner, v.loser) for v in job.votes]


def _shuffled_dict(value, rng):
    """``value`` with every nested dict's keys in a random order."""
    if not isinstance(value, dict):
        return value
    keys = list(value)
    rng.shuffle(keys)
    return {key: _shuffled_dict(value[key], rng) for key in keys}


def _pin_rows(count, n_objects, workers):
    """``count`` distinct-looking vote rows from a fixed formula (no
    RNG, so the rows cannot drift with a library version)."""
    rows = []
    for k in range(count):
        winner = (k * 104729) % n_objects
        loser = (winner + 1 + (k * 7919) % (n_objects - 1)) % n_objects
        rows.append((workers[k % len(workers)], winner, loser))
    return rows


def _pin_job(n_objects, rows, config, seed):
    worker, winner, loser = zip(*rows)
    return RankingJob(job_id="pin", seed=seed, config=config,
                      votes=VoteSet.from_columns(n_objects, worker, winner,
                                                 loser))


_PIN_BASE = _pin_rows(2500, 1000, list(range(50)))

#: Jobs whose cache keys are pinned, and whether their rows fit the
#: one-key sort.
PINNED_JOBS = {
    "small": (lambda: _pin_job(
        5, _pin_rows(12, 5, [0, 1, 2]), PipelineConfig(), 7), True),
    "n1000_duplicates": (lambda: _pin_job(
        1000, _PIN_BASE + _PIN_BASE[:700],
        PipelineConfig(engine="hodge"), 3), True),
    "negative_workers": (lambda: _pin_job(
        20, _pin_rows(300, 20, list(range(-40, 40, 3))),
        PipelineConfig(), 11), True),
    "workers_near_2_62": (lambda: _pin_job(
        1000, _pin_rows(400, 1000, [-2**62, 2**62, -(2**62) + 1, 5]),
        PipelineConfig(engine="lsq"), 5), False),
}

#: Their keys under ``repro.fp/3``.  Every spill file is named by such a
#: key: a different digest here means every persisted cache entry would
#: silently miss.
PINNED_DIGESTS = {
    "small":
        "12dc0180ec87850c49e09ea8c49cf611dfb2ae84ca2b0300ecec1f12c377a96f",
    "n1000_duplicates":
        "b827c543687f62d81ff090167c3458f569339f6fca3a2b554be4965378f0f954",
    "negative_workers":
        "913a4efd9cb0886ff7ea5d3a5a66014b37b1ac66ca2c7ecfaf0b43ceb6ac6f37",
    "workers_near_2_62":
        "cfd3af6f46be14464abf00f891fc6644f0c5c6bad64cd639cb18f4d5c8ff53d6",
}


@st.composite
def _vote_sets(draw):
    """Vote sets across both sort paths: small and huge ``n``, worker
    ids from small to the ends of int64."""
    n_objects = draw(st.one_of(st.integers(2, 40), st.integers(2, 2**33)))
    obj = st.integers(0, n_objects - 1)
    worker = st.one_of(
        st.integers(-50, 50),
        st.sampled_from([-2**63, -2**62, 2**62, 2**63 - 1]),
        st.integers(-2**63, 2**63 - 1),
    )
    rows = draw(st.lists(
        st.tuples(worker, obj, obj).filter(lambda row: row[1] != row[2]),
        max_size=30,
    ))
    if rows:  # some repeated rows
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    return VoteSet.from_columns(n_objects, *columns)


class TestFingerprintPins:
    @pytest.mark.parametrize("name", sorted(PINNED_JOBS))
    def test_cache_key_is_unchanged(self, name):
        build, one_key = PINNED_JOBS[name]
        job = build()
        votes = job.votes
        assert _fits_one_key(votes.worker, votes.winner, votes.loser,
                             votes.n_objects) is one_key
        assert fingerprint_job(job) == PINNED_DIGESTS[name]

    @settings(max_examples=200, deadline=None)
    @given(_vote_sets())
    def test_one_key_and_lexsort_paths_hash_the_same_bytes(self, votes):
        order = np.lexsort((votes.loser, votes.winner, votes.worker))
        expected = [column[order]
                    for column in (votes.worker, votes.winner, votes.loser)]
        got = sorted_vote_columns(votes)
        assert [column.astype("<i8").tobytes() for column in got] == \
            [column.astype("<i8").tobytes() for column in expected]


class TestFingerprintProperties:
    @settings(max_examples=60, deadline=None)
    @given(_vote_jobs(), st.randoms(use_true_random=False))
    def test_invariant_under_vote_permutation(self, job, rnd):
        rows = _rows(job)
        rnd.shuffle(rows)
        assert fingerprint_job(_with_votes(job, job.votes.n_objects, rows)) \
            == fingerprint_job(job)

    @settings(max_examples=30, deadline=None)
    @given(_vote_jobs(), st.integers(0, 2**32))
    def test_invariant_under_config_key_order(self, job, shuffle_seed):
        payload = job_to_payload(job)
        payload["config"] = _shuffled_dict(payload["config"],
                                           random.Random(shuffle_seed))
        assert fingerprint_job(job_from_payload(payload)) \
            == fingerprint_job(job)

    @settings(max_examples=60, deadline=None)
    @given(_vote_jobs(), st.data())
    def test_changes_with_any_single_vote(self, job, data):
        rows = _rows(job)
        n_objects = job.votes.n_objects
        index = data.draw(st.integers(0, len(rows) - 1))
        worker, winner, loser = rows[index]
        edits = [(worker + 1, winner, loser), (worker, loser, winner)]
        if n_objects > 2:
            other = next(o for o in range(n_objects)
                         if o not in (winner, loser))
            edits.append((worker, winner, other))
        key = fingerprint_job(job)
        for edit in edits:
            changed = rows[:index] + [edit] + rows[index + 1:]
            assert fingerprint_job(_with_votes(job, n_objects, changed)) != key
        dropped = rows[:index] + rows[index + 1:]
        assert fingerprint_job(_with_votes(job, n_objects, dropped)) != key

    @settings(max_examples=40, deadline=None)
    @given(_vote_jobs())
    def test_changes_with_seed_config_and_n_objects(self, job):
        key = fingerprint_job(job)
        other_seed = RankingJob(job_id="p", votes=job.votes,
                                seed=job.seed + 1)
        other_config = RankingJob(
            job_id="p", votes=job.votes, seed=job.seed,
            config=PipelineConfig(saps=SAPSConfig(iterations=5)))
        more_objects = _with_votes(job, job.votes.n_objects + 1, _rows(job))
        assert len({key, fingerprint_job(other_seed),
                    fingerprint_job(other_config),
                    fingerprint_job(more_objects)}) == 4

    @settings(max_examples=60, deadline=None)
    @given(_vote_jobs())
    def test_payload_round_trip(self, job):
        clone = job_from_payload(job_to_payload(job))
        assert clone == job
        assert config_to_payload(clone.config) == config_to_payload(job.config)
        assert fingerprint_job(clone) == fingerprint_job(job)

    def test_old_scheme_spill_files_are_misses(self, tiny_votes, tmp_path):
        """Keys are versioned (``repro.fp/3``): a spill file written
        under the old JSON-of-sorted-tuples key is never looked up, so
        it reads as a plain miss, never an error."""
        job = RankingJob(job_id="a", votes=tiny_votes, seed=5)
        material = {
            "config": config_to_payload(job.config),
            "seed": 5,
            "votes": {"n_objects": 4, "votes": sorted(_rows(job))},
        }
        old_key = hashlib.sha256(json.dumps(
            material, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")).hexdigest()
        ResultCache(persist_dir=tmp_path).put(old_key, _result([0, 1, 2, 3]))
        fresh = ResultCache(persist_dir=tmp_path)
        assert fingerprint_job(job) != old_key
        assert fresh.get(fingerprint_job(job)) is None
        assert fresh.stats()["misses"] == 1
        assert fresh.stats()["corrupt_dropped"] == 0


class TestResultCache:
    def test_put_get_round_trip(self):
        cache = ResultCache()
        cache.put("k1", _result([1, 0]))
        hit = cache.get("k1")
        assert hit is not None and hit.ranking == Ranking([1, 0])
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0

    def test_miss_counts(self):
        cache = ResultCache()
        assert cache.get("absent") is None
        assert cache.stats()["misses"] == 1
        assert cache.hit_rate == 0.0

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", _result([0, 1]))
        cache.put("b", _result([1, 0]))
        cache.get("a")                      # refresh a; b is now LRU
        cache.put("c", _result([0, 1]))    # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.stats()["evictions"] == 1

    def test_unseeded_keys_are_not_stored(self):
        cache = ResultCache()
        cache.put("unseeded/0", _result([0, 1]))
        assert len(cache) == 0
        assert cache.get("unseeded/0") is None

    def test_validates_capacity(self):
        with pytest.raises(ConfigurationError):
            ResultCache(max_entries=0)

    def test_get_entries_is_all_or_nothing(self):
        cache = ResultCache(max_entries=3)
        for key, order in (("a", [0, 1]), ("b", [1, 0]), ("c", [0, 1])):
            cache.put(key, _result(order))
        entries = cache.get_entries(["a", "b"])
        assert [entry.encoded.result.ranking for entry in entries] \
            == [Ranking([0, 1]), Ranking([1, 0])]
        assert cache.stats()["hits"] == 2
        # One absent key: nothing returned, counted or refreshed.
        assert cache.get_entries(["c", "absent"]) is None
        assert cache.get_entries(["c", "unseeded/0"]) is None
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (2, 0)
        cache.put("d", _result([1, 0]))     # c stayed least recent
        assert cache.get_entries(["c"]) is None
        assert cache.get_entries(["a", "b", "d"]) is not None

    def test_get_entries_does_not_read_the_spill(self, tmp_path):
        ResultCache(persist_dir=tmp_path).put("k", _result([1, 0]))
        fresh = ResultCache(persist_dir=tmp_path)
        assert fresh.get_entries(["k"]) is None
        assert fresh.stats()["disk_loads"] == 0
        assert fresh.get_entry("k") is not None
        assert fresh.get_entries(["k"]) is not None


class TestBoundedLRU:
    def test_evicts_the_least_recently_used_first(self):
        lru = BoundedLRU(2)
        assert lru.put("a", 1) == [] and lru.put("b", 2) == []
        assert lru.get("a") == 1            # b is now least recent
        assert lru.put("c", 3) == ["b"]
        assert (lru.get("b"), lru.get("a"), lru.get("c")) == (None, 1, 3)
        assert len(lru) == 2

    def test_peek_leaves_recency_alone(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.peek("a") == 1
        assert lru.put("c", 3) == ["a"]
        lru.clear()
        assert len(lru) == 0


class TestCachePersistence:
    def test_disk_round_trip_across_instances(self, tmp_path):
        first = ResultCache(persist_dir=tmp_path)
        first.put("deadbeef", _result([2, 0, 1]))
        assert (tmp_path / "deadbeef.json").exists()

        # A fresh cache (new process, conceptually) reloads from disk.
        second = ResultCache(persist_dir=tmp_path)
        hit = second.get("deadbeef")
        assert hit is not None
        assert hit.ranking == Ranking([2, 0, 1])
        assert hit.step_seconds == {"search": 0.5}
        assert second.stats()["disk_loads"] == 1

    def test_corrupt_spill_file_is_a_miss_not_a_crash(self, tmp_path):
        (tmp_path / "badkey.json").write_text("{not json at all")
        cache = ResultCache(persist_dir=tmp_path)
        assert cache.get("badkey") is None
        assert cache.stats()["misses"] == 1

    def test_corrupt_spill_file_is_deleted(self, tmp_path):
        """A corrupt file is dropped so the failed parse is paid once."""
        path = tmp_path / "badkey.json"
        path.write_text("{not json at all")
        cache = ResultCache(persist_dir=tmp_path)
        assert cache.get("badkey") is None
        assert not path.exists()
        assert cache.stats()["corrupt_dropped"] == 1
        # The slot is usable again: a fresh put re-creates a valid spill.
        cache.put("badkey", _result([1, 0]))
        assert path.exists()
        assert ResultCache(persist_dir=tmp_path).get("badkey") is not None

    def test_truncated_spill_file_is_deleted(self, tmp_path):
        intact = ResultCache(persist_dir=tmp_path)
        intact.put("key", _result([0, 1]))
        path = tmp_path / "key.json"
        path.write_text(path.read_text()[: 20])  # simulate a torn write
        fresh = ResultCache(persist_dir=tmp_path)
        assert fresh.get("key") is None
        assert not path.exists()
        assert fresh.stats()["corrupt_dropped"] == 1

    def test_missing_spill_file_is_not_counted_as_corrupt(self, tmp_path):
        cache = ResultCache(persist_dir=tmp_path)
        assert cache.get("never-stored") is None
        assert cache.stats()["corrupt_dropped"] == 0

    def test_wrong_schema_spill_file_is_a_miss(self, tmp_path):
        (tmp_path / "oldkey.json").write_text(
            '{"schema": "repro.inference_result/0", "ranking": [0, 1]}'
        )
        cache = ResultCache(persist_dir=tmp_path)
        assert cache.get("oldkey") is None

    def test_eviction_does_not_delete_spill_files(self, tmp_path):
        cache = ResultCache(max_entries=1, persist_dir=tmp_path)
        cache.put("k1", _result([0, 1]))
        cache.put("k2", _result([1, 0]))   # evicts k1 from memory
        assert cache.get("k1") is not None  # reloaded from disk


class TestSpillFormat:
    def test_entry_without_extras_spills_the_canonical_result(self, tmp_path):
        ResultCache(persist_dir=tmp_path).put("k", _result([1, 0]))
        raw = (tmp_path / "k.json").read_bytes()
        assert raw == json.dumps(result_to_payload(_result([1, 0])),
                                 sort_keys=True).encode() + b"\n"
        assert load_result(tmp_path / "k.json").ranking == Ranking([1, 0])

    def test_extras_survive_memory_and_spill_tiers(self, tmp_path):
        cache = ResultCache(persist_dir=tmp_path)
        cache.put("k", _result([1, 0]), {"accuracy": 0.75, "blob": object()})
        assert cache.get_entry("k").extras == {"accuracy": 0.75}
        raw = (tmp_path / "k.json").read_bytes()
        payload = json.loads(raw)
        assert payload["schema"] == CACHE_ENTRY_SCHEMA
        assert raw == json.dumps(payload, sort_keys=True).encode() + b"\n"
        entry = ResultCache(persist_dir=tmp_path).get_entry("k")
        assert entry.extras == {"accuracy": 0.75}
        assert entry.encoded.result.ranking == Ranking([1, 0])

    def test_malformed_extras_are_dropped_as_corrupt(self, tmp_path):
        (tmp_path / "k.json").write_text(json.dumps({
            "schema": CACHE_ENTRY_SCHEMA, "extras": [1],
            "result": result_to_payload(_result([0, 1])),
        }))
        cache = ResultCache(persist_dir=tmp_path)
        assert cache.get("k") is None
        assert cache.stats()["corrupt_dropped"] == 1


class TestSharedPersistDir:
    """Two cache instances over one ``persist_dir`` — the in-process
    simulation of two server processes sharing the spill tier."""

    def test_put_racing_get_converges(self, tmp_path):
        """Satellite: ``put`` in one instance racing ``get`` in another
        must never surface an error or a torn read, and both instances
        must converge on a readable entry."""
        writer_cache = ResultCache(persist_dir=tmp_path)
        reader_cache = ResultCache(persist_dir=tmp_path)
        result = _result([2, 0, 1])
        errors = []
        observed = []
        start = threading.Barrier(2, timeout=10.0)

        def writer():
            start.wait()
            for _ in range(150):
                writer_cache.put("contested", result)

        def reader():
            start.wait()
            for _ in range(150):
                try:
                    hit = reader_cache.get("contested")
                except Exception as error:  # noqa: BLE001 — the assertion
                    errors.append(error)
                    return
                if hit is not None:
                    observed.append(hit.ranking)
                    # Disk hits re-warm memory; drop so every loop
                    # exercises the cross-instance disk path again.
                    reader_cache.clear()

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert all(ranking == result.ranking for ranking in observed)
        # Convergence: both instances now see the entry.
        assert writer_cache.get("contested").ranking == result.ranking
        assert reader_cache.get("contested").ranking == result.ranking
        assert reader_cache.stats()["corrupt_dropped"] == 0
        assert writer_cache.stats()["corrupt_dropped"] == 0

    def test_racing_corrupt_drops_count_once(self, tmp_path):
        """Two readers hitting the same corrupt file: exactly one drop
        is counted across both instances, never two."""
        for trial in range(10):
            path = tmp_path / f"bad{trial}.json"
            path.write_text("{definitely not json")
            caches = [ResultCache(persist_dir=tmp_path) for _ in range(2)]
            start = threading.Barrier(2, timeout=10.0)
            outcomes = []

            def lookup(cache, key=f"bad{trial}"):
                start.wait()
                outcomes.append(cache.get(key))

            threads = [threading.Thread(target=lookup, args=(cache,))
                       for cache in caches]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert outcomes == [None, None]
            assert not path.exists()
            dropped = sum(c.stats()["corrupt_dropped"] for c in caches)
            assert dropped == 1, f"trial {trial}: counted {dropped} drops"

    def test_drop_never_unlinks_a_fresh_replacement(self, tmp_path):
        """If a writer republishes the entry between a reader's failed
        decode and its unlink, the fresh (good) file must survive."""
        cache = ResultCache(persist_dir=tmp_path)
        path = tmp_path / "contended.json"
        path.write_text("{torn gibberish")
        stale_stat = os.stat(path)  # what the failing reader read
        # A peer writer atomically replaces the entry with a good one
        # (new inode, by construction of the atomic write).
        cache.put("contended", _result([1, 0]))
        assert os.stat(path).st_ino != stale_stat.st_ino
        cache._drop_corrupt(path, stale_stat, ValueError("stale decode"))
        assert path.exists()
        assert cache.stats()["corrupt_dropped"] == 0
        assert ResultCache(persist_dir=tmp_path).get("contended") is not None

    def test_persisted_keys_tracks_puts_in_order(self, tmp_path):
        cache = ResultCache(persist_dir=tmp_path)
        cache.put("k1", _result([0, 1]))
        cache.put("k2", _result([1, 0]))
        cache.put("k1", _result([0, 1]))
        assert cache.persisted_keys() == ["k2", "k1"]
        # Another instance sees the same journal.
        assert ResultCache(persist_dir=tmp_path).persisted_keys() == \
            ["k2", "k1"]

    def test_persisted_keys_repairs_index_from_directory(self, tmp_path):
        from repro.io import save_result

        save_result(_result([0, 1]), tmp_path / "legacy.json")
        cache = ResultCache(persist_dir=tmp_path)
        assert cache.persisted_keys() == ["legacy"]
        assert cache.get("legacy") is not None

    def test_warm_preloads_without_counting_lookups(self, tmp_path):
        first = ResultCache(persist_dir=tmp_path)
        for index in range(3):
            first.put(f"k{index}", _result([0, 1]))
        second = ResultCache(persist_dir=tmp_path)
        assert second.warm() == 3
        assert len(second) == 3
        stats = second.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["disk_loads"] == 0
        # Warmed entries now hit the memory tier, not the disk.
        assert second.get("k2") is not None
        assert second.stats()["disk_loads"] == 0

    def test_warm_respects_limit_newest_first(self, tmp_path):
        first = ResultCache(persist_dir=tmp_path)
        for index in range(4):
            first.put(f"k{index}", _result([0, 1]))
        second = ResultCache(persist_dir=tmp_path)
        assert second.warm(limit=2) == 2
        assert len(second) == 2
        assert second.get("k3") is not None  # newest survived the cut
        assert second.stats()["disk_loads"] == 0

    def test_warm_without_persist_dir_is_a_noop(self):
        assert ResultCache().warm() == 0

    def test_max_spill_files_prunes_oldest(self, tmp_path):
        cache = ResultCache(persist_dir=tmp_path, max_spill_files=2)
        for index in range(3):
            cache.put(f"k{index}", _result([0, 1]))
        assert cache.persisted_keys() == ["k1", "k2"]
        assert not (tmp_path / "k0.json").exists()
        # The pruned entry is a clean miss for a fresh instance.
        fresh = ResultCache(persist_dir=tmp_path)
        assert fresh.get("k0") is None
        assert fresh.stats()["corrupt_dropped"] == 0

    def test_max_spill_files_validation(self, tmp_path):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ResultCache(persist_dir=tmp_path, max_spill_files=0)
        with pytest.raises(ConfigurationError):
            ResultCache(max_spill_files=4)


def _hodge_result(seed, n=1000, pairs=5000, per_pair=5):
    """A sparse HodgeRank result at n=1000 from random crowd votes."""
    rng = np.random.default_rng(seed)
    path = rng.permutation(n)
    lo = np.concatenate([path[:-1], rng.integers(0, n, pairs)])
    hi = np.concatenate([path[1:], rng.integers(0, n, pairs)])
    keep = lo != hi
    lo, hi = np.repeat(lo[keep], per_pair), np.repeat(hi[keep], per_pair)
    flip = rng.random(lo.size) < 0.3
    votes = VoteSet.from_columns(n, rng.integers(0, 50, lo.size),
                                 np.where(flip, hi, lo),
                                 np.where(flip, lo, hi))
    return RankingPipeline(PipelineConfig(engine="hodge")).run(votes, rng)


class TestMemoryPerEntry:
    def test_entries_cost_about_their_encoded_size(self):
        """A decoded n=1000 result is several times its encoding; the
        memory tier must keep only the encoding, or a server's RSS grows
        with every cold request it caches."""
        encodings = [EncodedResult(_hodge_result(seed)).result_json
                     for seed in range(20)]
        encoded_bytes = sum(map(len, encodings))
        cache = ResultCache()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index, raw in enumerate(encodings):
                # A fresh object graph, as inference would have built it.
                result = result_from_payload(json.loads(raw))
                cache.put(f"k{index}", result)
                del result
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 20
        assert grown < 2 * encoded_bytes, (grown, encoded_bytes)
