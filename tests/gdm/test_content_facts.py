"""The per-content fact memo of :class:`Dataset` (row digest, shards).

Facts are computed once per dataset content: shared with ``with_name``
clones (which share the samples), replaced by ``add_sample`` on the
dataset that changed only, and never pickled.
"""

import copy
import hashlib
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdm import Dataset, FLOAT, Metadata, RegionSchema, Sample, region
from repro.gdm.digest import results_digest


def _dataset(name="D"):
    schema = RegionSchema.of(("score", FLOAT))
    return Dataset(name, schema, [
        Sample(1, [region("chr1", 0, 10, "+", 1.0),
                   region("chr2", 5, 15, "*", 2.0)], Metadata({"k": "a"})),
        Sample(2, [region("chr1", 3, 9, "-", None)], Metadata({"k": "b"})),
    ])


def _streamed(dataset):
    """The row digest recomputed from scratch, independent of the memo."""
    h = hashlib.blake2b(digest_size=16)
    for row in dataset.region_rows():
        h.update(repr(row).encode())
    return h.hexdigest()


@pytest.fixture()
def walks(monkeypatch):
    """Count row walks of the two memoised facts."""
    counts = {"rows": 0, "shards": 0}
    region_rows = Dataset.region_rows
    walk_shards = Dataset._walk_shards

    def counting_rows(self):
        counts["rows"] += 1
        return region_rows(self)

    def counting_shards(self):
        counts["shards"] += 1
        return walk_shards(self)

    monkeypatch.setattr(Dataset, "region_rows", counting_rows)
    monkeypatch.setattr(Dataset, "_walk_shards", counting_shards)
    return counts


class TestMemo:
    def test_facts_are_computed_once(self, walks):
        data = _dataset()
        assert data.row_digest() == data.row_digest() == _streamed(data)
        assert data.shard_summary() == data.shard_summary()
        assert walks == {"rows": 2, "shards": 1}  # one is _streamed's

    def test_with_name_clone_shares_the_memo(self, walks):
        parent = _dataset()
        digest = parent.row_digest()
        summary = parent.shard_summary()
        clone = parent.with_name("C")
        assert clone.row_digest() == digest
        assert clone.shard_summary() == summary
        # And the other way round: a clone's fact serves its parent.
        source = _dataset()
        source.with_name("C").row_digest()
        assert source.row_digest() == digest
        assert walks == {"rows": 2, "shards": 1}

    @pytest.mark.parametrize("changed", ["parent", "clone"])
    def test_add_sample_invalidates_only_its_own_memo(self, walks, changed):
        parent = _dataset()
        clone = parent.with_name("C")
        before = (parent.row_digest(), parent.shard_summary())
        target, untouched = (
            (parent, clone) if changed == "parent" else (clone, parent)
        )
        target.add_sample(Sample(3, [region("chr3", 1, 2, "*", 3.0)]))
        assert (untouched.row_digest(), untouched.shard_summary()) == before
        assert walks == {"rows": 1, "shards": 1}
        assert target.row_digest() == _streamed(target) != before[0]
        assert "chr3" in target.shard_summary()["chroms"]
        assert walks == {"rows": 3, "shards": 2}

    def test_pickle_drops_the_memo_and_recomputes(self, walks):
        data = _dataset()
        digest = data.row_digest()
        summary = data.shard_summary()
        revived = pickle.loads(pickle.dumps(data))
        assert "_facts" not in data.__getstate__()
        assert revived.row_digest() == digest
        assert revived.shard_summary() == summary
        assert walks == {"rows": 2, "shards": 2}

    def test_shard_summary_returns_a_fresh_copy(self):
        data = _dataset()
        first = data.shard_summary()
        expected = copy.deepcopy(first)
        first["clustered"] = not first["clustered"]
        first["chroms"]["chr1"][0] += 100
        first["chroms"]["chrX"] = [1, 1, 1]
        assert data.shard_summary() == expected
        assert data.summary()["shards"] == expected


def test_concurrent_clones_agree_on_facts():
    """Server slot threads digest renamed clones of one cached result at
    once; racing fills of the shared memo must all yield one value."""
    data = _dataset()
    reference = (_streamed(data), copy.deepcopy(data).shard_summary())
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker(index):
            for round_ in range(200):
                if round_ % 50 == 0:
                    data._facts = {}  # as a fresh result would arrive
                clone = data.with_name(f"T{index}")
                seen.append((clone.row_digest(), clone.shard_summary()))

        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(worker, i) for i in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8 * 200
    assert all(fact == reference for fact in seen)


@st.composite
def datasets(draw):
    samples = []
    for sample_id in range(1, draw(st.integers(1, 3)) + 1):
        regions = []
        for __ in range(draw(st.integers(0, 12))):
            left = draw(st.integers(0, 500))
            regions.append(region(
                draw(st.sampled_from(["chr1", "chr2", "chrX"])),
                left, left + draw(st.integers(1, 50)),
                draw(st.sampled_from(["+", "-", "*"])),
                draw(st.one_of(st.none(), st.floats(allow_nan=False))),
            ))
        samples.append(Sample(sample_id, regions))
    return Dataset("D", RegionSchema.of(("score", FLOAT)), samples,
                   validate=False)


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_memoised_digest_matches_a_fresh_recompute(data):
    memoised = data.row_digest()
    assert data.row_digest() == memoised
    assert memoised == _streamed(copy.deepcopy(data))


class TestResultsDigest:
    def test_definition(self):
        data = _dataset()
        h = hashlib.blake2b(digest_size=16)
        for name in ("A", "B"):
            h.update(f"{name}\0{_streamed(data)}".encode())
        results = {"B": data.with_name("B"), "A": data.with_name("A")}
        assert results_digest(results) == h.hexdigest()

    def test_name_and_row_sensitive(self):
        data = _dataset()
        base = results_digest({"A": data})
        assert results_digest({"B": data}) != base
        changed = data.with_name("D")
        changed.add_sample(Sample(3, [region("chr1", 0, 1, "*", 0.0)]))
        assert results_digest({"A": changed}) != base
        assert results_digest({"A": _dataset()}) == base
