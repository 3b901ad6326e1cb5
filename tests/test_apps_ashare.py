"""Tests for AShare, the file sharing service."""

import pytest

from repro.apps.ashare import AShareCluster, FileRecord, MetadataIndex, chunk_digest
from repro.apps.transfer import TransferModel
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters

MB = 1024 * 1024


def small_params():
    return AtumParameters(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)


def make_ashare(n=18, byzantine=(), rho=3, feedback=True, seed=0):
    atum = AtumCluster(small_params(), seed=seed)
    addresses = [f"n{i}" for i in range(n)]
    atum.build_static(addresses, byzantine=byzantine)
    share = AShareCluster(atum, rho=rho, replication_feedback=feedback)
    return atum, share, addresses


class TestMetadataIndex:
    def _record(self, owner="alice", name="movie", replicas=()):
        return FileRecord(
            owner=owner,
            name=name,
            size_bytes=10 * MB,
            num_chunks=10,
            chunk_digests=tuple(chunk_digest(owner, name, i) for i in range(10)),
            replicas=set(replicas),
        )

    def test_put_get_delete(self):
        index = MetadataIndex()
        index.put(self._record())
        assert index.get("alice", "movie") is not None
        index.delete("alice", "movie")
        assert index.get("alice", "movie") is None

    def test_replica_tracking(self):
        index = MetadataIndex()
        index.put(self._record(replicas=["alice"]))
        index.add_replica("alice", "movie", "bob")
        assert index.replica_count("alice", "movie") == 2

    def test_search_matches_owner_and_name(self):
        index = MetadataIndex()
        index.put(self._record(owner="alice", name="holiday-video"))
        index.put(self._record(owner="bob", name="report"))
        assert len(index.search("holiday")) == 1
        assert len(index.search("ALICE")) == 1
        assert len(index.search("nothing")) == 0

    def test_chunk_sizes_sum_to_file_size(self):
        record = self._record()
        assert sum(record.chunk_sizes()) == record.size_bytes
        assert len(record.chunk_sizes()) == record.num_chunks

    def test_corrupted_digest_differs(self):
        assert chunk_digest("a", "f", 0) != chunk_digest("a", "f", 0, corrupted=True)


class TestTransferModel:
    def test_single_stream_latency_per_mb_decreases_with_size(self):
        model = TransferModel()
        small = model.latency_per_mb(model.single_stream_time(2 * MB), 2 * MB)
        large = model.latency_per_mb(model.single_stream_time(1024 * MB), 1024 * MB)
        assert large < small

    def test_parallel_chunked_read_faster_for_large_files(self):
        model = TransferModel()
        chunks = [64 * MB] * 10
        serial = model.chunked_read_time(chunks, parallel_connections=1)
        parallel = model.chunked_read_time(chunks, parallel_connections=2)
        assert parallel < serial

    def test_parallelism_capped_by_downlink(self):
        # With digest verification disabled, the transfer itself is bounded by
        # the reader's downlink: once it saturates (2 connections at 4 MB/s on
        # an 8 MB/s downlink), adding connections cannot speed up the read.
        model = TransferModel(
            per_connection_bandwidth=4_000_000,
            downlink_bandwidth=8_000_000,
            verify_digests=False,
        )
        chunks = [64 * MB] * 8
        two = model.chunked_read_time(chunks, parallel_connections=2)
        eight = model.chunked_read_time(chunks, parallel_connections=8)
        assert eight == pytest.approx(two, rel=0.05)

    def test_corrupted_chunks_add_retry_time(self):
        model = TransferModel()
        chunks = [1 * MB] * 10
        clean = model.chunked_read_time(chunks, parallel_connections=5)
        corrupted = model.chunked_read_time(chunks, parallel_connections=5, corrupted_chunks=5)
        assert corrupted > clean

    def test_empty_chunk_list(self):
        assert TransferModel().chunked_read_time([], 4) == 0.0


class TestPutGetSearch:
    def test_put_propagates_metadata_to_all_nodes(self):
        atum, share, addresses = make_ashare(feedback=False)
        share.put("n0", "dataset", size_bytes=20 * MB, num_chunks=10)
        atum.run(until=60.0)
        for address in addresses:
            record = share.indexes[address].get("n0", "dataset")
            assert record is not None
            assert record.num_chunks == 10

    def test_get_returns_latency_and_records_metric(self):
        atum, share, addresses = make_ashare(feedback=False)
        share.put("n0", "dataset", size_bytes=20 * MB, num_chunks=10)
        atum.run(until=60.0)
        latency = share.get("n5", "n0", "dataset")
        assert latency is not None and latency > 0
        assert atum.sim.metrics.histogram("ashare.get_latency").count == 1

    def test_get_unknown_file_returns_none(self):
        atum, share, addresses = make_ashare(feedback=False)
        assert share.get("n1", "n0", "ghost") is None

    def test_search_finds_files_by_substring(self):
        atum, share, addresses = make_ashare(feedback=False)
        share.put("n0", "vacation-photos", size_bytes=5 * MB, num_chunks=5)
        share.put("n1", "tax-report", size_bytes=1 * MB, num_chunks=1)
        atum.run(until=60.0)
        results = share.search("n7", "vacation")
        assert len(results) == 1 and results[0].owner == "n0"

    def test_delete_removes_metadata_everywhere(self):
        atum, share, addresses = make_ashare(feedback=False)
        share.put("n0", "temp", size_bytes=2 * MB, num_chunks=2)
        atum.run(until=60.0)
        share.delete("n0", "temp")
        atum.run(until=120.0)
        assert all(share.indexes[a].get("n0", "temp") is None for a in addresses)

    def test_replication_feedback_reaches_rho_replicas(self):
        atum, share, addresses = make_ashare(n=15, rho=4, feedback=True)
        share.put("n0", "popular", size_bytes=5 * MB, num_chunks=5)
        atum.run(until=400.0)
        count = share.replica_count("n0", "popular", as_seen_by="n3")
        assert count >= 4

    def test_seed_replicas_helper(self):
        atum, share, addresses = make_ashare(feedback=False)
        share.put("n0", "seeded", size_bytes=10 * MB, num_chunks=10)
        atum.run(until=60.0)
        share.seed_replicas("n0", "seeded", ["n1", "n2", "n3"])
        assert share.replica_count("n0", "seeded", as_seen_by="n9") == 4

    def test_seed_replicas_without_put_raises(self):
        atum, share, addresses = make_ashare(feedback=False)
        with pytest.raises(KeyError):
            share.seed_replicas("n0", "never-put", ["n1"])


class TestByzantineReplicas:
    def test_corrupted_replicas_slow_down_reads(self):
        # Byzantine holders corrupt their replicas; the read re-pulls those
        # chunks from correct replicas, increasing latency (Figures 10-11).
        atum, share, addresses = make_ashare(n=20, byzantine=["n1", "n2"], feedback=False, seed=3)
        share.put("n0", "data", size_bytes=10 * MB, num_chunks=10)
        atum.run(until=60.0)
        share.seed_replicas("n0", "data", ["n3", "n4"])
        clean_latency = share.get("n10", "n0", "data")

        share.put("n0", "poisoned", size_bytes=10 * MB, num_chunks=10)
        atum.run(until=atum.sim.now + 60.0)
        share.seed_replicas("n0", "poisoned", ["n1", "n2"])  # corrupted holders
        dirty_latency = share.get("n10", "n0", "poisoned")
        assert dirty_latency > clean_latency

    def test_ideal_configuration_chunks_equal_replicas(self):
        # With as many replicas as chunks, corruption of a minority costs less
        # than with few replicas (the balance discussed in section 6.2).
        atum, share, addresses = make_ashare(n=24, byzantine=["n1"], feedback=False, seed=4)
        share.put("n0", "file", size_bytes=10 * MB, num_chunks=10)
        atum.run(until=60.0)
        share.seed_replicas("n0", "file", ["n1", "n2"])
        few_replicas = share.get("n20", "n0", "file")
        share.seed_replicas("n0", "file", [f"n{i}" for i in range(2, 12)])
        many_replicas = share.get("n20", "n0", "file")
        assert many_replicas <= few_replicas


class TestReplayedState:
    """AShare state is a pure function of the delivered broadcast prefix."""

    def build(self, seed=0):
        atum, share, addresses = make_ashare(feedback=False, seed=seed)
        share.put("n0", "dataset", size_bytes=20 * MB, num_chunks=10)
        share.put("n1", "movie", size_bytes=10 * MB, num_chunks=5)
        share.put("n2", "scratch", size_bytes=1 * MB, num_chunks=1)
        atum.run(until=60.0)
        share.delete("n2", "scratch")
        atum.run(until=120.0)
        return atum, share, addresses

    @staticmethod
    def records(share, address):
        return sorted(share.indexes[address].search(""), key=lambda r: r.file_id)

    def test_every_node_holds_the_same_index(self):
        atum, share, addresses = self.build()
        reference = self.records(share, "n0")
        assert [record.file_id for record in reference] == [
            ("n0", "dataset"),
            ("n1", "movie"),
        ]
        for address in addresses:
            assert self.records(share, address) == reference, address

    def test_the_same_run_rebuilds_the_same_index(self):
        _, first, addresses = self.build(seed=11)
        _, second, _ = self.build(seed=11)
        for address in addresses:
            assert self.records(first, address) == self.records(second, address)
