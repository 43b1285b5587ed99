"""Tests for the Table I dataset catalog and SNAP loaders."""

import pytest

from repro.graphgen import (
    CATALOG,
    LoaderError,
    barabasi_albert,
    dataset_names,
    generate_dataset,
    load_snap_edgelist,
    save_snap_edgelist,
)
from repro.graphgen.stats import average_clustering


class TestCatalog:
    def test_all_table1_rows_present(self):
        assert dataset_names() == [
            "facebook",
            "ca-HepTh",
            "ca-AstroPh",
            "email-Enron",
            "soc-Epinions",
            "soc-Slashdot",
            "synthetic",
        ]

    def test_paper_row_values_recorded(self):
        spec = CATALOG["facebook"]
        assert spec.paper_nodes == 10_000
        assert spec.paper_edges == 40_013
        assert spec.paper_clustering == pytest.approx(0.2332)
        assert spec.paper_diameter == 17

    def test_generate_scaled(self):
        graph = generate_dataset("facebook", scale=0.1, seed=1)
        assert graph.num_nodes == 1000
        # Edge density ~ m = 4.
        assert graph.num_friendships / graph.num_nodes == pytest.approx(4.0, rel=0.1)

    def test_generated_clustering_tracks_paper_target(self):
        low = generate_dataset("soc-Slashdot", scale=0.03, seed=1)
        high = generate_dataset("facebook", scale=0.3, seed=1)
        assert average_clustering(high) > average_clustering(low) + 0.1

    def test_deterministic_per_seed(self):
        a = generate_dataset("synthetic", scale=0.05, seed=9)
        b = generate_dataset("synthetic", scale=0.05, seed=9)
        assert set(a.friendships()) == set(b.friendships())

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            generate_dataset("friendster")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset("facebook", scale=0.0)
        with pytest.raises(ValueError):
            generate_dataset("facebook", scale=1.5)


class TestSnapLoader:
    def test_roundtrip_without_remap(self, tmp_path):
        import random

        graph = barabasi_albert(80, 3, random.Random(0))
        path = tmp_path / "graph.txt"
        save_snap_edgelist(graph, path)
        loaded = load_snap_edgelist(path, remap=False)
        assert loaded.num_nodes == graph.num_nodes
        assert set(loaded.friendships()) == set(graph.friendships())

    def test_roundtrip_with_remap_preserves_structure(self, tmp_path):
        import random

        graph = barabasi_albert(80, 3, random.Random(0))
        path = tmp_path / "graph.txt"
        save_snap_edgelist(graph, path)
        loaded = load_snap_edgelist(path)  # ids relabelled
        assert loaded.num_nodes == graph.num_nodes
        assert loaded.num_friendships == graph.num_friendships
        assert sorted(len(a) for a in loaded.friends) == sorted(
            len(a) for a in graph.friends
        )

    def test_negative_id_without_remap_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-1 2\n")
        with pytest.raises(LoaderError, match="negative id"):
            load_snap_edgelist(path, remap=False)

    def test_comments_sparse_ids_and_duplicates(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(
            "# Directed graph\n"
            "# FromNodeId ToNodeId\n"
            "1000 2000\n"
            "2000 1000\n"  # reverse duplicate collapses
            "1000 2000\n"  # exact duplicate collapses
            "2000 5\n"
            "7 7\n"  # self-loop dropped
        )
        graph = load_snap_edgelist(path)
        assert graph.num_nodes == 3
        assert graph.num_friendships == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n")
        with pytest.raises(LoaderError, match="expected two ids"):
            load_snap_edgelist(path)

    def test_non_integer_id_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(LoaderError, match="non-integer"):
            load_snap_edgelist(path)

    @pytest.mark.parametrize("line", ["0_1 2", "+3 4", "3 \u0664", "- 2"])
    @pytest.mark.parametrize("remap", [True, False])
    def test_non_decimal_id_raises(self, tmp_path, line, remap):
        """``int()`` would read ``0_1`` as 1, ``+3`` as 3 and the
        Arabic-Indic digit four as 4."""
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1\n{line}\n", encoding="utf-8")
        with pytest.raises(LoaderError, match=":2: non-integer id"):
            load_snap_edgelist(path, remap=remap)

    def test_negative_ids_remap(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-1 2\n2 -7\n")
        graph = load_snap_edgelist(path)
        assert graph.num_nodes == 3
        assert graph.num_friendships == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        graph = load_snap_edgelist(path)
        assert graph.num_nodes == 0


class TestGzipEdgeLists:
    EDGES = "# comment\n0 1\n1 2\n2 0\n"

    def test_load_transparently_decompresses(self, tmp_path):
        import gzip

        gz = tmp_path / "edges.txt.gz"
        with gzip.open(gz, "wt") as handle:
            handle.write(self.EDGES)
        graph = load_snap_edgelist(gz)
        assert graph.num_nodes == 3
        assert graph.num_friendships == 3

    def test_save_gz_writes_gzip_and_roundtrips(self, tmp_path):
        plain = tmp_path / "edges.txt"
        plain.write_text(self.EDGES)
        graph = load_snap_edgelist(plain)
        gz = tmp_path / "out.txt.gz"
        save_snap_edgelist(graph, gz)
        assert gz.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        again = load_snap_edgelist(gz)
        assert sorted(again.friendships()) == sorted(graph.friendships())

    def test_gz_and_plain_load_identically(self, tmp_path):
        import gzip

        plain = tmp_path / "edges.txt"
        plain.write_text(self.EDGES)
        gz = tmp_path / "edges.txt.gz"
        with gzip.open(gz, "wt") as handle:
            handle.write(self.EDGES)
        a = load_snap_edgelist(plain, as_csr=True)
        b = load_snap_edgelist(gz, as_csr=True)
        assert list(a.friendships()) == list(b.friendships())


class TestPackOnceCache:
    EDGES = "0 1\n1 2\n2 3\n3 0\n0 2\n"

    def test_cache_requires_csr(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(self.EDGES)
        with pytest.raises(ValueError, match="as_csr"):
            load_snap_edgelist(path, cache=True)

    def test_cache_packs_then_maps(self, tmp_path):
        from repro.graphgen.loaders import edgelist_cache_path

        path = tmp_path / "edges.txt"
        path.write_text(self.EDGES)
        cached = edgelist_cache_path(path)
        assert not cached.exists()
        first = load_snap_edgelist(path, as_csr=True, cache=True)
        assert cached.exists()
        assert first.snapshot_path == str(cached.resolve())
        second = load_snap_edgelist(path, as_csr=True, cache=True)
        assert second.snapshot_path == str(cached.resolve())
        assert list(second.friendships()) == list(first.friendships())

    def test_edited_source_gets_fresh_cache_key(self, tmp_path):
        from repro.graphgen.loaders import edgelist_cache_path

        path = tmp_path / "edges.txt"
        path.write_text(self.EDGES)
        before = edgelist_cache_path(path)
        path.write_text(self.EDGES + "4 5\n")
        after = edgelist_cache_path(path)
        assert before != after

    def test_remap_flag_in_cache_key(self, tmp_path):
        from repro.graphgen.loaders import edgelist_cache_path

        path = tmp_path / "edges.txt"
        path.write_text(self.EDGES)
        assert edgelist_cache_path(path, remap=True) != edgelist_cache_path(
            path, remap=False
        )

    def test_pack_edgelist_default_location(self, tmp_path):
        from repro.graphgen.loaders import edgelist_cache_path, pack_edgelist

        path = tmp_path / "edges.txt"
        path.write_text(self.EDGES)
        out = pack_edgelist(path)
        assert out == edgelist_cache_path(path)
        assert out.exists()
        # A second pack is a no-op returning the same path.
        assert pack_edgelist(path) == out

    def test_dataset_csr_parameter_cache(self, tmp_path):
        from repro.core.csr import CSRGraph
        from repro.graphgen.datasets import dataset_csr

        fresh = dataset_csr("facebook", scale=0.05, seed=3)
        assert fresh.snapshot_path is None
        first = dataset_csr("facebook", scale=0.05, seed=3, cache_dir=tmp_path)
        cached_files = list(tmp_path.glob("*.csrbin"))
        assert len(cached_files) == 1
        second = dataset_csr("facebook", scale=0.05, seed=3, cache_dir=tmp_path)
        assert isinstance(second, CSRGraph)
        assert list(second.f_ptr) == list(first.f_ptr)
        assert list(second.f_idx) == list(first.f_idx)
        assert list(second.f_idx) == list(fresh.f_idx)
