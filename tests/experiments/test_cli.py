"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import _run_command, build_parser, main


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    _run_command(args, out=out)
    return out.getvalue()


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in [
            "fig1",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "table1",
            "table2",
            "all",
        ]:
            args = parser.parse_args([command])
            assert args.command == command

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestCommands:
    def test_table1(self):
        output = run_cli(["table1", "--scale", "0.03"])
        assert "Table I" in output
        assert "facebook" in output

    def test_fig1(self):
        output = run_cli(["fig1"])
        assert "Fig. 1" in output
        assert "pending" in output

    def test_sweep_command(self):
        output = run_cli(
            ["fig9", "--num-legit", "300", "--num-fakes", "60"]
        )
        assert "Fig. 9" in output
        assert "Rejecto" in output and "VoteTrust" in output

    def test_sweep_with_dataset(self):
        output = run_cli(
            ["fig11", "--num-legit", "300", "--num-fakes", "60", "--dataset", "synthetic"]
        )
        assert "Fig. 11" in output

    def test_table2(self):
        output = run_cli(["table2", "--sizes", "300", "600"])
        assert "Table II" in output

    def test_fig16(self):
        output = run_cli(["fig16", "--num-legit", "400"])
        assert "SybilRank AUC" in output

    def test_fig17_subset(self):
        output = run_cli(
            [
                "fig17",
                "--datasets",
                "synthetic",
                "--points",
                "2",
                "--num-legit",
                "300",
                "--num-fakes",
                "60",
            ]
        )
        assert "[synthetic]" in output
        assert "Fig. 9" in output and "Fig. 12" in output

    def test_fig18_subset(self):
        output = run_cli(
            [
                "fig18",
                "--datasets",
                "synthetic",
                "--points",
                "2",
                "--num-legit",
                "300",
                "--num-fakes",
                "60",
            ]
        )
        assert "[synthetic]" in output
        assert "Fig. 13" in output and "Fig. 15" in output


class TestGraphCommands:
    EDGES = "# comment\n0 1\n1 2\n2 3\n"

    def test_pack_and_info_roundtrip(self, tmp_path):
        source = tmp_path / "edges.txt"
        source.write_text(self.EDGES)
        out_text = run_cli(["graph", "pack", str(source)])
        snapshot = tmp_path / "edges.csrbin"
        assert snapshot.exists()
        assert "packed 4 nodes, 3 friendships, 0 rejections" in out_text
        info = run_cli(["graph", "info", str(snapshot)])
        assert "4 nodes, 3 friendships, 0 rejections" in info
        assert "version 1" in info

    def test_pack_gz_default_name_strips_suffixes(self, tmp_path):
        import gzip

        source = tmp_path / "edges.txt.gz"
        with gzip.open(source, "wt") as handle:
            handle.write(self.EDGES)
        run_cli(["graph", "pack", str(source)])
        assert (tmp_path / "edges.csrbin").exists()

    def test_pack_augmented_file(self, tmp_path):
        from repro.core import AugmentedSocialGraph
        from repro.io import save_augmented_graph

        graph = AugmentedSocialGraph.from_edges(
            5, friendships=[(0, 1), (1, 2)], rejections=[(3, 4)]
        )
        source = tmp_path / "g.graph"
        save_augmented_graph(graph, source)
        out_path = tmp_path / "g.csrbin"
        out_text = run_cli(["graph", "pack", str(source), "--out", str(out_path)])
        assert "1 rejections" in out_text
        assert out_path.exists()

    def test_pack_no_remap_keeps_augmented_ids(self, tmp_path):
        from repro.core import CSRGraph
        from repro.io import load_augmented_graph

        source = tmp_path / "aug.txt"
        source.write_text("# nodes: 9\nF 0 1\nF 7 2\nR 8 0\n")
        out_path = tmp_path / "aug.csrbin"
        out_text = run_cli(
            ["graph", "pack", str(source), "--no-remap", "--out", str(out_path)]
        )
        assert "packed 9 nodes, 2 friendships, 1 rejections" in out_text
        packed = CSRGraph.open(out_path)
        loaded = load_augmented_graph(source, as_csr=True)
        assert list(packed.friendships()) == list(loaded.friendships())
        assert list(packed.rejections()) == list(loaded.rejections())

    def test_pack_no_remap_parses_snap_file_once(self, tmp_path, monkeypatch):
        from repro.graphgen import loaders

        calls = []
        original = loaders.load_snap_edgelist

        def counting(*args, **kwargs):
            calls.append(kwargs.get("remap"))
            return original(*args, **kwargs)

        monkeypatch.setattr(loaders, "load_snap_edgelist", counting)
        source = tmp_path / "edges.txt"
        source.write_text("# sparse ids\n10 20\n20 30\n")
        out_path = tmp_path / "raw.csrbin"
        out_text = run_cli(
            ["graph", "pack", str(source), "--no-remap", "--out", str(out_path)]
        )
        assert calls == [False]
        assert "packed 31 nodes, 2 friendships" in out_text
        run_cli(["graph", "pack", str(source), "--out", str(out_path)])
        assert calls == [False, True]
        assert "3 nodes" in run_cli(["graph", "info", str(out_path)])

    def test_pack_malformed_augmented_file_is_one_error(self, tmp_path, capsys):
        source = tmp_path / "aug.txt"
        source.write_text("# nodes: 4\nF 0 1\nR 2 3\nF 1 x\n")
        assert main(["graph", "pack", str(source)]) == 2
        err = capsys.readouterr().err
        assert err.count("rejecto: error:") == 1
        assert f"{source}:4: non-integer id" in err
        assert "Traceback" not in err

    def test_info_segments_flag(self, tmp_path):
        source = tmp_path / "edges.txt"
        source.write_text(self.EDGES)
        run_cli(["graph", "pack", str(source)])
        info = run_cli(
            ["graph", "info", str(tmp_path / "edges.csrbin"), "--segments"]
        )
        for name in ("f_ptr", "f_idx", "ro_ptr", "ro_idx", "ri_ptr", "ri_idx"):
            assert f"segment {name}" in info

    def test_detect_accepts_snapshot_graph(self, tmp_path):
        from repro.attacks import ScenarioConfig, build_scenario

        scenario = build_scenario(ScenarioConfig(num_legit=60, num_fakes=12, seed=3))
        snap = scenario.graph.csr().save(tmp_path / "scenario.csrbin")
        report = tmp_path / "report.json"
        out_text = run_cli(
            ["detect", "--graph", str(snap), "--report", str(report)]
        )
        assert "users" in out_text
        assert report.exists()


class TestMultilevelCommand:
    def test_refine_stall_zero_runs_exhaustive_passes(self, tmp_path):
        from repro.attacks import ScenarioConfig, build_scenario
        from repro.io import save_augmented_graph

        scenario = build_scenario(ScenarioConfig(num_legit=150, num_fakes=30))
        graph = tmp_path / "g.txt"
        save_augmented_graph(scenario.graph, str(graph))
        report = tmp_path / "ml.json"
        run_cli(
            [
                "multilevel",
                "--graph", str(graph),
                "--refine-stall", "0",
                "--json", str(report),
            ]
        )
        payload = json.loads(report.read_text())
        assert payload["suspicious"]
        assert payload["config"] == {"refine_stall": None}

    def test_no_incremental_flag_is_gone(self):
        """So are the removed fan-out flags ``--refine-jobs`` and
        ``--jobs``, the removed ``--frontier`` refinement scope and the
        removed ``--refine-tolerance`` early exit: each is an argparse
        usage error (exit 2)."""
        for flag in (
            ["--no-incremental"],
            ["--refine-tolerance", "0.5"],
            ["--refine-jobs", "2"],
            ["--jobs", "2"],
            ["--frontier", "full"],
            ["--frontier", "boundary"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["multilevel", "--graph", "g.txt"] + flag)
            assert excinfo.value.code == 2


class TestBadInput:
    """Bad input stops with one clear error line and exit code 2."""

    def assert_clean_error(self, capsys, argv, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("rejecto: error: ")
        assert captured.err.count("\n") == 1
        assert needle in captured.err

    def test_detect_missing_graph(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        self.assert_clean_error(capsys, ["detect", "--graph", missing], missing)

    def test_multilevel_missing_graph(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        self.assert_clean_error(
            capsys, ["multilevel", "--graph", missing], missing
        )

    def test_detect_malformed_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("nodes 3\nF 0 1\nF 0 oops\n")
        self.assert_clean_error(capsys, ["detect", "--graph", str(bad)], str(bad))

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_detect_self_request(self, tmp_path, capsys, monkeypatch, backend):
        """A request a user sent themselves is refused by the graph, on
        both backends, as one error line."""
        monkeypatch.setenv("REPRO_BACKEND", backend)
        log = tmp_path / "log.csv"
        log.write_text("sender,target,accepted\n0,1,1\n1,1,0\n")
        self.assert_clean_error(
            capsys,
            ["detect", "--requests", str(log)],
            "self-rejection on node 1 is not allowed",
        )

    def test_detect_self_friendship_line(self, tmp_path, capsys):
        bad = tmp_path / "self.graph"
        bad.write_text("# nodes: 3\nF 0 1\nF 2 2\n")
        self.assert_clean_error(
            capsys,
            ["detect", "--graph", str(bad)],
            "self-friendship on node 2 is not allowed",
        )

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize(
        "line, kind", [("F 2 2", "friendship"), ("R 2 2", "rejection")]
    )
    @pytest.mark.parametrize("command", ["graph pack", "detect --graph"])
    def test_self_loop_line_names_the_file_line(
        self, tmp_path, capsys, monkeypatch, backend, line, kind, command
    ):
        """A self-loop line is one error naming ``path:line`` from every
        loader path: ``graph pack`` used to drop it silently, ``detect
        --graph`` to stop with a message naming neither."""
        monkeypatch.setenv("REPRO_BACKEND", backend)
        bad = tmp_path / "self.graph"
        bad.write_text(f"# nodes: 3\nF 0 1\n{line}\n")
        argv = command.split() + [str(bad)]
        if command == "graph pack":
            argv += ["--out", str(tmp_path / "self.csrbin")]
        self.assert_clean_error(
            capsys, argv, f"{bad}:3: self-{kind} on node 2 is not allowed"
        )

    def test_snapshot_with_unwritten_flags(self, tmp_path, capsys):
        """A weighted snapshot whose flags word (byte 16) says 5 instead
        of 7 is a format error, not a crash inside graph construction."""
        from repro.core import AugmentedSocialGraph
        from repro.core.csr import WeightedCSRGraph

        graph = AugmentedSocialGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], [])
        snap = WeightedCSRGraph.from_unit(graph.csr()).save(tmp_path / "x.csrbin")
        raw = bytearray(snap.read_bytes())
        raw[16:24] = (5).to_bytes(8, "little")
        snap.write_bytes(bytes(raw))
        for argv in (["graph", "info", str(snap)], ["detect", "--graph", str(snap)]):
            self.assert_clean_error(capsys, argv, "flags word 5")

    @pytest.fixture
    def tiny_graph(self, tmp_path):
        path = tmp_path / "tiny.graph"
        path.write_text("# nodes: 3\nF 0 1\nF 1 2\nR 2 0\n")
        return str(path)

    @pytest.mark.parametrize("seed", ["9", "-1"])
    def test_detect_out_of_range_seed(self, tiny_graph, capsys, seed):
        self.assert_clean_error(
            capsys,
            ["detect", "--graph", tiny_graph, "--legit-seeds", seed],
            f"node id {seed}, out of range",
        )

    def test_detect_seed_listed_twice(self, tiny_graph, capsys):
        self.assert_clean_error(
            capsys,
            ["detect", "--graph", tiny_graph, "--legit-seeds", "1",
             "--spammer-seeds", "1"],
            "both legitimate and spammer",
        )

    def test_multilevel_out_of_range_seed(self, tiny_graph, capsys):
        self.assert_clean_error(
            capsys,
            ["multilevel", "--graph", tiny_graph, "--spammer-seeds", "9"],
            "node id 9, out of range",
        )

    def test_shard_detect_out_of_range_seed(self, tiny_graph, capsys):
        self.assert_clean_error(
            capsys,
            ["shard-detect", "--graphs", tiny_graph, "--legit-seeds", "9"],
            "node id 9, out of range",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--max-rounds", "0"],
            ["detect", "--max-rounds", "-2"],
            ["detect", "--estimated", "0"],
            ["shard-detect", "--max-rounds", "0"],
            ["shard-detect", "--estimated", "-1"],
        ],
    )
    def test_counts_below_one_rejected_at_parsing(self, tiny_graph, capsys, argv):
        source = "--graphs" if argv[0] == "shard-detect" else "--graph"
        with pytest.raises(SystemExit) as exc:
            main(argv + [source, tiny_graph])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"error: argument {argv[1]}: must be >= 1" in captured.err
