"""Tests for graph/request-log/report persistence."""

import importlib.util
import json
import random
from array import array

import pytest

from repro.attacks import RequestLog, ScenarioConfig, build_scenario
from repro.core import AugmentedSocialGraph, Rejecto, RejectoConfig
from repro.io import (
    FormatError,
    _parse_canonical,
    load_augmented_graph,
    load_detection_report,
    load_request_log,
    save_augmented_graph,
    save_detection_report,
    save_request_log,
)

from .test_request_log import builder_state, builds_lazily


class TestGraphRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        scenario = build_scenario(ScenarioConfig(num_legit=150, num_fakes=30))
        path = tmp_path / "graph.txt"
        save_augmented_graph(scenario.graph, path)
        loaded = load_augmented_graph(path)
        assert loaded.num_nodes == scenario.graph.num_nodes
        assert set(loaded.friendships()) == set(scenario.graph.friendships())
        assert set(loaded.rejections()) == set(scenario.graph.rejections())

    def test_isolated_nodes_preserved_via_header(self, tmp_path):
        graph = AugmentedSocialGraph(10)
        graph.add_friendship(0, 1)
        path = tmp_path / "graph.txt"
        save_augmented_graph(graph, path)
        assert load_augmented_graph(path).num_nodes == 10

    def test_missing_header_infers_count(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("F 0 3\nR 1 2\n")
        graph = load_augmented_graph(path)
        assert graph.num_nodes == 4
        assert graph.has_friendship(0, 3)
        assert graph.has_rejection(1, 2)

    def test_bad_lines_raise(self, tmp_path):
        for content, message in [
            ("X 0 1\n", "expected"),
            ("F 0\n", "expected"),
            ("F a b\n", "non-integer"),
            ("F -1 2\n", "negative"),
            ("# nodes: two\nF 0 1\n", "bad nodes header"),
            ("# nodes: 1\nF 0 3\n", "ids reach"),
        ]:
            path = tmp_path / "bad.txt"
            path.write_text(content)
            with pytest.raises(FormatError, match=message):
                load_augmented_graph(path)


class TestRequestLogRoundtrip:
    def test_roundtrip(self, tmp_path):
        log = RequestLog()
        log.record(0, 1, True)
        log.record(2, 0, False)
        log.record(0, 1, False)  # duplicate pair, different outcome
        path = tmp_path / "log.csv"
        save_request_log(log, path)
        loaded = load_request_log(path)
        assert list(loaded) == list(log)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("a,b,c\n0,1,1\n")
        with pytest.raises(FormatError, match="header"):
            load_request_log(path)

    def test_bad_rows_raise(self, tmp_path):
        for row, message in [
            ("0,1\n", "3 fields"),
            ("0,1,yes\n", "non-integer"),
            ("0,1,2\n", "0/1"),
            ("99999999999999999999,1,1\n", "id past int64"),
        ]:
            path = tmp_path / "log.csv"
            path.write_text("sender,target,accepted\n" + row)
            with pytest.raises(FormatError, match=message):
                load_request_log(path)


class TestDetectionReport:
    def test_roundtrip(self, tmp_path):
        scenario = build_scenario(ScenarioConfig(num_legit=200, num_fakes=40))
        result = Rejecto(RejectoConfig(estimated_spammers=40)).detect(
            scenario.graph
        )
        path = tmp_path / "report.json"
        save_detection_report(result, path)
        report = load_detection_report(path)
        assert report["total_detected"] == result.total_detected
        assert report["termination"] == result.termination
        members = [u for group in report["groups"] for u in group["members"]]
        assert members == result.detected()

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_detection_report(path)

    def test_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(FormatError, match="not a detection report"):
            load_detection_report(path)


class TestDetectCli:
    def test_end_to_end(self, tmp_path):
        import io as iomod

        from repro.cli import _run_command, build_parser

        scenario = build_scenario(ScenarioConfig(num_legit=200, num_fakes=40))
        graph_path = tmp_path / "graph.txt"
        report_path = tmp_path / "report.json"
        save_augmented_graph(scenario.graph, graph_path)
        args = build_parser().parse_args(
            [
                "detect",
                "--graph",
                str(graph_path),
                "--estimated",
                "40",
                "--report",
                str(report_path),
            ]
        )
        out = iomod.StringIO()
        _run_command(args, out=out)
        text = out.getvalue()
        assert "total detected: " in text
        assert "detected ids:" in text
        report = load_detection_report(report_path)
        detected = {u for g in report["groups"] for u in g["members"]}
        metrics = scenario.precision_recall(detected)
        assert metrics.recall > 0.9


class TestPropertyRoundtrips:
    """Hypothesis roundtrips: persistence must be lossless for any graph."""

    def test_graph_roundtrip_property(self, tmp_path):
        from hypothesis import given, settings

        from .conftest import augmented_graphs

        @given(augmented_graphs(max_nodes=16, max_edges=40))
        @settings(max_examples=30, deadline=None)
        def roundtrip(graph):
            path = tmp_path / "g.txt"
            save_augmented_graph(graph, path)
            loaded = load_augmented_graph(path)
            assert loaded.num_nodes == graph.num_nodes
            assert set(loaded.friendships()) == set(graph.friendships())
            assert set(loaded.rejections()) == set(graph.rejections())

        roundtrip()

    def test_request_log_roundtrip_property(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=30),
                    st.integers(min_value=0, max_value=30),
                    st.booleans(),
                ),
                max_size=60,
            )
        )
        @settings(max_examples=30, deadline=None)
        def roundtrip(entries):
            log = RequestLog()
            for sender, target, accepted in entries:
                log.record(sender, target, accepted)
            path = tmp_path / "log.csv"
            save_request_log(log, path)
            assert list(load_request_log(path)) == list(log)

        roundtrip()


class TestErrorExcerpts:
    """FormatError messages carry the line number and a truncated repr
    of the offending line — enough to find and fix the input by hand."""

    def test_line_number_and_repr_in_message(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("F 0 1\nR 2 x\n")
        with pytest.raises(FormatError, match=r"bad\.graph:2: .*'R 2 x'"):
            load_augmented_graph(path)

    def test_long_lines_truncated(self, tmp_path):
        path = tmp_path / "bad.graph"
        junk = "Z " + "y" * 300
        path.write_text(f"F 0 1\n{junk}\n")
        with pytest.raises(FormatError) as excinfo:
            load_augmented_graph(path)
        message = str(excinfo.value)
        assert f"… ({len(junk)} chars)" in message
        assert junk not in message  # the full 300-char line never appears

    def test_request_log_header_excerpt(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("totally wrong header\n")
        with pytest.raises(FormatError, match=r"log\.tsv:1: .*'totally wrong header'"):
            load_request_log(path)

    def test_request_log_row_excerpt(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("sender,target,accepted\n1,2\n")
        with pytest.raises(FormatError, match=r"log\.tsv:2: expected 3 fields.*'1,2'"):
            load_request_log(path)


CSR_BUFFERS = ("f_ptr", "f_idx", "ro_ptr", "ro_idx", "ri_ptr", "ri_idx")


def load_csr_both(path, monkeypatch):
    """``load_augmented_graph(path, as_csr=True)`` on each backend."""
    graphs = {}
    for backend in ("numpy", "python"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        graphs[backend] = load_augmented_graph(path, as_csr=True)
    assert graphs["numpy"].backend == "numpy"
    assert graphs["python"].backend == "python"
    return graphs["numpy"], graphs["python"]


def load_builder_both(path, monkeypatch):
    """``load_augmented_graph(path)`` in builder form on each backend,
    as :func:`builder_state` reads it (CSR first, structures after);
    the numpy load of a canonical file is a CSR-first batch builder."""
    states = {}
    for backend in ("numpy", "python"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        graph = load_augmented_graph(path)
        if backend == "numpy":
            assert builds_lazily(graph)
        states[backend] = builder_state(graph, backend)
    assert states["numpy"] == states["python"]
    return states["numpy"]


def assert_same_csr(batch, scalar):
    """Equal node counts and CSR buffers, byte for byte, as ``array('q')``."""
    assert batch.num_nodes == scalar.num_nodes
    for name in CSR_BUFFERS:
        got, want = getattr(batch, name), getattr(scalar, name)
        assert isinstance(got, array) and got.typecode == "q", name
        assert got.tobytes() == want.tobytes(), name


def ba_spam_wave_graph(seed):
    """The multilevel perfbench input at reduced scale: BA m=4 plus a
    sybil region running the baseline spam wave."""
    from repro.attacks.spam import (
        add_careless_requests,
        send_friend_spam,
        simulate_legitimate_rejections,
    )
    from repro.attacks.sybil import SybilRegionConfig, inject_sybil_region
    from repro.graphgen import barabasi_albert

    rng = random.Random(seed)
    graph = barabasi_albert(400, 4, rng)
    legit = list(range(graph.num_nodes))
    simulate_legitimate_rejections(graph, legit, 0.2, rng)
    fakes = inject_sybil_region(graph, SybilRegionConfig(num_fakes=96), rng)
    send_friend_spam(graph, fakes, legit, 20, 0.7, rng)
    add_careless_requests(graph, legit, fakes, 0.15, rng)
    return graph


def scenario_graph(seed):
    """The cluster perfbench input at reduced scale."""
    config = ScenarioConfig(num_legit=360, num_fakes=40, seed=seed)
    return build_scenario(config).graph


def request_log_graph(seed):
    """A graph built from a request log, as the rounds perfbench input
    is, then persisted in the F/R form."""
    rng = random.Random(seed)
    log = RequestLog()
    for _ in range(600):
        sender, target = rng.sample(range(200), 2)
        log.record(sender, target, rng.random() < 0.6)
    return log.to_augmented_graph(200)


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)
class TestBatchIngest:
    """The numpy batch parse/pack path against the scalar oracle."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize(
        "build", [ba_spam_wave_graph, scenario_graph, request_log_graph]
    )
    def test_perfbench_style_inputs_match_scalar(
        self, build, seed, tmp_path, monkeypatch
    ):
        path = tmp_path / "g.txt"
        save_augmented_graph(build(seed), path)
        assert _parse_canonical(path.read_bytes()) is not None
        assert_same_csr(*load_csr_both(path, monkeypatch))
        load_builder_both(path, monkeypatch)

    def test_property_edge_lists(self, tmp_path, monkeypatch):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def files(draw):
            n = draw(st.integers(min_value=1, max_value=12))
            node = st.integers(min_value=0, max_value=n - 1)
            # Duplicates, self-loops and both directions of a pair all
            # come up; ids past the edges are isolated nodes.
            edge = st.tuples(st.sampled_from("FR"), node, node)
            edges = draw(st.lists(edge, max_size=40))
            header = draw(st.sampled_from(["", f"# nodes: {n}\n"]))
            return header + "".join(f"{kind} {u} {v}\n" for kind, u, v in edges)

        @given(files())
        @settings(max_examples=60, deadline=None)
        def check(text):
            path = tmp_path / "g.txt"
            path.write_text(text)
            lines = text.splitlines()
            loops = [
                lineno
                for lineno, line in enumerate(lines, start=1)
                if line[0] in "FR" and line.split()[1] == line.split()[2]
            ]
            if loops:
                # The scanner names the first self-loop line on every path.
                assert _parse_canonical(path.read_bytes()) is None
                errors = set()
                for backend in ("numpy", "python"):
                    monkeypatch.setenv("REPRO_BACKEND", backend)
                    for as_csr in (True, False):
                        with pytest.raises(FormatError) as excinfo:
                            load_augmented_graph(path, as_csr=as_csr)
                        errors.add(str(excinfo.value))
                (error,) = errors
                assert error.startswith(f"{path}:{loops[0]}: self-")
                return
            assert _parse_canonical(path.read_bytes()) is not None
            assert_same_csr(*load_csr_both(path, monkeypatch))
            load_builder_both(path, monkeypatch)

        check()

    def test_empty_files(self, tmp_path, monkeypatch):
        for text, nodes in [("", 0), ("# nodes: 3\n", 3), ("# v1\n", 0)]:
            path = tmp_path / "g.txt"
            path.write_text(text)
            assert _parse_canonical(path.read_bytes()) is not None
            batch, scalar = load_csr_both(path, monkeypatch)
            assert batch.num_nodes == nodes
            assert_same_csr(batch, scalar)
            assert load_builder_both(path, monkeypatch)[0] == nodes

    CANONICAL = "# rejecto augmented graph v1\n# nodes: 6\nF 0 1\nF 1 2\nR 3 0\nR 4 5\n"

    @pytest.mark.parametrize(
        "text",
        [
            CANONICAL.replace("F 1 2", "F\t1\t2"),
            CANONICAL.replace("\n", "\r\n"),
            CANONICAL.replace("F 1 2\n", "F 1 2\n\n"),
            CANONICAL.replace("F 1 2\n", "F 1 2\n# middle\n"),
            CANONICAL.replace("R 3 0", "R  3 0 "),
            CANONICAL.replace("R 4 5\n", "R 4 5"),
            CANONICAL.replace("F 0 1", "F 00 01"),
            "\n" + CANONICAL,
        ],
        ids=[
            "tabs",
            "crlf",
            "blank-line",
            "mid-comment",
            "extra-spaces",
            "no-final-newline",
            "leading-zeros",
            "leading-blank",
        ],
    )
    def test_non_canonical_files_fall_back(self, text, tmp_path, monkeypatch):
        canonical = tmp_path / "canonical.txt"
        canonical.write_text(self.CANONICAL)
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        want, _ = load_csr_both(canonical, monkeypatch)
        batch, scalar = load_csr_both(path, monkeypatch)
        assert_same_csr(batch, scalar)
        assert_same_csr(batch, want)

    @pytest.mark.parametrize(
        "text",
        [
            "F 0 1\r\n",
            "F 0 1\nF 1 2",
            "F 0 1\n\n",
            "F 0  1\n",
            "F 0 1 \n",
            " F 0 1\n",
            "F 0 1\n# late\n",
            "F 0 1 2\nF 3\n",
            "F 0 1\nX 2 3\n",
            "F 1234567890123456789 0\n",
            "# nodes: 1\n# nodes: 2\n",
            "# nodes: x\n",
            "# nodes: 1\nF 0 1\n",
            "#\x1cnodes: 5\n",
            "#\r# nodes: 2\nF 0 1\n",
            "# nodes: 3\nF 0 1\nF 2 2\n",
            "F 0 1\nR 3 3\n",
        ],
    )
    def test_batch_parser_refuses_non_canonical_bodies(self, text):
        assert _parse_canonical(text.encode()) is None

    @pytest.mark.parametrize(
        "text, message",
        [
            ("X 0 1\n", ":1: expected 'F u v'"),
            ("F 0\n", ":1: expected 'F u v'"),
            ("F 0 1\nF a b\n", ":2: non-integer id"),
            ("F 0 1\nF 1 2\nR 0 1\nF -1 2\n", ":4: negative id"),
            ("F 0_1 2\n", ":1: non-integer id"),
            ("F +1 2\n", ":1: non-integer id"),
            ("F ١ 2\n", ":1: non-integer id"),
            ("F 1 ²\n", ":1: non-integer id"),
            ("# nodes: two\nF 0 1\n", ":1: bad nodes header"),
            ("# nodes: -5\n", ":1: bad nodes header"),
            ("# nodes: +5\nF 0 1\n", ":1: bad nodes header"),
            ("# nodes: 5\n# nodes: 7\nF 0 1\n", ":2: second nodes header"),
            ("F 0 1\n# nodes: 5\n# nodes: 5\n", ":3: second nodes header"),
            ("# nodes: 1\nF 0 3\n", ": nodes header says 1 but ids reach 3"),
            ("F 0 1\nF 0 1 \nF 1\tx\n", ":3: non-integer id"),
            (
                "# nodes: 3\nF 0 1\nF 2 2\n",
                ":3: self-friendship on node 2 is not allowed: 'F 2 2'",
            ),
            (
                "# nodes: 3\nF 0 1\nR 2 2\n",
                ":3: self-rejection on node 2 is not allowed: 'R 2 2'",
            ),
            ("R 7 007\nF 0 x\n", ":1: self-rejection on node 7"),
            ("# nodes: 2\nF 3 3\n", ":2: self-friendship on node 3"),
        ],
    )
    def test_bad_files_raise_the_same_error_on_both_backends(
        self, text, message, tmp_path, monkeypatch
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        errors = []
        for backend in ("numpy", "python"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            with pytest.raises(FormatError) as excinfo:
                load_augmented_graph(path, as_csr=True)
            errors.append(str(excinfo.value))
        with pytest.raises(FormatError) as excinfo:
            load_augmented_graph(path)
        errors.append(str(excinfo.value))
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].startswith(f"{path}{message}")

    def test_second_nodes_header_names_the_first(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# v1\n# nodes: 5\n# nodes: 7\n")
        with pytest.raises(FormatError, match=r"bad\.txt:3: .*first on line 2"):
            load_augmented_graph(path)


class TestRequestLogIds:
    @pytest.mark.parametrize(
        "row", ["0_1,2,1", "+1,2,1", "1,١,1", "1,2,+1", " 1,2,1 x", "-1,2,1", "1,2, 1"]
    )
    def test_only_ascii_decimal_fields(self, row, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(f"sender,target,accepted\n0,1,1\n{row}\n")
        with pytest.raises(FormatError, match=r"log\.csv:3: non-integer field"):
            load_request_log(path)
