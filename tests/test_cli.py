"""The command-line surface: payload schemas, exit codes, round trips."""

import json
import os
import subprocess
import sys
import time

import pytest

import hypercover
from hypercover.cli import EXIT_ERROR, EXIT_FAIL, EXIT_OK, EXIT_UNKNOWN, main
from hypercover import complete_hypergraph, cover_to_json, hypergraph_to_json, log_cover


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestConstruct:
    def test_hex_cover_reports_n(self, capsys, tmp_path):
        code, payload, _ = run(
            capsys, "construct", "hex-cover", "--m", "3",
            "--hypergraph-out", str(tmp_path / "h.json"),
            "--cover-out", str(tmp_path / "c.json"),
        )
        assert code == EXIT_OK
        assert payload["n"] == 19
        assert payload["blocks"] == 12
        assert len(payload["written"]) == 2

    def test_pi_partition_block_count(self, capsys):
        code, payload, _ = run(capsys, "construct", "pi-partition", "--r", "2", "--m", "2")
        assert code == EXIT_OK
        assert payload["blocks"] == 4
        assert payload["pinto_upper_bound"] == 4

    def test_label_partition_table(self, capsys):
        code, payload, _ = run(capsys, "construct", "label-partition", "--r", "3")
        assert code == EXIT_OK
        assert payload["blocks"] == 10
        assert payload["table"].splitlines()[0] == "0a1  0a2  0a3"

    def test_cube_graph(self, capsys, tmp_path):
        out = tmp_path / "cube.json"
        code, payload, _ = run(
            capsys, "construct", "cube-graph", "--r", "2", "--m", "2",
            "--hypergraph-out", str(out),
        )
        assert code == EXIT_OK
        assert payload["edges"] == 16
        assert json.loads(out.read_text())["n"] == 9

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "construct", "hex-cover")
        assert code == EXIT_ERROR
        assert "required" in err

    def test_guard_error_exit(self, capsys):
        code, _, err = run(capsys, "construct", "cube-graph", "--r", "4", "--m", "4")
        assert code == EXIT_ERROR
        assert "guard" in err

    def test_guard_override_env(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "k6.json"
        path.write_text(hypergraph_to_json(complete_hypergraph(6)))
        code, _, err = run(capsys, "search", "min-sum-orders", "--file", str(path))
        assert code == EXIT_ERROR and "guard" in err
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", "1")
        code, payload, _ = run(capsys, "search", "min-sum-orders", "--file", str(path))
        assert code == EXIT_OK and payload["value"] == 16


class TestVerify:
    def build(self, capsys, tmp_path, kind, *params):
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        code, _, _ = run(
            capsys, "construct", kind, *params,
            "--hypergraph-out", str(h), "--cover-out", str(c),
        )
        assert code == EXIT_OK
        return str(h), str(c)

    def test_hex_list_23_ok(self, capsys, tmp_path):
        h, c = self.build(capsys, tmp_path, "hex-cover", "--m", "2")
        code, payload, _ = run(capsys, "verify", "--hypergraph", h, "--cover", c,
                               "--list", "2,3")
        assert code == EXIT_OK
        assert payload["status"] == "ok"
        assert set(payload["histogram"]) <= {"2", "3"}

    def test_hex_list_1_fails_with_witness(self, capsys, tmp_path):
        h, c = self.build(capsys, tmp_path, "hex-cover", "--m", "2")
        code, payload, _ = run(capsys, "verify", "--hypergraph", h, "--cover", c,
                               "--list", "1")
        assert code == EXIT_FAIL
        assert payload["status"] == "fail"
        assert payload["witness"]["multiplicity"] in (2, 3)

    def test_star_partition_flag(self, capsys, tmp_path):
        h, c = self.build(capsys, tmp_path, "star-partition", "--n", "4")
        code, payload, _ = run(capsys, "verify", "--hypergraph", h, "--cover", c,
                               "--partition")
        assert code == EXIT_OK and payload["status"] == "ok"

    @pytest.mark.parametrize(
        "kind,params,lst",
        [
            ("hex-cover", ("--m", "3"), "2,3"),
            ("grid3-cover", ("--m", "3"), "1..4"),
            ("star-partition", ("--n", "6"), "1"),
            ("log-cover", ("--n", "8"), "1..3"),
            ("pi-partition", ("--r", "2", "--m", "3"), "1"),
        ],
    )
    def test_every_construction_round_trips(self, capsys, tmp_path, kind, params, lst):
        h, c = self.build(capsys, tmp_path, kind, *params)
        code, payload, _ = run(capsys, "verify", "--hypergraph", h, "--cover", c,
                               "--list", lst)
        assert code == EXIT_OK and payload["status"] == "ok"


class TestRank:
    def test_r4_m1(self, capsys):
        code, payload, _ = run(capsys, "rank", "--r", "4", "--m", "1")
        assert code == EXIT_OK
        assert payload["rank"] >= 6
        assert payload["rank_lower_bound"] == 6
        assert payload["partition_lower_bound"] == 1
        assert payload["status"] == "ok"

    def test_r4_m2(self, capsys):
        code, payload, _ = run(capsys, "rank", "--r", "4", "--m", "2")
        assert code == EXIT_OK
        assert payload["rank"] >= 48
        assert payload["rank_lower_bound"] == 48
        assert payload["partition_lower_bound"] == 8

    def test_odd_r_rejected(self, capsys):
        code, _, err = run(capsys, "rank", "--r", "3", "--m", "1")
        assert code == EXIT_ERROR
        assert "even" in err


class TestBounds:
    def test_ks_order(self, capsys):
        code, payload, _ = run(capsys, "bounds", "ks-order", "--n", "8",
                               "--alpha", "1", "--r", "2")
        assert code == EXIT_OK
        assert payload["value"] == pytest.approx(24.0)
        assert payload["direction"] == "lower"
        assert payload["inputs"] == {"n": 8, "alpha": 1.0, "r": 2}

    def test_matching(self, capsys):
        code, payload, _ = run(capsys, "bounds", "matching", "--nu", "2",
                               "--edges", "6", "--r", "2")
        assert code == EXIT_OK
        assert payload["value"] == pytest.approx(2 / 3)

    def test_independent_matchings(self, capsys):
        code, payload, _ = run(capsys, "bounds", "independent-matchings", "--k", "4",
                               "--m", "2", "--edges", "16", "--r", "2")
        assert code == EXIT_OK
        assert payload["value"] == pytest.approx(1.0)

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "bounds", "ks-chromatic", "--k", "4", "--r", "2")
        assert code == EXIT_ERROR


class TestSearch:
    def write_k4(self, tmp_path):
        path = tmp_path / "k4.json"
        path.write_text(hypergraph_to_json(complete_hypergraph(4)))
        return str(path)

    def test_min_partition_k4(self, capsys, tmp_path):
        code, payload, _ = run(capsys, "search", "min-partition",
                               "--file", self.write_k4(tmp_path))
        assert code == EXIT_OK
        assert payload["value"] == 3 and payload["exact"]

    def test_min_cover_any(self, capsys, tmp_path):
        code, payload, _ = run(capsys, "search", "min-cover",
                               "--file", self.write_k4(tmp_path), "--list", "any")
        assert code == EXIT_OK
        assert payload["value"] == 2

    def test_min_sum_orders(self, capsys, tmp_path):
        code, payload, _ = run(capsys, "search", "min-sum-orders",
                               "--file", self.write_k4(tmp_path))
        assert code == EXIT_OK
        assert payload["value"] == 8

    def test_unknown_on_tight_budget(self, capsys, tmp_path):
        code, payload, _ = run(capsys, "search", "min-partition",
                               "--file", self.write_k4(tmp_path),
                               "--max-blocks", "1")
        assert code == EXIT_UNKNOWN
        assert payload["status"] == "unknown"
        assert payload["lower"] == 2
        assert payload["value"] is None

    def test_min_cover_requires_list(self, capsys, tmp_path):
        code, _, err = run(capsys, "search", "min-cover",
                           "--file", self.write_k4(tmp_path))
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("seconds", ["nan", "inf", "0"])
    def test_max_seconds_must_be_finite_and_positive(self, capsys, tmp_path, seconds):
        code, _, err = run(capsys, "search", "min-partition",
                           "--file", self.write_k4(tmp_path), "--max-seconds", seconds)
        assert code == EXIT_ERROR and "max_seconds" in err


def cli(*argv):
    """Run the command in a fresh interpreter, so a traceback would show."""
    src = os.path.dirname(os.path.dirname(hypercover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("HYPERCOVER_GUARD_OVERRIDE", None)
    return subprocess.run([sys.executable, "-m", "hypercover.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def assert_input_error(proc):
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class TestMalformedInput:
    """Input files that parse as JSON but are not the documented shape."""

    @pytest.mark.parametrize("text", [
        '{"r": 2, "n": 4}',
        '{"r": 2, "n": 4, "edges": 5}',
        '["not", "a", "hypergraph"]',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["no-edges", "edges-not-a-list", "not-an-object", "deep-nesting"])
    def test_search(self, tmp_path, text):
        path = tmp_path / "h.json"
        path.write_text(text)
        assert_input_error(cli("search", "min-partition", "--file", str(path)))

    @pytest.mark.parametrize("hyper,cover", [
        ('{"r": 2, "n": 4}', '{"r": 2, "blocks": []}'),
        (None, '{"r": 2, "blocks": [{"parts": 3}]}'),
        (None, '{"r": 2}'),
    ], ids=["no-edges", "parts-not-a-list", "no-blocks"])
    def test_verify(self, tmp_path, hyper, cover):
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        h.write_text(hyper or hypergraph_to_json(complete_hypergraph(4)))
        c.write_text(cover)
        assert_input_error(cli("verify", "--hypergraph", str(h),
                               "--cover", str(c), "--list", "any"))


class TestHostileSizes:
    """Sizes whose work has no practical bound are refused before it starts."""

    @pytest.mark.parametrize("argv", [
        ("search", "min-partition", "--file", "{big}"),
        ("construct", "cube-graph", "--r", "2", "--m", "100000"),
        ("rank", "--r", "4", "--m", "100000"),
        ("construct", "pi-partition", "--r", "3", "--m", "100000"),
        ("construct", "label-partition", "--r", "1000000"),
        ("verify", "--hypergraph", "{h}", "--cover", "{c}", "--list", "1..1000000000"),
    ], ids=["enumerate", "cube-graph", "rank", "pi-partition", "label-partition", "list"])
    def test_refused_at_once(self, tmp_path, argv):
        files = {"big": tmp_path / "big.json", "h": tmp_path / "h.json",
                 "c": tmp_path / "c.json"}
        files["big"].write_text('{"r": 2, "n": 2000000, "edges": []}')
        h, c = log_cover(4)
        files["h"].write_text(hypergraph_to_json(h))
        files["c"].write_text(cover_to_json(c))
        start = time.perf_counter()
        proc = cli(*(a.format(**files) for a in argv))
        elapsed = time.perf_counter() - start
        assert_input_error(proc)
        assert "exceeds guard" in proc.stderr
        assert elapsed < 1.0


class TestPayloadSchemas:
    """Payload key sets are part of the interface; keep them frozen."""

    def test_construct_keys(self, capsys):
        _, payload, _ = run(capsys, "construct", "star-partition", "--n", "4")
        assert sorted(payload) == ["blocks", "edges", "kind", "n", "r", "written"]

    def test_verify_keys(self, capsys, tmp_path):
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        run(capsys, "construct", "log-cover", "--n", "4",
            "--hypergraph-out", str(h), "--cover-out", str(c))
        _, payload, _ = run(capsys, "verify", "--hypergraph", str(h),
                            "--cover", str(c), "--list", "any")
        assert sorted(payload) == ["foreign", "histogram", "list", "status", "witness"]

    def test_rank_keys(self, capsys):
        _, payload, _ = run(capsys, "rank", "--r", "4", "--m", "1")
        assert sorted(payload) == [
            "m", "partition_lower_bound", "r", "rank", "rank_lower_bound", "status",
        ]

    def test_bounds_keys(self, capsys):
        _, payload, _ = run(capsys, "bounds", "matching", "--nu", "1",
                            "--edges", "1", "--r", "2")
        assert sorted(payload) == ["direction", "inputs", "name", "value"]

    def test_search_keys(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(hypergraph_to_json(complete_hypergraph(3)))
        _, payload, _ = run(capsys, "search", "min-partition", "--file", str(path))
        assert sorted(payload) == ["exact", "goal", "lower", "report", "status", "value"]
