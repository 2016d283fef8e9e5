"""The command-line surface: payload schemas, exit codes, round trips."""

import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

import hypercover
from hypercover import cli as cli_module, oracles
from hypercover.cli import EXIT_ERROR, EXIT_FAIL, EXIT_OK, EXIT_UNKNOWN, build_parser, main
from hypercover import (Hypergraph, MultiplicityList, SearchBudget, complete_hypergraph, cover_to_json,
                        hypergraph_to_json, log_cover)


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
        # a path on 9 of 4,000 vertices: its block table's masks may take
        # 4,000 * (8 + 4,000) bits, over the guard; four stars of order 3 cover it
        path = tmp_path / "path.json"
        path.write_text(hypergraph_to_json(Hypergraph(2, 4000, [(v, v + 1) for v in range(8)])))
        code, _, err = run(capsys, "search", "min-sum-orders", "--file", str(path))
        assert code == EXIT_ERROR and "guard" in err
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", "1")
        code, payload, _ = run(capsys, "search", "min-sum-orders", "--file", str(path))
        assert code == EXIT_OK and payload["value"] == 12


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

    def test_recognised_host_is_held_once(self, capsys, tmp_path):
        # K_600's document is recognised in the bytes read from the file: the
        # run peaked at 1.16 of the file's size, and at 2.12 when the file was
        # read as text, its bytes and its str held at once
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        h.write_text(hypergraph_to_json(complete_hypergraph(600)) + "\n", encoding="utf-8")
        c.write_text('{"r":2,"blocks":[]}', encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["verify", "--hypergraph", str(h), "--cover", str(c), "--list", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FAIL and payload["histogram"] == {"0": 179_700}
        assert peak < 1.5 * h.stat().st_size

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

    def test_partition_and_list_together_are_a_usage_error(self, capsys, tmp_path):
        # --partition judges against {1}; a --list beside it is refused, never ignored
        h, c = self.build(capsys, tmp_path, "hex-cover", "--m", "2")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--hypergraph", h, "--cover", c, "--partition", "--list", "2,3"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_neither_partition_nor_list_is_a_parameter_error(self, capsys, tmp_path):
        h, c = self.build(capsys, tmp_path, "hex-cover", "--m", "2")
        code, payload, err = run(capsys, "verify", "--hypergraph", h, "--cover", c)
        assert code == EXIT_ERROR and payload is None
        assert err == "error: pass --list or --partition\n"

    @pytest.mark.parametrize("lst, message", [
        ("0..5", "multiplicities must be positive"),
        ("2,x", "invalid literal for int()"),
        (None, "pass --list or --partition"),
    ])
    def test_list_is_read_before_either_file(self, capsys, tmp_path, lst, message):
        # neither file exists: the list error shows that no file was opened
        missing = str(tmp_path / "missing.json")
        argv = ["verify", "--hypergraph", missing, "--cover", missing]
        code, payload, err = run(capsys, *argv, *(["--list", lst] if lst else []))
        assert code == EXIT_ERROR and payload is None
        assert message in err and "missing.json" not in err


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

    @pytest.mark.parametrize("r,m,rank", [(4, 3, 342), (6, 2, 440)])
    def test_certificates_beyond_m2(self, capsys, r, m, rank):
        code, payload, _ = run(capsys, "rank", "--r", str(r), "--m", str(m))
        assert code == EXIT_OK
        assert payload["rank"] == payload["rank_lower_bound"] == rank
        assert payload["status"] == "ok"

    def test_odd_r_rejected(self, capsys):
        code, _, err = run(capsys, "rank", "--r", "3", "--m", "1")
        assert code == EXIT_ERROR
        assert "even" in err

    @pytest.mark.parametrize("r,names,absent", [
        ("2", ["link_lower_bound", "search min-partition"], "partition_lower_bound"),
        ("3", ["partition_lower_bound", "r-1"], "link_lower_bound"),
        ("5", ["partition_lower_bound", "r-1"], "link_lower_bound"),
    ])
    def test_below_four_or_odd_names_what_applies(self, capsys, r, names, absent):
        # partition_lower_bound needs r >= 3, so r = 2 is pointed elsewhere
        code, payload, err = run(capsys, "rank", "--r", r, "--m", "1")
        assert code == EXIT_ERROR and payload is None
        assert err.startswith("error: certificates need even r >= 4")
        assert all(name in err for name in names) and absent not in err


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
        assert payload["lower"] == 3  # the link bound of K_4: n - 1
        assert payload["value"] is None

    def test_min_cover_requires_list(self, capsys, tmp_path):
        code, _, err = run(capsys, "search", "min-cover",
                           "--file", self.write_k4(tmp_path))
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("argv, message", [
        (("min-cover",), "--list is required"),
        (("min-cover", "--list", "0..5"), "multiplicities must be positive"),
        (("min-cover", "--list", "2,x"), "invalid literal for int()"),
        (("min-partition", "--list", "2"), "--list does not apply to min-partition"),
        (("min-sum-orders", "--list", "any"), "--list does not apply to min-sum-orders"),
        (("min-sum-orders", "--max-blocks", "0"), "--max-blocks does not apply to min-sum-orders"),
        (("min-partition", "--max-seconds", "0"), "max_seconds"),
    ], ids=["no-list", "list-0..5", "list-2,x", "partition-list", "sum-orders-list",
            "sum-orders-max-blocks", "budget"])
    def test_options_are_read_before_the_file(self, capsys, tmp_path, argv, message):
        # the file does not exist: the option error shows that it was not opened
        missing = str(tmp_path / "missing.json")
        code, payload, err = run(capsys, "search", argv[0], "--file", missing, *argv[1:])
        assert code == EXIT_ERROR and payload is None
        assert err.startswith("error:") and message in err and "missing.json" not in err

    def test_lower_end_beyond_a_float_is_refused(self, capsys, tmp_path):
        # no multiplicity of the list is reachable within the budget, so the
        # proven lower end is max_blocks + 1 = 10^399 + 1, which no float holds
        code, payload, err = run(capsys, "search", "min-cover", "--file",
                                 self.write_k4(tmp_path), "--list", str(10**400),
                                 "--max-blocks", str(10**399))
        assert code == EXIT_ERROR and payload is None
        assert err.startswith("error:") and "float" in err

    @pytest.mark.parametrize("seconds", ["nan", "inf", "0"])
    def test_max_seconds_must_be_finite_and_positive(self, capsys, tmp_path, seconds):
        code, _, err = run(capsys, "search", "min-partition",
                           "--file", self.write_k4(tmp_path), "--max-seconds", seconds)
        assert code == EXIT_ERROR and "max_seconds" in err

    def test_max_blocks_does_not_apply_to_min_sum_orders(self, capsys, tmp_path):
        # the cost search has no block budget: the option is refused, not ignored
        code, payload, err = run(capsys, "search", "min-sum-orders",
                                 "--file", self.write_k4(tmp_path), "--max-blocks", "0")
        assert code == EXIT_ERROR and payload is None
        assert "--max-blocks does not apply to min-sum-orders" in err

    def test_min_cover_looked_up_when_called(self, capsys, tmp_path, monkeypatch):
        # a wrapper bound in place of the oracle sees the CLI's min-cover jobs
        calls = []
        oracle = oracles.min_cover_size
        monkeypatch.setattr(oracles, "min_cover_size",
                            lambda *args: calls.append(args[1]) or oracle(*args))
        code, payload, _ = run(capsys, "search", "min-cover",
                               "--file", self.write_k4(tmp_path), "--list", "any")
        assert code == EXIT_OK and payload["value"] == 2
        assert calls == [MultiplicityList.any_positive()]

    def test_budget_defaults_are_search_budgets(self, capsys, tmp_path, monkeypatch):
        budgets = []
        search = oracles._search
        monkeypatch.setattr(oracles, "_search", lambda h, parts, masks, lst, budget, **kw:
                            budgets.append(budget) or search(h, parts, masks, lst, budget, **kw))
        k4 = self.write_k4(tmp_path)
        for argv in (("min-partition",), ("min-sum-orders",), ("min-cover", "--list", "any")):
            code, _, _ = run(capsys, "search", argv[0], "--file", k4, *argv[1:])
            assert code == EXIT_OK
        assert budgets == [SearchBudget()] * 3


def cli(*argv, memory_mb=None):
    """Run the command in a fresh interpreter, so a traceback would show,
    with its address space capped at memory_mb if given."""
    src = os.path.dirname(os.path.dirname(hypercover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("HYPERCOVER_GUARD_OVERRIDE", None)

    def cap():
        limit = memory_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "hypercover.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=cap if memory_mb else None)


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
        '{"r": "2", "n": 3.9, "edges": [[0,1],[0,2],[1,2]]}',
        '{"r": 2, "n": 3.9, "edges": [[0,1],[0,2],[1,2]]}',
        '{"r": 2, "n": 1e400, "edges": []}',
        '{"r": 2, "n": true, "edges": []}',
        '{"r": 2.0, "n": 3, "edges": [[0,1]]}',
        '{"r": 2, "n": 3, "edges": ""}',
        '{"r": 2, "n": 3, "edges": {}}',
    ], ids=["no-edges", "edges-not-a-list", "not-an-object", "deep-nesting",
            "string-r", "float-n", "overflowing-n", "bool-n", "float-r",
            "edges-empty-string", "edges-empty-object"])
    def test_search(self, tmp_path, text):
        path = tmp_path / "h.json"
        path.write_text(text)
        assert_input_error(cli("search", "min-partition", "--file", str(path)))

    @pytest.mark.parametrize("hyper,cover", [
        ('{"r": 2, "n": 4}', '{"r": 2, "blocks": []}'),
        (None, '{"r": 2, "blocks": [{"parts": 3}]}'),
        (None, '{"r": 2}'),
        ('{"r": "2", "n": 3.9, "edges": [[0,1],[0,2],[1,2]]}',
         '{"r": 2.7, "blocks": [{"parts": [[0],[1,2]]},{"parts": [[1],[2]]}]}'),
        (None, '{"r": 2.7, "blocks": [{"parts": [[0],[1,2]]},{"parts": [[1],[2]]}]}'),
        (None, '{"r": "2", "blocks": [{"parts": [[0],[1,2]]},{"parts": [[1],[2]]}]}'),
        ('{"r": 2, "n": 3, "edges": ""}', '{"r": 2, "blocks": {}}'),
        ('{"r": 2, "n": 3, "edges": {}}', '{"r": 2, "blocks": []}'),
        (None, '{"r": 2, "blocks": ""}'),
        (None, '{"r": 2, "blocks": [{"parts": {}}]}'),
    ], ids=["no-edges", "parts-not-a-list", "no-blocks", "non-integer-r-and-n",
            "float-cover-r", "string-cover-r", "empty-string-edges-and-object-blocks",
            "empty-object-edges", "empty-string-blocks", "empty-object-parts"])
    def test_verify(self, tmp_path, hyper, cover):
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        h.write_text(hyper or hypergraph_to_json(complete_hypergraph(3)))
        c.write_text(cover)
        assert_input_error(cli("verify", "--hypergraph", str(h),
                               "--cover", str(c), "--list", "any"))


class TestNonIntegerVertices:
    """Vertices must be JSON integers: true, 2.5 and "2" are refused, not rounded."""

    @pytest.mark.parametrize("hyper,cover", [
        ('{"r":2,"n":3,"edges":[[0,1],[0,2],[1,2]]}',
         '{"r":2,"blocks":[{"parts":[[0.9],[true,2.5]]},{"parts":[[1],[2]]}]}'),
        ('{"r":2,"n":3,"edges":[[0,1.7]]}', '{"r":2,"blocks":[{"parts":[[0],[1]]}]}'),
        ('{"r":2,"n":3,"edges":[[0,"2"]]}', '{"r":2,"blocks":[{"parts":[[0],[2]]}]}'),
    ], ids=["float-and-bool-part", "float-edge", "string-edge"])
    def test_verify_partition(self, tmp_path, hyper, cover):
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        h.write_text(hyper)
        c.write_text(cover)
        proc = cli("verify", "--hypergraph", str(h), "--cover", str(c), "--partition")
        assert_input_error(proc)
        assert "integer" in proc.stderr


class TestHostileSizes:
    """Sizes whose work has no practical bound are refused before it starts."""

    @pytest.mark.parametrize("argv", [
        ("search", "min-partition", "--file", "{big}"),
        ("construct", "cube-graph", "--r", "2", "--m", "100000"),
        ("rank", "--r", "4", "--m", "100000"),
        ("construct", "pi-partition", "--r", "3", "--m", "100000"),
        ("construct", "label-partition", "--r", "1000000"),
        ("verify", "--hypergraph", "{h}", "--cover", "{c}", "--list", "1..1000000000"),
        ("construct", "hex-cover", "--m", "1000000"),
        ("construct", "grid3-cover", "--m", "1000000"),
        ("construct", "grid3-cover", "--m", "1" + "0" * 400),
        ("construct", "star-partition", "--n", "1000000"),
        ("construct", "log-cover", "--n", "1000000"),
        ("rank", "--r", "10000", "--m", "1"),
        ("search", "min-cover", "--file", "{k4}", "--list", "1000000000",
         "--max-blocks", "1000000000"),
    ], ids=["enumerate", "cube-graph", "rank", "pi-partition", "label-partition", "list",
            "hex-cover", "grid3-cover", "grid3-cover-401-digits", "star-partition",
            "log-cover", "rank-wide", "search-planes"])
    def test_refused_at_once(self, tmp_path, argv):
        files = {"big": tmp_path / "big.json", "h": tmp_path / "h.json",
                 "c": tmp_path / "c.json", "k4": tmp_path / "k4.json"}
        files["big"].write_text('{"r": 2, "n": 2000000, "edges": []}')
        files["k4"].write_text(hypergraph_to_json(complete_hypergraph(4)))
        h, c = log_cover(4)
        files["h"].write_text(hypergraph_to_json(h))
        files["c"].write_text(cover_to_json(c))
        start = time.perf_counter()
        proc = cli(*(a.format(**files) for a in argv))
        elapsed = time.perf_counter() - start
        assert_input_error(proc)
        assert "exceeds guard" in proc.stderr
        assert elapsed < 1.0


    @pytest.mark.parametrize("edges", [
        [],  # the stars and adjacency masks of 2*10^6 vertices
        [(0, v) for v in range(1, 41)],  # K_{1,40}: 2^40 - 1 blocks
        [(u, v) for u in range(16) for v in range(u + 1, 16)],  # K_16: 21.5M blocks
    ], ids=["n-2000000", "star-40", "K_16"])
    def test_block_table_refused_at_once(self, tmp_path, edges):
        path = tmp_path / "h.json"
        n = 2_000_000 if not edges else max(map(max, edges)) + 1
        path.write_text(json.dumps({"r": 2, "n": n, "edges": edges}))
        start = time.perf_counter()
        proc = cli("search", "min-partition", "--file", str(path), memory_mb=512)
        elapsed = time.perf_counter() - start
        assert_input_error(proc)
        assert "block table work" in proc.stderr and "exceeds guard" in proc.stderr
        assert elapsed < 1.0

    def test_count_too_long_to_print(self, tmp_path):
        # n has 3,000 digits, so the count n^2 has more than int-to-str allows
        path = tmp_path / "h.json"
        path.write_text('{"r": 2, "n": 1' + "0" * 3000 + ', "edges": []}')
        proc = cli("search", "min-partition", "--file", str(path))
        assert_input_error(proc)
        assert "block table work: at least 2^" in proc.stderr
        assert "exceeds guard" in proc.stderr

    @pytest.mark.parametrize("low", [list(range(50_000)), [*range(30_000), 89_999]],
                             ids=["half-half", "one-high-vertex"])
    def test_foreign_coverage_refused(self, tmp_path, low):
        # one block on 100,000 vertices, none of its r-sets an edge, whose
        # masks add up to over 2*10^9 bits; in the second the low part has
        # one vertex just below the high part, so only the widest mask of a
        # part bounds the work
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        h.write_text('{"r": 2, "n": 100000, "edges": []}')
        c.write_text(json.dumps({"r": 2, "blocks": [
            {"parts": [low, list(range(low[-1] + 1, 100_000))]}]}))
        start = time.perf_counter()
        proc = cli("verify", "--hypergraph", str(h), "--cover", str(c), "--list", "any",
                   memory_mb=512)
        elapsed = time.perf_counter() - start
        assert_input_error(proc)
        assert "exceeds guard" in proc.stderr
        assert elapsed < 1.0


BIG = "1" + "0" * 400  # a 401-digit option value


class TestOddFlagValues:
    """Hostile option values end in a documented exit code at once, never in a
    traceback or a run without bound."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("flags")
        files = {name: tmp / f"{name}.json" for name in ("k4", "wide_h", "wide_c")}
        files["k4"].write_text(hypergraph_to_json(complete_hypergraph(4)))
        # one block of 8,000 singleton parts, whose one r-set is not an edge
        files["wide_h"].write_text('{"r": 8000, "n": 8000, "edges": []}')
        files["wide_c"].write_text(json.dumps({"r": 8000, "blocks": [
            {"parts": [[v] for v in range(8000)]}]}))
        return files

    @pytest.mark.parametrize("argv", [
        ("search", "min-cover", "--file", "{k4}", "--list", "1000000000"),
        ("search", "min-cover", "--file", "{k4}", "--list", "2,1000000000"),
        ("search", "min-cover", "--file", "{k4}", "--list", BIG),
        ("search", "min-cover", "--file", "{k4}", "--list", BIG, "--max-blocks", BIG),
        ("bounds", "ks-order", "--n", BIG, "--alpha", "1", "--r", "2"),
        ("bounds", "ks-order", "--n", "8", "--alpha", "1", "--r", BIG),
        ("bounds", "ks-order", "--n", "8", "--alpha", BIG, "--r", "2"),
        ("bounds", "ks-order", "--n", "8", "--alpha", "1", "--r", "100000000000000000"),
        ("bounds", "ks-chromatic", "--k", BIG, "--r", "2"),
        ("bounds", "ks-chromatic", "--k", "20", "--r", BIG),
        ("bounds", "matching", "--nu", BIG, "--edges", BIG, "--r", "2"),
        ("bounds", "matching", "--nu", "2", "--edges", "6", "--r", BIG),
        ("bounds", "independent-matchings", "--k", BIG, "--m", "1", "--edges", BIG,
         "--r", "2"),
        ("bounds", "independent-matchings", "--k", "4", "--m", "2", "--edges", "16",
         "--r", BIG),
        ("construct", "cube-graph", "--r", "1000000", "--m", "1"),
        ("construct", "pi-partition", "--r", "1000000", "--m", "1"),
        # r + 1 = 10^7 vertices and blocks x vertices: the widest the size guards admit
        ("construct", "cube-graph", "--r", "9999999", "--m", "1"),
        ("construct", "pi-partition", "--r", "9999999", "--m", "1"),
        ("verify", "--hypergraph", "{wide_h}", "--cover", "{wide_c}", "--partition"),
    ], ids=["list-1e9", "list-2-and-1e9", "list-401-digits", "list-and-budget-401-digits",
            "ks-order-n", "ks-order-r", "ks-order-alpha", "ks-order-r-1e17",
            "ks-chromatic-k", "ks-chromatic-r", "matching-nu-edges", "matching-r",
            "independent-matchings-k-edges", "independent-matchings-r",
            "cube-graph-wide", "pi-partition-wide", "cube-graph-widest",
            "pi-partition-widest", "verify-8000-singletons"])
    def test_documented_exit_at_once(self, files, argv):
        start = time.perf_counter()
        proc = cli(*(a.format(**files) for a in argv), memory_mb=2048)
        elapsed = time.perf_counter() - start
        assert proc.returncode in (EXIT_OK, EXIT_FAIL, EXIT_UNKNOWN, EXIT_ERROR), proc.stderr
        assert "Traceback" not in proc.stderr
        assert elapsed < 2.0

    def test_unreachable_multiplicities_are_dropped(self, capsys, files):
        path = str(files["k4"])
        results = [run(capsys, "search", "min-cover", "--file", path, "--list", lst)
                   for lst in ("2", "2,1000000000")]
        assert results[0][0] == results[1][0] == EXIT_OK
        assert results[0][1]["value"] == results[1][1]["value"] == 3
        code, payload, _ = run(capsys, "search", "min-cover", "--file", path,
                               "--list", "1000000000")
        assert code == EXIT_UNKNOWN
        assert payload["lower"] == 17  # past --max-blocks 16; the link bound is 3

    @pytest.mark.parametrize("argv", [
        ("bounds", "ks-order", "--n", BIG, "--alpha", "1", "--r", "2"),
        ("bounds", "ks-order", "--n", "8", "--alpha", "1", "--r", BIG),
        ("bounds", "ks-chromatic", "--k", BIG, "--r", "2"),
        ("bounds", "matching", "--nu", "2", "--edges", "6", "--r", BIG),
        ("bounds", "independent-matchings", "--k", BIG, "--m", "1", "--edges", BIG,
         "--r", "2"),
        # k fits a float, but the bound rounds to infinity
        ("bounds", "ks-chromatic", "--k", str(10**305), "--r", "5"),
    ], ids=["ks-order-n", "ks-order-r", "ks-chromatic-k", "matching-r",
            "independent-matchings-k-edges", "ks-chromatic-infinite"])
    def test_bounds_beyond_a_float_are_refused(self, capsys, argv):
        code, payload, err = run(capsys, *argv)
        assert code == EXIT_ERROR and payload is None
        assert err.startswith("error:") and "float" in err

    def test_ks_order_for_huge_r(self, capsys):
        # 1 + 1/(r-1) rounds to 1.0 here; log1p keeps the denominator exact enough
        code, payload, _ = run(capsys, "bounds", "ks-order", "--n", "8", "--alpha", "1",
                               "--r", "100000000000000000")
        assert code == EXIT_OK
        assert payload["value"] == pytest.approx(8 * 3 * math.log(2) * 1e17)


class TestSparseLargeN:
    """Few edges on many vertices cost what the blocks span, not n."""

    def test_spread_matching_in_bounded_memory(self, tmp_path):
        # 20,000 edges 50 apart on 10^6 vertices: masks as wide as the vertex
        # ids would take about 1.2 GB, over the 512 MB cap
        edges = [[50 * i, 50 * i + 1] for i in range(20_000)]
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        h.write_text(json.dumps({"r": 2, "n": 1_000_000, "edges": edges}))
        c.write_text(json.dumps({"r": 2, "blocks": [{"parts": [[u], [v]]}
                                                    for u, v in edges[::20]]}))
        proc = cli("verify", "--hypergraph", str(h), "--cover", str(c), "--list", "1",
                   memory_mb=512)
        assert proc.returncode == EXIT_FAIL, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["histogram"] == {"0": 19_000, "1": 1_000}
        assert payload["foreign"] == 0
        assert payload["witness"] == {"edge": [50, 51], "multiplicity": 0,
                                      "reason": "multiplicity"}

    def test_star_partition_within_guard(self, tmp_path):
        # the leaves 0..2999 below their centre 3000, as one block on 10^6
        # vertices: 3,000 prefix-mask adds of at most 3,000 bits each, where
        # adds x n would be 3*10^9
        leaves = list(range(3000))
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        h.write_text(json.dumps({"r": 2, "n": 1_000_000,
                                 "edges": [[v, 3000] for v in leaves]}))
        c.write_text(json.dumps({"r": 2, "blocks": [{"parts": [leaves, [3000]]}]}))
        proc = cli("verify", "--hypergraph", str(h), "--cover", str(c), "--partition")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["histogram"] == {"1": 3000}


    def test_search_skips_vertices_in_no_edge(self, capsys, tmp_path, monkeypatch):
        # such a vertex can be in no block, so listing the blocks of the
        # edgeless graph takes time linear in n, not doubling per vertex
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"r": 2, "n": 1200, "edges": []}))
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", "1")
        start = time.perf_counter()
        code, payload, _ = run(capsys, "search", "min-partition", "--file", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK and payload["value"] == 0

    def test_part_far_below_the_prefixes(self, tmp_path):
        # one 3-uniform block with 2 r-sets on 4*10^9 vertices; its part
        # {0, n-1} adds only above the prefix (n-3, n-2), so it never needs
        # a mask from 0
        n = 4_000_000_000
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        h.write_text(json.dumps({"r": 3, "n": n, "edges": []}))
        c.write_text(json.dumps({"r": 3, "blocks": [{"parts": [[0, n - 1], [n - 3], [n - 2]]}]}))
        proc = cli("verify", "--hypergraph", str(h), "--cover", str(c), "--list", "any",
                   memory_mb=256)
        assert proc.returncode == EXIT_FAIL, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["foreign"] == 2
        assert payload["witness"] == {"edge": [0, n - 3, n - 2], "multiplicity": 1,
                                      "reason": "foreign"}


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


# stdout of one invocation per construct kind, bounds name and search goal,
# plus verify and rank; "{tmp}" stands for the test's directory
STDOUT_PINS = [
    (("construct", "hex-cover", "--m", "3", "--hypergraph-out", "{tmp}/h3.json",
      "--cover-out", "{tmp}/c3.json"), 0,
     '{"blocks": 12, "edges": 171, "kind": "hex-cover", "n": 19, "r": 2,'
     ' "written": ["{tmp}/h3.json", "{tmp}/c3.json"]}\n'),
    (("construct", "grid3-cover", "--m", "3", "--cover-out", "{tmp}/g.json"), 0,
     '{"blocks": 8, "edges": 84, "kind": "grid3-cover", "n": 9, "r": 3,'
     ' "written": ["{tmp}/g.json"]}\n'),
    (("construct", "star-partition", "--n", "5"), 0,
     '{"blocks": 4, "edges": 10, "kind": "star-partition", "n": 5, "r": 2, "written": []}\n'),
    (("construct", "log-cover", "--n", "6", "--hypergraph-out", "{tmp}/l.json"), 0,
     '{"blocks": 3, "edges": 15, "kind": "log-cover", "n": 6, "r": 2,'
     ' "written": ["{tmp}/l.json"]}\n'),
    (("construct", "cube-graph", "--r", "2", "--m", "2", "--cover-out", "{tmp}/unused.json"), 0,
     '{"edges": 16, "kind": "cube-graph", "n": 9, "r": 2, "written": []}\n'),
    (("construct", "pi-partition", "--r", "2", "--m", "2"), 0,
     '{"blocks": 4, "edges": 16, "kind": "pi-partition", "n": 9, "pinto_upper_bound": 4,'
     ' "r": 2, "written": []}\n'),
    (("construct", "label-partition", "--r", "3", "--table-out", "{tmp}/t.txt",
      "--hypergraph-out", "{tmp}/unused.json"), 0,
     '{"blocks": 10, "kind": "label-partition", "r": 3, "table": "0a1  0a2  0a3\\n'
     '     *a2  1a3\\n          2a3\\n          *a3\\n\\n0a1  1a2  0a3\\n          1a3\\n'
     '          *a3\\n\\n0a1  2a2  0a3\\n          2a3\\n          *a3\\n\\n1a1  0a2  0a3\\n'
     '          1a3\\n          *a3\\n\\n1a1  1a2  0a3\\n     *a2  1a3\\n          2a3\\n'
     '          *a3\\n\\n1a1  2a2  1a3\\n          2a3\\n          *a3\\n\\n2a1  0a2  0a3\\n'
     '          2a3\\n          *a3\\n\\n2a1  1a2  1a3\\n          2a3\\n          *a3\\n\\n'
     '2a1  2a2  0a3\\n     *a2  1a3\\n          2a3\\n          *a3\\n\\n*a1  0a2  0a3\\n'
     '     1a2  1a3\\n     2a2  2a3\\n     *a2  *a3\\n", "written": ["{tmp}/t.txt"]}\n'),
    (("verify", "--hypergraph", "{tmp}/h.json", "--cover", "{tmp}/c.json", "--list", "2,3"), 0,
     '{"foreign": 0, "histogram": {"2": 84, "3": 87}, "list": "2,3", "status": "ok",'
     ' "witness": null}\n'),
    (("verify", "--hypergraph", "{tmp}/h.json", "--cover", "{tmp}/c.json", "--list", "1"), 1,
     '{"foreign": 0, "histogram": {"2": 84, "3": 87}, "list": "1", "status": "fail",'
     ' "witness": {"edge": [0, 1], "multiplicity": 2, "reason": "multiplicity"}}\n'),
    (("rank", "--r", "4", "--m", "1"), 0,
     '{"m": 1, "partition_lower_bound": 1, "r": 4, "rank": 6, "rank_lower_bound": 6,'
     ' "status": "ok"}\n'),
    (("rank", "--r", "4", "--m", "2"), 0,
     '{"m": 2, "partition_lower_bound": 8, "r": 4, "rank": 48, "rank_lower_bound": 48,'
     ' "status": "ok"}\n'),
    (("bounds", "ks-order", "--n", "8", "--alpha", "1", "--r", "2"), 0,
     '{"direction": "lower", "inputs": {"alpha": 1.0, "n": 8, "r": 2}, "name": "ks-order",'
     ' "value": 24.0}\n'),
    (("bounds", "ks-chromatic", "--k", "20", "--r", "3"), 0,
     '{"direction": "lower", "inputs": {"k": 20, "r": 3}, "name": "ks-chromatic",'
     ' "value": -383.1797579994763}\n'),
    (("bounds", "matching", "--nu", "2", "--edges", "6", "--r", "2"), 0,
     '{"direction": "lower", "inputs": {"edges": 6, "nu": 2, "r": 2}, "name": "matching",'
     ' "value": 0.6666666666666666}\n'),
    (("bounds", "independent-matchings", "--k", "4", "--m", "2", "--edges", "16", "--r", "2"), 0,
     '{"direction": "lower", "inputs": {"edges": 16, "k": 4, "m": 2, "r": 2},'
     ' "name": "independent-matchings", "value": 1.0}\n'),
    (("search", "min-cover", "--file", "{tmp}/k4.json", "--list", "any"), 0,
     '{"exact": true, "goal": "min-cover", "lower": 2, "report": {"direction": "lower",'
     ' "inputs": {"edges": 6, "n": 4, "r": 2}, "name": "min-cover", "value": 2.0},'
     ' "status": "ok", "value": 2}\n'),
    (("search", "min-partition", "--file", "{tmp}/k5r3.json"), 0,
     '{"exact": true, "goal": "min-partition", "lower": 3, "report": {"direction": "lower",'
     ' "inputs": {"edges": 10, "n": 5, "r": 3}, "name": "min-partition", "value": 3.0},'
     ' "status": "ok", "value": 3}\n'),
    (("search", "min-sum-orders", "--file", "{tmp}/k4.json"), 0,
     '{"exact": true, "goal": "min-sum-orders", "lower": 8, "report": {"direction": "lower",'
     ' "inputs": {"edges": 6, "n": 4, "r": 2}, "name": "min-sum-orders", "value": 8.0},'
     ' "status": "ok", "value": 8}\n'),
    (("search", "min-partition", "--file", "{tmp}/k4.json", "--max-blocks", "1"), 3,
     '{"exact": false, "goal": "min-partition", "lower": 3, "report": {"direction": "lower",'
     ' "inputs": {"edges": 6, "n": 4, "r": 2}, "name": "min-partition", "value": 3.0},'
     ' "status": "unknown", "value": null}\n'),
]


class TestStdoutPins:
    """Every subcommand's stdout, byte for byte."""

    @pytest.fixture(scope="class")
    def pin_dir(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pins")
        h, c = hypercover.hex_cover(3)
        (tmp / "h.json").write_text(hypergraph_to_json(h) + "\n")
        (tmp / "c.json").write_text(cover_to_json(c) + "\n")
        (tmp / "k4.json").write_text(hypergraph_to_json(complete_hypergraph(4)))
        (tmp / "k5r3.json").write_text(hypergraph_to_json(complete_hypergraph(5, 3)))
        return str(tmp)

    @pytest.mark.parametrize("argv,code,stdout", STDOUT_PINS,
                             ids=[" ".join(argv[:2]) + f"-{i}"
                                  for i, (argv, _, _) in enumerate(STDOUT_PINS)])
    def test_stdout_is_pinned(self, capsys, pin_dir, argv, code, stdout):
        assert main([a.replace("{tmp}", pin_dir) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out.replace(pin_dir, "{tmp}") == stdout
        assert captured.err == ""


class TestParserKept:
    """main builds its parser once per process, and later calls print what a
    fresh parser would."""

    def test_calls_match_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        h, c, k4 = (str(tmp_path / name) for name in ("h.json", "c.json", "k4.json"))
        (tmp_path / "k4.json").write_text(hypergraph_to_json(complete_hypergraph(4)))
        calls = [["construct", "hex-cover", "--m", "3", "--hypergraph-out", h, "--cover-out", c],
                 ["construct", "no-such-kind"],  # a usage error, exit 2
                 ["verify", "--hypergraph", h, "--cover", c, "--list", "2,3"],
                 ["search", "min-partition", "--file", k4]]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        builds = []
        monkeypatch.setattr(cli_module, "build_parser", lambda: builds.append(1) or build_parser())
        cli_module._parser.cache_clear()
        kept = [outcome(argv) for argv in calls]
        assert len(builds) == 1
        fresh = []
        for argv in calls:
            cli_module._parser.cache_clear()
            fresh.append(outcome(argv))
        assert len(builds) == 1 + len(calls)
        assert [code for code, _, _ in kept] == [EXIT_OK, 2, EXIT_OK, EXIT_OK]
        assert kept == fresh
