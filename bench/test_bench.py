"""Self-test of the benchmark: a clean pass succeeds, corrupted outputs fail.

    python3 -m pytest bench/test_bench.py -q

The negative controls feed the cover-pipeline checks a cover with one block
dropped and a wrong pinned value, and expect failed jobs, so a check that
stopped checking would show here.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


def one_pass(workload, pins=workloads.PINS, adjust=lambda ctx, jobs: jobs):
    ctx = run.setup(workload, seed=1)
    try:
        jobs = adjust(ctx, workloads.build_jobs(ctx, pins))
        record = run.Record()
        run.run_pass(jobs, record)
    finally:
        run.remove_workdir(ctx)
    return record


def failed_ratio(record):
    return len(record.failures) / record.attempted


def test_clean_pass_has_no_failures():
    record = one_pass("cover-pipeline")
    assert record.attempted == 5
    assert failed_ratio(record) == 0, record.failures


def test_dropped_block_fails_verification():
    def drop_a_block(ctx, jobs):
        path = ctx.path("hex.c.json")
        construct = jobs[0]

        def run_then_drop():
            result = construct.run()
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["blocks"].pop()
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return result

        return [workloads.Job(construct.name, run_then_drop, construct.check)] + jobs[1:]

    record = one_pass("cover-pipeline", adjust=drop_a_block)
    assert failed_ratio(record) > 0
    assert any(f.startswith("verify hex") for f in record.failures), record.failures


def test_wrong_pin_fails():
    pins = dict(workloads.PINS, **{"grid3.blocks": workloads.PINS["grid3.blocks"] + 1})
    record = one_pass("cover-pipeline", pins=pins)
    assert failed_ratio(record) > 0
    assert [f.split(":")[0] for f in record.failures] == ["construct grid3-cover"]


def test_guard_override_is_refused():
    env = dict(os.environ, HYPERCOVER_GUARD_OVERRIDE="0")
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "cube-bracket",
                           "--seed", "1", "--seconds", "1"],
                          cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
                           "cover-pipeline", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span("a", 0.0, 0, -1, end=10.0),
             tracing.Span("b", 1.0, 0, 0, end=4.0),
             tracing.Span("c", 5.0, 0, 0, end=6.0),
             tracing.Span("d", 2.0, 0, 1, end=3.0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_rebinds_imported_copies():
    hc, _ = run.import_package()
    original = hc.core.complete_hypergraph
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hc.grids.complete_hypergraph is hc.core.complete_hypergraph is not original
        hc.grids.hex_cover(3)
    finally:
        tracer.uninstall()
    assert hc.grids.complete_hypergraph is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "grids.build" and "core.canon" in names
    assert tracer.spans[names.index("core.canon")].parent == 0
    assert tracer.spans[0].counts == {"blocks": len(hc.hex_cover(3)[1].blocks)}
