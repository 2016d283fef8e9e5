"""hypercover benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload cover-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else. Whole passes over the workload's jobs run
until ``--seconds`` have passed. Set-up (import, work dir, seeded corpus,
reference warm-up) runs a few times first and again before every pass; its
median is reported as ``setup_s``. A fixed pure-Python reference task runs
right before and right after every job, and each job sample is reported as a
multiple of the mean of those two reference times, because the host's speed
drifts by tens of percent between runs and within them (see NOTES.md).

With ``--trace 1`` untraced and traced passes alternate, and one memory pass
under tracemalloc follows the timed window; the per-layer metrics come from
those. Spans are written to ``.bench_out/`` in the checkout.

Each job's output is checked. Diagnostics go to the second-to-last line of
stdout, and the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit status 2 means the run was refused (guard override set, or the package
missing from the checkout); no result is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

GUARD_ENV = "HYPERCOVER_GUARD_OVERRIDE"
SETUP_BEFORE_PASSES = 4  # set-ups before the first pass; one more precedes every pass
REFERENCE_ENTRIES = 27_000
REFERENCE_RESULT = 27_005  # checked, so a broken reference task is noticed
END_TO_END = {
    "setup_s": "s",
    "pass_ref": "ref",
    "slowest_job_ref": "ref",
    "peak_rss_mb": "MB",
}


class Refused(Exception):
    """The run cannot be measured here; nothing is printed on stdout."""


def reference_task() -> int:
    """Fixed work: fill a dict with fresh int keys and str values, then free it.

    It allocates and frees memory as the jobs do; an integer loop sped up
    less than the jobs when the host turned fast (see NOTES.md). It imports
    nothing from the package, and it allocates no object the garbage
    collector tracks (a dict holding only ints and strs is untracked), so the
    program's heap cannot change its time through collections.
    """
    table = {}
    for i in range(REFERENCE_ENTRIES):
        table[i * 7919] = str(i)
    return len(table) + len(table[(REFERENCE_ENTRIES - 1) * 7919])


def time_reference() -> float:
    t0 = perf_counter()
    value = reference_task()
    elapsed = perf_counter() - t0
    if value != REFERENCE_RESULT:
        raise RuntimeError(f"reference task returned {value}")
    return elapsed


def import_package():
    """Import hypercover afresh from this checkout's src directory."""
    for name in [n for n in sys.modules if n == "hypercover" or n.startswith("hypercover.")]:
        del sys.modules[name]
    try:
        hc = importlib.import_module("hypercover")
        cli = importlib.import_module("hypercover.cli")
    except ImportError as exc:
        raise Refused(f"cannot import hypercover from {ROOT / 'src'}: {exc}") from None
    where = Path(hc.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise Refused(f"hypercover was imported from {where}, not from this checkout")
    return hc, cli


def setup(workload: str, seed: int) -> workloads.Context:
    """Import, make the work dir, build the seeded corpus, warm the reference."""
    hc, cli = import_package()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    corpus = workloads.make_corpus(workload, seed, workdir)
    for _ in range(2):
        time_reference()
    return workloads.Context(workload, hc, cli, workdir, corpus)


def remove_workdir(ctx: workloads.Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(ROOT / ".bench_tmp")


@dataclass
class Record:
    """Times and failures of the passes of one mode (untraced or traced)."""

    samples: dict = field(default_factory=dict)  # job name -> (seconds, reference seconds)
    pass_times: list = field(default_factory=list)
    layer_passes: list = field(default_factory=list)  # traced: per-pass layer metrics
    spans: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)


def execute(job: workloads.Job, tracer: tracing.Tracer | None, job_id: int):
    """Run one job after a full collection, between two reference runs.

    Returns (job seconds, mean reference seconds, error or None). A job fails
    on an exception, a non-zero exit (checked by its check), text on stderr,
    or a failed check.
    """
    gc.collect()
    ref_before = time_reference()
    out, err = io.StringIO(), io.StringIO()
    error = result = None
    if tracer is not None:
        tracer.job = job_id
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = job.run()
    except (Exception, SystemExit) as exc:  # a job's failure is recorded, not raised
        error = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    ref = (ref_before + time_reference()) / 2
    if error is None and err.getvalue():
        error = f"stderr: {err.getvalue().strip()[:200]}"
    if error is None:
        try:
            job.check(result)
        except Exception as exc:  # any check error, a KeyError too, fails the job
            error = f"{type(exc).__name__}: {exc}"
    return elapsed, ref, error


def run_pass(jobs, record: Record, tracer: tracing.Tracer | None = None) -> None:
    total = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for i, job in enumerate(jobs):
            elapsed, ref, error = execute(job, tracer, i)
            record.samples.setdefault(job.name, []).append((elapsed, ref))
            record.attempted += 1
            total += elapsed
            if error is not None:
                record.failures.append(f"{job.name}: {error}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    record.pass_times.append(total)
    if tracer is not None and not tracer.memory:
        record.layer_passes.append(tracing.pass_metrics(tracer.spans, total))
        record.spans.append(tracer.dump())


def timed_passes(fresh_jobs, seconds: float, traced: bool) -> tuple[Record, Record | None]:
    """Whole passes until `seconds` have passed, each on a fresh set-up; with
    `traced`, untraced and traced passes alternate."""
    plain = Record()
    with_spans = Record() if traced else None
    deadline = perf_counter() + seconds
    while True:
        jobs = fresh_jobs()
        run_pass(jobs, plain)
        if traced:
            run_pass(jobs, with_spans, tracing.Tracer())
        if perf_counter() >= deadline:
            return plain, with_spans


def summarise(record: Record) -> dict:
    """pass_ref, slowest_job_ref and the raw figures behind them.

    A job's figure is the median over its samples of job time over the mean
    of the two reference runs around that sample, so that each sample is
    measured against the host's speed at that moment (see NOTES.md)."""
    in_refs = {name: statistics.median(s / r for s, r in samples)
               for name, samples in record.samples.items()}
    seconds = {name: statistics.median(s for s, _ in samples)
               for name, samples in record.samples.items()}
    refs = [r for samples in record.samples.values() for _, r in samples]
    return {
        "pass_ref": sum(in_refs.values()),
        "slowest_job_ref": max(in_refs.values()),
        "slowest_job": max(in_refs, key=in_refs.get),
        "pass_s": sum(seconds.values()),
        "ref_ms": statistics.median(refs) * 1e3,
        "passes": len(record.pass_times),
    }


def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, diagnostics)."""
    if GUARD_ENV in os.environ:
        raise Refused(f"{GUARD_ENV} is set; the size guards must stay on")
    setups, contexts = [], []

    def fresh_jobs():
        """Set up again, timed, and return the jobs on the new set-up.

        Set-ups spread over the run, so that their median samples the
        host's speed over the run's whole length, as the passes do."""
        if contexts:
            remove_workdir(contexts.pop())
        t0 = perf_counter()
        contexts.append(setup(workload, seed))
        setups.append(perf_counter() - t0)
        return workloads.build_jobs(contexts[-1])

    try:
        for _ in range(SETUP_BEFORE_PASSES):
            fresh_jobs()
        plain, traced = timed_passes(fresh_jobs, seconds, trace)
        jobs = workloads.build_jobs(contexts[-1])
        records = [plain]
        if trace:
            memory, tracer = Record(), tracing.Tracer(memory=True)
            tracemalloc.start()
            try:
                run_pass(jobs, memory, tracer)
            finally:
                tracemalloc.stop()
            records += [traced, memory]
    finally:
        for ctx in contexts:
            remove_workdir(ctx)

    summary = summarise(plain)
    attempted = sum(r.attempted for r in records)
    failures = [f for r in records for f in r.failures]
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "ref_ms": summary["ref_ms"],
        "pass_s": summary["pass_s"],
        "passes": summary["passes"],
        "slowest_job": summary["slowest_job"],
        "setup_runs_s": setups,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    if trace:
        layers = {name: statistics.median(p[name] for p in traced.layer_passes)
                  for name in traced.layer_passes[0]}
        layers.update(tracing.peak_metrics(tracer.spans))
        layers["trace.overhead"] = summarise(traced)["pass_ref"] / summary["pass_ref"] - 1
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in tracing.METRICS.items()}
        diagnostics["computed_counts"] = list(tracing.COMPUTED)
        diagnostics["spans_file"] = write_spans(workload, seed, traced.spans)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_ref": summary["pass_ref"],
            "slowest_job_ref": summary["slowest_job_ref"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, diagnostics


def write_spans(workload: str, seed: int, passes: list) -> str:
    """Write the traced passes' spans as [name, start, end, parent, job] rows."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                                "passes": passes}))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result, diagnostics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for failure in diagnostics["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
