"""peergrade benchmark: one workload per process, end-to-end or traced.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload paper-default --seed 0 --seconds 40 --trace 0

``--trace 0`` runs, in about ``--seconds`` seconds, one untimed warm-up
iteration of the workload and then timed iterations one after another.  The
fixed reference kernel of ``reference.py`` runs after every step of an
iteration (each CLI command, say), outside the timed intervals, and each
step's time is divided by the mean of the kernel times around it and
reported in reference-normalised seconds (``reference.NOMINAL_S``): on a
shared host whose speed changes every second or two and for minutes at a
time, the ratio holds where the raw time does not.  The result reports the
end-to-end metrics of ``BENCHMARK.json``: ``wall_s``, the median over
iterations of the normalised sum of their steps, ``setup_s``, the median
normalised set-up (data generation) inside those iterations, and
``peak_rss_mb``; the table before it also gives the raw medians.
A workload with a ``gate`` (paper-default, whose full-size run
takes longer than an iteration should) runs it once before the iterations,
checks it, inside the run's ``--seconds``.  ``--trace 1`` alternates
untraced and traced iterations, checks that their canonical outputs are
byte-identical, and reports the per-layer metrics; it runs at least one such
pair.  The spans are written as JSON lines under ``.bench_out/``.
``--smoke`` shrinks every workload to a size that runs in seconds.

The program is imported from ``src/`` of the checkout this file sits in; the
run fails, printing no result, when that is missing.  BLAS is pinned to one
thread before numpy is imported.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table and the run's provenance, which is
also written to ``.bench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from clock import Clock  # noqa: E402
from reference import NOMINAL_S, kernel  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# Units of the readable table beyond the metrics of BENCHMARK.json: each
# workload's phases (normalised medians over iterations), the raw medians,
# the reference kernel's median, the full-size gate run's raw time and the
# share of iterations that failed.
TABLE_UNITS = {"experiment_s": "s", "train_s": "s", "eval_s": "s", "baseline_s": "s",
               "roundtrip_s": "s", "propagation_s": "s", "raw_setup_s": "s", "raw_wall_s": "s",
               "reference_s": "s", "full_run_s": "s", "failed_frac": "ratio"}

# Traced share of experiment/train steps that the named child spans must cover.
MIN_COVERAGE = 0.95


def _git(*args: str):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args) -> dict:
    import numpy as np
    import scipy

    sha = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, and the names and units of the metrics a run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _keep_going(started: float, durations: list[float], seconds: float) -> bool:
    """Closed loop: start another iteration only if it should end by ``started + seconds``."""
    return time.perf_counter() - started + median(durations) <= seconds


class Tally:
    """Iterations attempted, with what their gates found.

    An iteration fails when it raises, when a gate reports a problem, or when
    its canonical outputs differ from the first iteration's (all iterations
    of a run use the same seed, traced or not).  A workload's full-size gate
    run is attempted too, but its outputs are not compared.
    """

    def __init__(self) -> None:
        self.attempts: list[list[str]] = []
        self.notes: dict[str, None] = {}
        self._first_output = None

    def attempt(self, call, clock, compare: bool = True):
        try:
            it = call(clock)
        except Exception as exc:  # a failing iteration is reported, not fatal
            self.attempts.append([f"{type(exc).__name__}: {exc}"])
            return None
        problems = list(it.problems)
        if compare:
            if self._first_output is None:
                self._first_output = it.output
            elif it.output != self._first_output:
                problems.append("canonical outputs differ from the first iteration's")
        self.attempts.append(problems)
        self.notes.update(dict.fromkeys(it.notes))
        return it

    def summary(self) -> dict:
        failed = sum(1 for p in self.attempts if p)
        return {"attempted": len(self.attempts), "failed": failed,
                "problems": [p for p in self.attempts if p], "notes": list(self.notes)}


def start(workload, tally: Tally, run_gate=None) -> dict:
    """Run the workload's gate, if it has one, and one warm-up iteration.

    ``run_gate(gate)`` attempts the gate in place of an untraced attempt.
    """
    table = {}
    gate = getattr(workload, "gate", None)
    if gate is not None:
        it = run_gate(gate) if run_gate else tally.attempt(gate, Clock(), compare=False)
        if it is not None:
            table["full_run_s"] = it.wall_s
    tally.attempt(workload.iterate, Clock())
    return table


def run_untraced(workload, seconds: float) -> dict:
    started = time.perf_counter()
    tally = Tally()
    table = start(workload, tally)
    refs, iterations, durations = [kernel()], [], []
    while True:
        t0 = time.perf_counter()
        clock = Clock(kernel, NOMINAL_S, refs[-1])
        it = tally.attempt(workload.iterate, clock)
        refs.append(clock.last)
        durations.append(time.perf_counter() - t0)
        if it is not None:
            iterations.append(it)
        if not _keep_going(started, durations, seconds):
            break
    if iterations:
        for p in workload.phases:
            table[p] = median(i.normalised[p] for i in iterations)
        table["wall_s"] = median(sum(i.normalised.values()) for i in iterations)
        table["raw_setup_s"] = median(i.phases["setup_s"] for i in iterations)
        table["raw_wall_s"] = median(i.wall_s for i in iterations)
    table["reference_s"] = median(refs)
    summary = tally.summary()
    table["peak_rss_mb"] = peak_rss_mb()
    table["failed_frac"] = summary["failed"] / summary["attempted"]
    return {**summary, "table": table, "samples": {
        "wall_s": [i.wall_s for i in iterations], "reference_s": refs,
        "setup_s": [i.phases["setup_s"] for i in iterations],
        "normalised_wall_s": [sum(i.normalised.values()) for i in iterations]}}


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced iterations; per-layer metrics from the traced.

    The gate, if the workload has one, runs traced too, so that the coverage
    of its full-size spans is checked.
    """
    from layers import allocations, coverage, median_metrics, per_layer, wrap_all
    from spans import Tracer

    started = time.perf_counter()
    tracer, tally = Tracer(), Tally()

    def traced_attempt(call, compare=True, covered=()):
        tracer.trace_id += 1
        wrap_all(tracer)
        try:
            it = tally.attempt(call, Clock(span=tracer.span), compare=compare)
        finally:
            tracer.restore()
        spans = [s for s in tracer.spans if s.trace == tracer.trace_id]
        for name, prefix, label in covered if it is not None else ():
            share = coverage(spans, name, prefix)
            if share < MIN_COVERAGE:
                tally.attempts[-1].append(f"traced child spans cover {share:.1%} of {label}")
        return it, spans

    start(workload, tally, lambda gate: traced_attempt(
        gate, compare=False, covered=workload.gate_coverage)[0])
    overheads, samples, durations = [], [], []
    while True:
        t0 = time.perf_counter()
        plain = tally.attempt(workload.iterate, Clock())
        traced, spans = traced_attempt(workload.iterate, covered=workload.coverage)
        if traced is not None:
            samples.append(per_layer(spans))
            if plain is not None:
                overheads.append(traced.wall_s - plain.wall_s)
        durations.append(time.perf_counter() - t0)
        if not _keep_going(started, durations, seconds):
            break
    tracer.write_jsonl(spans_path)
    table = median_metrics(samples) if samples else {}
    table.update(allocations(workload.generate))
    if overheads:
        table["trace.overhead_s"] = median(overheads)
    return {**tally.summary(), "iterations": len(samples),
            "spans": len(tracer.spans), "table": table}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a size that runs in seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "peergrade" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'peergrade'} is missing", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import peergrade
    from workloads import WORKLOADS

    if Path(peergrade.__file__).resolve().parent != (src / "peergrade").resolve():
        print(f"error: peergrade was imported from {peergrade.__file__}, not {src}",
              file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK_DIR / f"{stem}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.trace:
            result = run_traced(workload, args.seconds, OUT_DIR / f"{stem}.spans.jsonl")
        else:
            result = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = result["table"]
    spec = load_spec()["per_layer" if args.trace else "end_to_end"]
    catalog = {m["name"]: m["unit"] for m in spec}
    prov = provenance(args)
    print(f"# peergrade bench {stem}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for name, value in table.items():
        unit = catalog.get(name) or TABLE_UNITS[name]
        print(f"{name:36s} {value:16.6g} {unit}")
    for problem in result["problems"]:
        print("# problem: " + "; ".join(problem))
    for note in result["notes"]:
        print(f"# note: {note}")
    if args.trace:
        print("# computed, not measured: model.epoch_flop (from nnz(N) and the layer "
              "widths); model.epoch_gflops divides it by the measured model.epoch_ms")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": table[name], "unit": unit}
                    for name, unit in catalog.items() if name in table},
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"provenance": prov, **result, "result": summary}, indent=1,
                   sort_keys=True), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
