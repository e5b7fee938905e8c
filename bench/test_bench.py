"""Tests of the benchmark itself, on the smoke size of each workload.

Run from the root of the repository::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PHASES = {
    "paper-default": ("setup_s", "experiment_s"),
    "bundle-5k": ("setup_s", "roundtrip_s", "propagation_s", "baseline_s"),
    "cli-strategic": ("setup_s", "train_s", "eval_s", "baseline_s"),
}


def _run(*argv: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    code, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                       "--trace", trace, "--smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        table = {line.split()[0]: line.split()[1:] for line in lines[1:-1]
                 if not line.startswith("#")}
        for phase in PHASES[workload] + ("wall_s", "raw_wall_s", "raw_setup_s", "reference_s"):
            assert table[phase][1] == "s"
        assert table["peak_rss_mb"][1] == "MB"
        assert table["failed_frac"] == ["0", "ratio"]
        assert ("full_run_s" in table) == (workload == "paper-default")
        # A warm-up iteration (and paper-default's gate) before the timed ones.
        assert result["attempted"] >= (3 if workload == "paper-default" else 2)


def test_clock_normalises_each_step_by_the_kernel_times_around_it(monkeypatch):
    import clock as timing

    ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0, 3.5])  # steps of 1, 2 and 0.5 s
    monkeypatch.setattr(timing.time, "perf_counter", lambda: next(ticks))
    refs = iter([0.03, 0.02, 0.04])  # the kernel after each step; 0.01 before
    clock = timing.Clock(lambda: next(refs), nominal_s=1.0, last=0.01)
    for phase in ("setup_s", "work_s", "work_s"):
        with clock.step(phase):
            pass
    it = clock.iteration(b"x")
    assert it.phases == {"setup_s": 1.0, "work_s": 2.5}
    assert it.wall_s == 3.5
    assert it.normalised["setup_s"] == pytest.approx(1.0 / 0.02)
    assert it.normalised["work_s"] == pytest.approx(2.0 / 0.025 + 0.5 / 0.03)
    assert clock.last == 0.04


def test_untraced_run_reports_medians_of_normalised_iterations():
    from reference import NOMINAL_S

    class Fake:
        phases = ("setup_s",)

        def iterate(self, clock):
            with clock.step("setup_s"):
                pass
            return clock.iteration(b"x")

    refs = iter([0.01, 0.03])
    saved = run.kernel
    run.kernel = lambda: next(refs)
    try:
        result = run.run_untraced(Fake(), seconds=0.0)
    finally:
        run.kernel = saved
    # A warm-up iteration without the kernel, then one timed iteration.
    assert result["attempted"] == 2
    table = result["table"]
    assert table["reference_s"] == 0.02
    assert table["wall_s"] == table["setup_s"] == pytest.approx(
        table["raw_wall_s"] * NOMINAL_S / 0.02)


def test_traced_run_writes_spans_with_parent_links():
    code, _ = _run("--workload", "cli-strategic", "--seed", "5", "--seconds", "0.1",
                   "--trace", "1", "--smoke")
    assert code == 0
    spans = [json.loads(line) for line in
             (ROOT / ".bench_out" / "cli-strategic-seed5-trace1.spans.jsonl").open()]
    by_id = {s["id"]: s for s in spans}
    train = next(s for s in spans if s["name"] == "model.train")
    assert by_id[train["parent"]]["name"] == "cli.train"
    forward = next(s for s in spans if s["name"] == "model.forward")
    assert by_id[forward["parent"]]["name"] == "model.train"


def test_tracer_rebinds_every_binding_and_restores_them():
    import peergrade.cli
    import peergrade.harness
    import peergrade.model
    from spans import Tracer

    original = peergrade.model.train
    tracer = Tracer()
    tracer.wrap("peergrade", "model", "train", "model.train")
    try:
        assert peergrade.model.train is not original
        assert peergrade.harness.train is peergrade.model.train
        assert peergrade.cli.train is peergrade.model.train
    finally:
        tracer.restore()
    assert peergrade.harness.train is original and peergrade.cli.train is original


def test_self_time_subtracts_direct_children_only():
    from spans import Span, self_times

    spans = [Span(0, None, 1, "a", 0.0, 10.0), Span(1, 0, 1, "b", 1.0, 5.0),
             Span(2, 1, 1, "c", 2.0, 3.0), Span(3, 0, 1, "d", 6.0, 7.0)]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 1.0, 3: 1.0}


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "bundle-5k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
