"""Smoke test of the benchmark itself: ``python3 -m pytest bench -q``.

Not part of tier-1 (``testpaths`` is ``tests``): it checks that the runner
and ``BENCHMARK.json`` agree, that the span arithmetic adds up, and that
tracing leaves nothing installed.  It measures nothing.
"""

import ctypes
import json
import random
import re
import subprocess
import sys

import pytest

from bench import env as bench_env
from bench import spans

SPEC = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())
HEADER = re.compile(r"^# bench workload=(\S+) seed=\d+ seconds=\S+ trace=([01])")


@pytest.fixture(scope="module")
def smoke_sections():
    """Output of one all-workloads smoke run, split per (workload, trace)."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--seed", "3", "--smoke"],
        cwd=bench_env.ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    sections, current = {}, None
    for line in done.stdout.splitlines():
        match = HEADER.match(line)
        if match:
            current = sections.setdefault((match.group(1), int(match.group(2))), [])
        elif line.startswith("# summary"):
            current = None
        if current is not None:
            current.append(line)
    return sections


def test_every_metric_is_printed_once_with_its_unit(smoke_sections):
    skipped = {"grid400_jit_t2"} if bench_env.usable_cpus() < 2 else set()
    expected = {
        (w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)
        if w["name"] not in skipped
    }
    assert set(smoke_sections) == expected
    for (workload, trace), lines in smoke_sections.items():
        for metric in SPEC["per_layer" if trace else "end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
            pattern = re.compile(rf"^{re.escape(name)} = -?[0-9.e+-]+ {re.escape(unit)}(\s|$)")
            hits = [line for line in lines if pattern.match(line)]
            assert len(hits) == 1, (workload, trace, name, hits)
        result = json.loads(next(line for line in reversed(lines) if line.startswith("{")))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
        assert list(result["metrics"]) == names
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


#: Runs the command it is given as a "subreaper": every process the command
#: leaves behind, alive or not yet waited for, becomes this script's child.
ADOPT_LEFTOVERS = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
try:
    os.waitpid(-1, os.WNOHANG)
    sys.exit("the command left a process behind")
except ChildProcessError:
    sys.exit(code)
"""


def test_a_service_run_leaves_no_process_behind():
    done = subprocess.run(
        [sys.executable, "-c", ADOPT_LEFTOVERS, sys.executable, "-m", "bench",
         "--workload", "serve_small_c2", "--seed", "3", "--smoke"],
        cwd=bench_env.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]


def test_self_times_of_overlapping_children_add_up_to_the_root():
    tree = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["serial", 1.0, 3.0, 0, 0, None],
        ["pool", 4.0, 9.0, 0, 0, None],
        ["strip", 4.5, 8.0, 2, 0, None],  # two strips on two threads,
        ["strip", 5.0, 8.5, 2, 0, None],  # overlapping from 5.0 to 8.0
        ["leaf", 1.5, 2.5, 1, 0, None],
    ]
    own = spans.self_times(tree)
    assert sum(own) == pytest.approx(10.0)
    assert own[0] == pytest.approx(10.0 - 2.0 - 5.0)
    assert own[2] == pytest.approx(5.0 - 4.0)  # the strips cover 4.5 .. 8.5 once
    assert own[3] + own[4] == pytest.approx(4.0)


def test_traced_blocks_add_up_and_leave_no_wrapper_installed():
    bench_env.bootstrap()
    from bench import layers, solver

    workload = next(w for w in solver.workloads() if w.name == "ens16_g24_jit")
    with bench_env.pinned(workload.env) as scratch:
        workload.open_inputs(random.Random(5), smoke=True)
        workload.open(scratch, trace=True)
        for index in range(3):
            workload.block("traced", index)
        traced = workload.last["traced"]
        engine = traced.engine
        kernel = layers.compiled_kernel(engine.backend)
    recorded = workload.spans()
    own = spans.self_times(recorded)
    for run in range(3):
        mine = [i for i, span in enumerate(recorded) if span[spans.RUN] == run]
        roots = [i for i in mine if recorded[i][spans.PARENT] == -1]
        assert [recorded[i][spans.NAME] for i in roots] == ["block"]
        root = recorded[roots[0]]
        assert sum(own[i] for i in mine) == pytest.approx(root[spans.END] - root[spans.START])
    assert "step" not in vars(traced)
    assert not set(vars(engine)) & set(layers.ENGINE_CALLS) - {"riemann"}
    assert not set(vars(engine.backend)) & set(layers.BACKEND_CALLS)
    assert getattr(engine.riemann, "__name__", "") != "wrapper"
    assert isinstance(kernel.sweep, ctypes._CFuncPtr)
    assert isinstance(kernel.dt, ctypes._CFuncPtr)
