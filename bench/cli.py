"""Command line of the benchmark.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1``
measures one workload and ends its output with one JSON object (the form
the regression driver reads).  The measuring happens in a child process;
the command itself only waits for it and then for every process the child
started (service shards, multiprocessing's resource tracker, compilers), so
nothing of a run is alive once the command has returned.  Without
``--workload`` every workload of ``BENCHMARK.json`` is measured, untraced
and traced, each in a process of its own so that memory peaks, loaded
kernels and pinned environments cannot leak from one into the next.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Dict, List, Optional

from bench import env as bench_env

THREADED = "grid400_jit_t2"
SERIAL_OF_THREADED = "grid400_jit"

#: Seconds the processes a finished run leaves behind get to end by
#: themselves (the resource tracker does, once its parent is gone) before
#: they are killed.
LINGER_S = 10.0
#: The driver allows a run 180 s; the measuring child is killed before that.
RUN_LIMIT_S = 170.0
PR_SET_CHILD_SUBREAPER = 36


def load_spec() -> dict:
    return json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())


def units_of(spec: dict, trace: bool) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def registry() -> dict:
    from bench import serve, solver

    return {w.name: w for w in solver.workloads() + serve.workloads()}


# -- one workload: a measuring child and its supervisor -----------------


def supervise(argv: List[str]) -> int:
    """Measure in a child process; return once it and every process it
    started have ended and been waited for, whichever way the run ends.

    The child leads a process group of its own, so everything it starts can
    be signalled together.  This process adopts what the child orphans
    (``PR_SET_CHILD_SUBREAPER``), which makes ``waitpid`` see the end of
    grandchildren too, e.g. of multiprocessing's resource tracker, which
    outlives the process that started it.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, the group is still waited for

    def terminated(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    child = subprocess.Popen(
        [sys.executable, "-m", "bench", *argv, "--measure-here"],
        cwd=bench_env.ROOT, start_new_session=True,
    )
    try:
        try:
            code = child.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            print(f"bench: the run did not end within {RUN_LIMIT_S:.0f} s, killed", file=sys.stderr)
            code = 1
    finally:
        reap_group(child)
        shutil.rmtree(bench_env.OUT / f"tmp-{child.pid}", ignore_errors=True)  # if it was killed
    return code


def reap_group(leader: subprocess.Popen) -> None:
    """Wait until no process of ``leader``'s group is left; after
    ``LINGER_S`` (at once if the leader is still running) kill them."""

    def alive() -> bool:
        try:
            while os.waitpid(-1, os.WNOHANG) != (0, 0):
                pass  # reaped one of ours, look for more
        except ChildProcessError:
            pass
        try:
            os.killpg(leader.pid, 0)
        except ProcessLookupError:
            return False
        return True

    def kill() -> None:
        try:
            os.killpg(leader.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    if leader.poll() is None:
        kill()
        leader.wait()
    deadline = monotonic() + LINGER_S
    while alive():
        if monotonic() > deadline:
            kill()
        sleep(0.005)


# -- one workload, this process ------------------------------------------


def first_step_seconds(name: str, seed: int, smoke: bool, cache: Path) -> float:
    """Seconds a fresh process needs to build the workload's solver and
    take its first step with ``cache`` as the JIT disk cache."""
    command = [sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
               "--first-step", str(cache)] + (["--smoke"] if smoke else [])
    done = subprocess.run(
        command, cwd=bench_env.ROOT, capture_output=True, text=True, timeout=150, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])["first_step_s"]


def run_workload(args, spec: dict) -> int:
    began = perf_counter()
    workloads = registry()
    if args.workload not in workloads or args.workload not in {
        w["name"] for w in spec["workloads"]
    }:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    trace = bool(args.trace)
    with bench_env.pinned(workload.env) as scratch:
        rng = random.Random(args.seed)
        if args.first_step:
            os.environ["REPRO_JIT_CACHE"] = args.first_step
            workload.open_inputs(rng, smoke=args.smoke)
            start = perf_counter()
            workload.first_step()
            print(json.dumps({"first_step_s": perf_counter() - start}))
            return 0
        return measure_workload(workload, args, spec, trace, rng, scratch, began)


def measure_workload(workload, args, spec, trace, rng, scratch, began) -> int:
    from bench import runner, spans

    units = units_of(spec, trace)
    host = bench_env.host_block()
    print(f"# bench workload={workload.name} seed={args.seed} seconds={args.seconds}"
          f" trace={int(trace)}{' smoke' if args.smoke else ''}")
    print(f"# why: {workload.why}")
    print("# host: " + " ".join(f"{k}={v!r}" for k, v in host.items() if k != "env"))
    print("# env: " + " ".join(f"{k}={v}" for k, v in host["env"].items()))
    if workload.name == THREADED and bench_env.usable_cpus() < 2:
        print(f"# note: {bench_env.usable_cpus()} usable CPU: the two strip threads time-slice,"
              " the numbers say nothing about scaling")
    detail: Dict[str, dict] = {}
    try:
        workload.open_inputs(rng, smoke=args.smoke)
        workload.open(scratch, trace)
        samples, rss = runner.measure(workload, args.seconds, trace)
        checks = workload.checks(trace)
        if trace:
            measured = workload.layers(samples)
            measured.update(runner.trace_metrics(samples, len(workload.spans())))
            # The first subprocess finds this cache empty and fills it, the
            # second loads from it.
            cold_cache = scratch / "cold-cache"
            for key in ("jit.compile.cold_first_step_s", "jit.compile.warm_first_step_s"):
                measured[key] = first_step_seconds(workload.name, args.seed, args.smoke, cold_cache)
            stray = sorted(set(measured) - set(units))
            if stray:
                raise SystemExit(f"bench: metrics missing from BENCHMARK.json: {stray}")
            # A layer this workload does not go through reads 0.
            metrics = {name: float(measured.get(name, 0.0)) for name in units}
            span_path = bench_env.OUT / f"{workload.name}.spans.jsonl"
            spans.write(span_path, {"workload": workload.name, "seed": args.seed}, workload.spans())
        else:
            metrics, detail = runner.end_to_end(workload, samples["plain"], rss)
    finally:
        workload.close()
    attempted, failed = runner.totals(samples)
    correct = all(ok for _, ok, _ in checks) and failed == 0

    print(f"# unit of work: {workload.work_unit}; latency of: {workload.latency_unit}")
    for name, value in metrics.items():
        extra = ""
        if name in detail:
            d = detail[name]
            extra = f"   (median of {d['n']}; q1 {d['q1']:.6g}, q3 {d['q3']:.6g})"
        print(f"{name} = {value!r} {units[name]}{extra}")
    print(f"failed_share = {failed / attempted!r} share   ({failed} of {attempted} {workload.work_unit}s)")
    if trace:
        base = metrics["euler.block_s_per_step"]
        print(f"# shares of euler.* and jit.* are of euler.block_s_per_step = {base!r} s"
              f" ({'the in-process twin of a job' if 'serve' in workload.name else 'traced blocks'});"
              f" spans in {span_path.relative_to(bench_env.ROOT)}")
    for label, ok, remark in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {label}" + (f" [{remark}]" if remark else ""))
    for note in workload.notes:
        print(f"# note: {note}")
    digest = getattr(workload, "digests", None)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "smoke": args.smoke,
        "host": host,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "detail": detail,
        "checks": [{"check": c, "ok": ok, "remark": r} for c, ok, r in checks],
        "notes": workload.notes,
        "state_sha256": digest[-1] if digest else None,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "wall_s": perf_counter() - began,
    }
    bench_env.OUT.mkdir(parents=True, exist_ok=True)
    (bench_env.OUT / f"{workload.name}.trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"# whole run: {record['wall_s']:.1f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


# -- every workload, one process each ------------------------------------


def run_one_process(name: str, trace: int, args) -> Optional[dict]:
    command = [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=bench_env.ROOT, capture_output=True, text=True, check=False)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    result["exit"] = done.returncode
    return result


def run_set(args, spec: dict) -> Dict[tuple, Optional[dict]]:
    results: Dict[tuple, Optional[dict]] = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        if name == THREADED and bench_env.usable_cpus() < 2:
            print(f"# bench workload={name}: skipped, it needs 2 usable CPUs and this host"
                  f" has {bench_env.usable_cpus()}; ask for it by name to run it time-sliced\n")
            continue
        for trace in (0, 1):
            results[(name, trace)] = run_one_process(name, trace, args)
            print()
    return results


def sha_of(name: str) -> Optional[str]:
    try:
        return json.loads((bench_env.OUT / f"{name}.trace0.json").read_text())["state_sha256"]
    except (OSError, ValueError, KeyError):
        return None


def run_all(args, spec: dict) -> int:
    sets = [run_set(args, spec) for _ in range(args.sets)]
    ok = all(r is not None and r["exit"] == 0 and r["correct"] for s in sets for r in s.values())
    if (THREADED, 0) in sets[-1]:
        same = sha_of(THREADED) is not None and sha_of(THREADED) == sha_of(SERIAL_OF_THREADED)
        print(f"check {'ok  ' if same else 'FAIL'} {THREADED} ends in the state sha256 of {SERIAL_OF_THREADED}")
        ok = ok and same
    print(f"\n# summary, seed {args.seed}: end-to-end metrics per workload (last set)")
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':<20}" + "".join(f"{n:>18}" for n in names))
    for entry in spec["workloads"]:
        result = sets[-1].get((entry["name"], 0))
        if result is None:
            print(f"{entry['name']:<20}" + f"{'skipped':>18}" * len(names))
            continue
        print(f"{entry['name']:<20}" + "".join(
            f"{result['metrics'][n]['value']:>18.6g}" for n in names))
    if len(sets) >= 2:
        ok = agreement(sets[0], sets[1], spec) and ok
    return 0 if ok else 1


def agreement(first, second, spec: dict) -> bool:
    """Relative difference of two sets of the same code against the bound."""
    print("\n# agreement of set 2 with set 1: |difference| / set 1, against the bound")
    agreed = True
    for entry in spec["workloads"]:
        a, b = first.get((entry["name"], 0)), second.get((entry["name"], 0))
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            one = a["metrics"][metric["name"]]["value"]
            two = b["metrics"][metric["name"]]["value"]
            gap = abs(two - one) / one
            within = gap <= metric["bound"]
            agreed = agreed and within
            print(f"{entry['name']:<20}{metric['name']:<16}{one:>14.6g}{two:>14.6g}"
                  f"{gap:>9.4f} / {metric['bound']:<5} {'ok' if within else 'BEYOND'}")
    return agreed


def main(argv: Optional[List[str]] = None) -> int:
    for name in bench_env.THREAD_VARS:  # before anything imports numpy
        os.environ[name] = "1"
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="measure this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0, help="draws the workload's inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long a run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--sets", type=int, default=1,
                        help="measure everything this many times and compare set 2 with set 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problems and one second per run: checks the benchmark, measures nothing")
    parser.add_argument("--first-step", metavar="CACHE_DIR", help=argparse.SUPPRESS)
    parser.add_argument("--measure-here", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    bench_env.bootstrap()
    if args.workload and (args.measure_here or args.first_step):
        return run_workload(args, spec)
    if args.workload:
        return supervise(sys.argv[1:] if argv is None else argv)
    return run_all(args, spec)
