"""``python -m repro.serve`` — run, poke, and inspect the service.

Subcommands::

    serve   start a service on a host/port and run until Ctrl-C
    submit  submit one job to a running service (optionally streaming)
    stats   print a running service's stats as JSON

Examples::

    python -m repro.serve serve --port 7420 --shards 4
    python -m repro.serve submit --port 7420 --problem sod --t-end 0.2
    python -m repro.serve submit --port 7420 --problem two_channel \\
        --arg n_cells=64 --arg workers=2 --max-steps 50 --stream
    python -m repro.serve stats --port 7420
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.euler.solver import SolverConfig
from repro.serve.client import ServiceClient
from repro.serve.jobs import PROBLEM_NAMES, JobSpec

__all__ = ["main"]


def _parse_arg_pairs(pairs: List[str]) -> Dict[str, object]:
    """``--arg n_cells=128`` pairs -> problem_args with literal values."""
    args: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--arg expects key=value, got {pair!r}")
        key, text = pair.split("=", 1)
        try:
            args[key] = json.loads(text)
        except ValueError:
            args[key] = text  # bare strings are fine (e.g. base=sod)
    return args


def _add_connection_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Simulation-as-a-service over the repro solver stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a service until Ctrl-C")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--queue-depth", type=int, default=64)
    serve.add_argument("--result-cache", type=int, default=256)
    serve.add_argument(
        "--batch-max", type=int, default=1, metavar="B",
        help="drain up to B shape-compatible queued jobs into one"
        " batched-engine dispatch (1 disables batching)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="spill result-cache entries to DIR so they survive restarts",
    )

    submit = sub.add_parser("submit", help="submit one job")
    _add_connection_flags(submit)
    submit.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    submit.add_argument(
        "--arg", action="append", default=[], metavar="KEY=VALUE",
        help="problem argument (repeatable), e.g. --arg n_cells=128",
    )
    submit.add_argument("--t-end", type=float, default=None)
    submit.add_argument("--max-steps", type=int, default=None)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--deadline", type=float, default=None, metavar="SECONDS")
    submit.add_argument("--cfl", type=float, default=None)
    submit.add_argument("--riemann", default=None)
    submit.add_argument("--trace-every", type=int, default=1)
    submit.add_argument(
        "--stream", action="store_true",
        help="print progress events as they happen instead of waiting quietly",
    )
    submit.add_argument(
        "--full-state", action="store_true",
        help="print the final state array too (large!)",
    )

    stats = sub.add_parser("stats", help="print service stats")
    _add_connection_flags(stats)
    return parser


def _cmd_serve(options) -> int:
    import threading

    from repro.serve.server import ServiceHandle, serve as serve_coroutine

    handle = ServiceHandle()
    ready = threading.Event()

    def _announce():
        ready.wait()
        print(f"repro.serve listening on {options.host}:{handle.port}", flush=True)

    threading.Thread(target=_announce, daemon=True).start()
    try:
        asyncio.run(serve_coroutine(
            host=options.host,
            port=options.port,
            ready=ready,
            handle=handle,
            shards=options.shards,
            queue_depth=options.queue_depth,
            result_cache_entries=options.result_cache,
            batch_max=options.batch_max,
            cache_dir=options.cache_dir,
        ))
    except KeyboardInterrupt:
        print("interrupted; service shut down", file=sys.stderr)
    return 0


def _build_spec(options) -> JobSpec:
    config = SolverConfig()
    overrides = {}
    if options.cfl is not None:
        overrides["cfl"] = options.cfl
    if options.riemann is not None:
        overrides["riemann"] = options.riemann
    if overrides:
        config = SolverConfig.from_dict({**config.to_dict(), **overrides})
    return JobSpec(
        problem=options.problem,
        problem_args=_parse_arg_pairs(options.arg),
        config=config,
        t_end=options.t_end,
        max_steps=options.max_steps,
        priority=options.priority,
        deadline_s=options.deadline,
        return_state=options.full_state,
        trace_every=options.trace_every,
    )


def _cmd_submit(options) -> int:
    spec = _build_spec(options)
    with ServiceClient(host=options.host, port=options.port) as client:
        if options.stream:
            submitted = client.submit(spec)
            job_id = submitted["job_id"]
            for event in client.stream(job_id):
                print(json.dumps(event))
            status = client.status(job_id)
            print(json.dumps({"final": status}, indent=2))
            return 0 if status["state"] == "done" else 1
        response = client.run(spec)
        result = response.get("result")
        if result is not None and not options.full_state:
            result = {k: v for k, v in result.items() if k != "state"}
        print(json.dumps(
            {"status": response["status"], "result": result}, indent=2
        ))
        return 0 if response["status"]["state"] == "done" else 1


def _cmd_stats(options) -> int:
    with ServiceClient(host=options.host, port=options.port) as client:
        print(json.dumps(client.stats(), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    if options.command == "serve":
        return _cmd_serve(options)
    if options.command == "submit":
        return _cmd_submit(options)
    return _cmd_stats(options)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
