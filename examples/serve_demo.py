"""The simulation service, end to end — also the CI smoke test.

1. start a full service (spawned worker shards + asyncio TCP server)
   in a background thread;
2. submit an *uncached* Sod job and follow its event stream — queued,
   started, per-step trace records, done;
3. resubmit the identical job and show it answered from the result
   cache, bitwise identical to the cold run;
4. submit a job that blows up (CFL = 10) and show the client receives
   the PhysicsError forensic report after one attempt — dispatched
   once, never retried — while the service keeps serving;
5. print the service stats: queue counters and result-cache hit rate.

Run:  python examples/serve_demo.py
"""

from repro.serve import JobSpec, ServiceClient
from repro.serve.server import start_in_thread


def main() -> None:
    print("=== 1. starting the service (2 shards) ===")
    handle = start_in_thread(shards=2)
    print(f"listening on 127.0.0.1:{handle.port}")

    spec = JobSpec(
        problem="sod",
        problem_args={"n_cells": 96},
        max_steps=12,
        trace_every=3,
    )
    with ServiceClient(port=handle.port) as client:
        assert client.ping()

        print("\n=== 2. an uncached job, streamed ===")
        job_id = client.submit(spec)["job_id"]
        step_events = 0
        for event in client.stream(job_id):
            if event.get("kind") == "step":
                step_events += 1
                print(f"  step {event['step']:3d}  dt={event['dt']:.3e}"
                      f"  min_p={event['min_pressure']:.4f}")
            else:
                print(f"  [{event.get('kind')}] {event.get('event')}")
        assert step_events > 0, "stream produced no step records"
        cold = client.status(job_id)
        assert cold["state"] == "done", cold
        cold_result = client.run(spec)["result"]  # cache hit, same payload

        print("\n=== 3. the identical resubmit is a cache hit ===")
        warm = client.run(spec)
        assert warm["status"]["cached"] is True
        assert warm["result"] == cold_result, "cached payload must be verbatim"
        print(f"  cached={warm['status']['cached']}"
              f"  state_sha256={warm['result']['state_sha256'][:16]}…  (identical)")

        print("\n=== 4. a blow-up returns forensics, the service survives ===")
        unstable = JobSpec.from_dict({
            "problem": "sod",
            "problem_args": {"n_cells": 32},
            "max_steps": 50,
            "config": {"cfl": 10.0},
        })
        dispatched = sum(client.stats()["shards"]["dispatched"])
        reply = client.run(unstable)
        failed = reply["status"]
        assert failed["state"] == "failed"
        lifecycle = [event["event"] for event in client.stream(reply["job_id"])
                     if event["kind"] == "job"]
        assert lifecycle == ["queued", "started", "failed"], lifecycle
        attempts = sum(client.stats()["shards"]["dispatched"]) - dispatched
        assert attempts == 1, "a deterministic failure is not run again"
        forensics = failed["error"]["forensics"]
        assert forensics and forensics["cells"]
        print(f"  failed after {attempts} attempt;"
              f" first bad cell {forensics['cells'][0]}"
              f" ({failed['error']['message'][:60]}…)")
        assert client.run(spec)["status"]["state"] == "done"  # still serving

        print("\n=== 5. service stats ===")
        stats = client.stats()
        print(f"  jobs: {stats['jobs']}  submitted: {stats['submitted']}")
        print(f"  queue: enqueued={stats['queue']['enqueued']}"
              f" high_watermark={stats['queue']['high_watermark']}")
        print(f"  result cache: hits={stats['result_cache']['hits']}"
              f" misses={stats['result_cache']['misses']}")
        client.shutdown()

    handle.stop()
    print("\nservice shut down cleanly")


if __name__ == "__main__":
    main()
