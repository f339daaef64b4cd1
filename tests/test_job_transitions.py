"""Tests for the job-state transition path of the scenario service.

The load-bearing guarantees:

* **wire contract** -- ``GET /v1/jobs/{id}`` serves, from both front ends,
  the bytes of ``json.dumps({"job": record.to_dict()})`` for a job in every
  state, although a finished job's result is spliced from its stored text
  rather than decoded and encoded again;
* **one push per transition** -- a store listener receives exactly one
  record per write (submit, claim, each progress write, phases, finalize),
  the record that write produced, and the store is never re-read to build
  it;
* **durability under a crash** -- a WAL store left by a process that died
  without closing it reopens with every committed transition, and restart
  recovery re-runs the interrupted job to the samples of a clean run;
* **memory** -- the snapshot holds each finished result once, as its
  encoded text.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.service.gateway import GatewayServer
from repro.service.jobs import JobStore
from repro.service.queue import JobScheduler, campaign_result_payload
from repro.service.client import ServiceClient
from repro.service.server import ScenarioServer, _ServiceRequestHandler
from repro.service.snapshot import ServiceSnapshot

SRC = Path(__file__).resolve().parent.parent / "src"


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="transition-test",
        chain=ChainSpec(n=5, seed=2),
        failure=FailureSpec(kind="weibull", mtbf=40.0, shape=0.7),
        strategies=("optimal_dp", "checkpoint_all"),
        num_runs=120,
        downtime=0.2,
        seed=3,
        engine="vectorized",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def sample_bytes(makespans) -> dict:
    """Each strategy's samples as raw IEEE-754 bytes (bit-for-bit comparison)."""
    return {name: np.asarray(samples, dtype=float).tobytes() for name, samples in makespans.items()}


def fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200
        return response.read()


class TestWireContract:
    def test_job_body_is_the_json_of_the_record_in_every_state(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        scheduler = JobScheduler(store)
        scheduler.start = lambda: None  # no workers: the test sets each state
        gateway = GatewayServer(scheduler, port=0)
        threaded = ScenarioServer(scheduler, port=0)
        gateway.start()
        threaded.start()
        try:
            # Every transition happens after the gateway attached, so its
            # snapshot serves the records the writes pushed.
            done = store.submit("campaign", {"scenario": small_spec().to_dict()})
            store.claim_next()
            store.update_progress(done.id, 3, 3)
            store.finish(done.id, campaign_result_payload(small_spec().run()))
            failed = store.submit("campaign", {"n": 1})
            store.claim_next()
            store.fail(failed.id, "ValueError: boom – non-ascii")
            cancelled = store.submit("experiment", {"experiment": "E2"})
            store.request_cancel(cancelled.id)
            running = store.submit("campaign", {"n": 2})
            store.claim_next()
            store.update_progress(running.id, 2, 5)
            store.request_cancel(running.id)
            queued = store.submit("campaign", {"n": 3})

            expected_states = {
                done.id: "done", failed.id: "failed", cancelled.id: "cancelled",
                running.id: "running", queued.id: "queued",
            }
            for job_id, state in expected_states.items():
                record = store.get(job_id)
                assert record.state == state
                expected = json.dumps({"job": record.to_dict()}).encode("utf-8")
                assert record.to_json_bytes() == expected, state
                assert gateway.snapshot.job_bytes(job_id) == expected, state
                assert fetch(f"{gateway.url}/v1/jobs/{job_id}") == expected, state
                assert fetch(f"{threaded.url}/v1/jobs/{job_id}") == expected, state
        finally:
            threaded.shutdown()
            gateway.shutdown()
            store.close()

    def test_result_is_decoded_lazily_from_the_stored_text(self):
        with JobStore() as store:
            job = store.submit("campaign", {})
            store.claim_next()
            store.finish(job.id, {"makespans": {"a": [0.1, 1e-300, 2.5]}})
            record = store.get(job.id)
            assert "result" not in record.__dict__  # nothing decoded yet
            assert record.result_json == '{"makespans": {"a": [0.1, 1e-300, 2.5]}}'
            assert record.result == {"makespans": {"a": [0.1, 1e-300, 2.5]}}
            assert record.result is record.result  # decoded once


class TestTransitionPushes:
    def test_one_push_per_transition_and_no_store_reads(self, monkeypatch):
        get_calls = []
        original_get = JobStore.get

        def counting_get(self, job_id):
            get_calls.append(job_id)
            return original_get(self, job_id)

        monkeypatch.setattr(JobStore, "get", counting_get)
        with JobStore() as store:
            pushed = []
            store.subscribe(pushed.append)
            scheduler = JobScheduler(store)
            spec = small_spec()
            record, _ = scheduler.submit_campaign(spec.to_dict(), chunk_size=40)
            assert scheduler.run_pending() == 1

            assert get_calls == []
            assert [r.id for r in pushed] == [record.id] * 8
            assert [(r.state, r.chunks_done, r.chunks_total) for r in pushed] == [
                ("queued", 0, 0),      # submit
                ("running", 0, 0),     # claim
                ("running", 0, 3),     # the plan, then one progress write per chunk
                ("running", 1, 3),
                ("running", 2, 3),
                ("running", 3, 3),
                ("running", 3, 3),     # phases
                ("done", 3, 3),        # finalize
            ]
            assert pushed[5].phases is None and pushed[6].phases is not None
            assert pushed[-1].started_at is not None and pushed[-1].finished_at is not None
            final = pushed[-1]
            assert final.result_json == original_get(store, record.id).result_json
            assert sample_bytes(final.result["makespans"]) == sample_bytes(
                spec.run(chunk_size=40).makespans
            )

    def test_fail_and_cancel_push_one_record_each(self):
        with JobStore() as store:
            pushed = []
            failing = store.submit("campaign", {})
            store.claim_next()
            queued = store.submit("campaign", {"n": 1})
            running = store.submit("campaign", {"n": 2})
            store.subscribe(pushed.append)

            store.fail(failing.id, "RuntimeError: x")
            store.request_cancel(queued.id)
            store.claim_next()
            store.request_cancel(running.id)

            assert [(r.id, r.state, r.error, r.cancel_requested) for r in pushed] == [
                (failing.id, "failed", "RuntimeError: x", False),
                (queued.id, "cancelled", None, True),
                (running.id, "running", None, False),   # claim
                (running.id, "running", None, True),    # cooperative cancel flag
            ]

    def test_recovery_pushes_each_requeued_job(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        with JobStore(db) as store:
            first = store.submit("campaign", {"n": 1})
            second = store.submit("campaign", {"n": 2})
            store.claim_next()
            store.claim_next()
            store.update_progress(first.id, 1, 4)
        with JobStore(db) as store:
            pushed = []
            store.subscribe(pushed.append)
            assert store.recover_interrupted() == 2
            assert sorted(r.id for r in pushed) == sorted([first.id, second.id])
            assert all(
                (r.state, r.chunks_done, r.started_at) == ("queued", 0, None) for r in pushed
            )



class TestWakeAfterReply:
    """A front end wakes the workers only once a submission's reply is sent.

    Woken by the submission itself, a worker starts the job while the reply
    is still being written, and how long the reply waited for the
    interpreter lock then depended on thread timing.
    """

    @pytest.mark.parametrize("front_end", ["gateway", "threaded"])
    def test_front_end_replies_before_it_wakes_the_workers(self, front_end, monkeypatch):
        events = []
        with JobStore() as store:
            scheduler = JobScheduler(store)
            scheduler.start = lambda: None  # no workers: only the order matters
            scheduler.wake = lambda: events.append("wake")
            if front_end == "gateway":
                server = GatewayServer(scheduler, port=0)
                write = server._write_payload

                async def recorded_write(*args, **kwargs):
                    await write(*args, **kwargs)
                    events.append("reply")

                server._write_payload = recorded_write
            else:
                server = ScenarioServer(scheduler, port=0)
                send = _ServiceRequestHandler._send

                def recorded_send(self, *args, **kwargs):
                    send(self, *args, **kwargs)
                    events.append("reply")

                monkeypatch.setattr(_ServiceRequestHandler, "_send", recorded_send)
            server.start()
            try:
                job = ServiceClient(server.url).submit_campaign(small_spec())
                deadline = time.monotonic() + 10.0
                while len(events) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                seen = list(events)  # shutdown wakes the workers too
            finally:
                server.shutdown()
            assert seen == ["reply", "wake"]
            assert store.get(job["id"]).state == "queued"


class TestWalDurability:
    CHILD = textwrap.dedent("""
        import json, os, sys
        from repro.service.jobs import JobStore
        from repro.service.queue import JobScheduler
        db, finished_spec, interrupted_spec = sys.argv[1], *map(json.loads, sys.argv[2:])
        store = JobStore(db)
        scheduler = JobScheduler(store)
        finished, _ = scheduler.submit_campaign(finished_spec)
        assert scheduler.run_pending() == 1
        interrupted, _ = scheduler.submit_campaign(interrupted_spec)
        store.claim_next()
        store.update_progress(interrupted.id, 1, 3)
        sys.stdout.write(json.dumps({
            "finished": finished.id,
            "interrupted": interrupted.id,
            "result_json": store.get(finished.id).result_json,
        }))
        sys.stdout.flush()
        os._exit(0)  # no close(), no checkpoint: the WAL holds the transitions
    """)

    def test_committed_transitions_survive_a_dead_process(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        finished_spec, interrupted_spec = small_spec(seed=5), small_spec(seed=6)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(db),
             json.dumps(finished_spec.to_dict()), json.dumps(interrupted_spec.to_dict())],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        seen = json.loads(child.stdout)
        assert Path(f"{db}-wal").stat().st_size > 0  # never checkpointed away

        store = JobStore(db)
        try:
            finished = store.get(seen["finished"])
            assert finished.state == "done"
            assert finished.result_json == seen["result_json"]
            assert store.get(seen["interrupted"]).state == "running"

            scheduler = JobScheduler(store)
            assert scheduler.recovered == 1
            assert scheduler.run_pending() == 1
            rerun = store.get(seen["interrupted"])
            assert rerun.state == "done", rerun.error
            assert (rerun.chunks_done, rerun.chunks_total) == (1, 1)
            assert sample_bytes(rerun.result["makespans"]) == sample_bytes(
                interrupted_spec.run().makespans
            )
        finally:
            store.close()


class TestSnapshotMemory:
    NUM_JOBS = 6

    def test_snapshot_keeps_one_encoded_copy_per_finished_job(self):
        rng = np.random.default_rng(17)
        store = JobStore()
        snapshot = ServiceSnapshot(store)
        snapshot.attach()

        def serve_one_finished_job() -> int:
            result = {
                "type": "campaign",
                "num_runs": 5000,
                "makespans": {
                    name: (rng.random(5000) * 400.0 + 100.0).tolist()
                    for name in ("optimal_dp", "checkpoint_all", "young_period")
                },
            }
            encoded_length = len(json.dumps(result))
            job = store.submit("campaign", {})
            store.claim_next()
            store.finish(job.id, result)
            del result
            body = snapshot.job_bytes(job.id)
            assert json.loads(body)["job"]["state"] == "done"
            return encoded_length

        try:
            serve_one_finished_job()  # first-use allocations stay out of the measure
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                lengths = [serve_one_finished_job() for _ in range(self.NUM_JOBS)]
                growth = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            per_job = growth / self.NUM_JOBS
            assert per_job <= 1.5 * (sum(lengths) / len(lengths)), (per_job, lengths[0])
        finally:
            snapshot.detach()
            store.close()


@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_campaign_payload_matches_the_per_element_encoding(engine):
    result = small_spec(engine=engine).run()
    payload = campaign_result_payload(result)
    assert json.dumps(payload["makespans"]) == json.dumps(
        {name: [float(x) for x in samples] for name, samples in result.makespans.items()}
    )
    assert payload["summary"] == {
        name: {"mean": result.mean(name), "std": result.std(name)} for name in result.makespans
    }
    assert payload["ranking"] == result.ranking()
