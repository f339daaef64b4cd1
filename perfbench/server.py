"""Launcher of the benchmarked scenario service, run as its own process.

    python3 perfbench/server.py --db DIR/jobs.sqlite --cache-dir DIR/cache [--probes]

Serves ``GatewayServer -> JobScheduler -> JobStore`` (file-backed sqlite)
with a disk ``ResultCache``, one job worker and the serial backend, on an
ephemeral port.  It prints ``{"port": N}`` once the socket is bound, then
answers one command per stdin line with one JSON line on stdout:

* ``stats`` -- the process's RSS high-water mark, plus the probe totals
  when ``--probes`` is on;
* ``reset`` -- zero the probe totals (sent once the warm-up job is done);
* ``quit`` (or end of input) -- shut the service down and exit.

``--probes`` wraps public functions of each layer with timers before the
gateway starts (the snapshot subscribes its bound listener on start, so
later patching would miss it).  Nothing under ``src/`` knows about them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runtime.cache import ResultCache  # noqa: E402
from repro.runtime.scenario import ScenarioSpec  # noqa: E402
from repro.service import GatewayServer, JobScheduler, JobStore, ServiceSnapshot  # noqa: E402
from repro.service import queue as service_queue  # noqa: E402


class Probes:
    """Call counts and busy seconds of wrapped layer functions.

    ``per_job`` keeps the values the client pairs with its own per-job
    timings: submit and execute seconds, and the ``CLOCK_MONOTONIC`` instant
    ``JobStore.finish`` returned.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = defaultdict(int)
            self.seconds = defaultdict(float)
            self.per_job = defaultdict(dict)

    def snapshot(self):
        with self._lock:
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "per_job": {name: dict(values) for name, values in self.per_job.items()},
            }

    def wrap(self, owner, attr: str, name: str, job_key=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper recording under ``name``.

        ``job_key(args, result)`` names the job a call belongs to, for the
        functions whose per-job value the client needs.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - start
            with self._lock:
                self.calls[name] += 1
                self.seconds[name] += elapsed
                if name == "cache.get" and result is not None:
                    self.calls["cache.get.hit"] += 1
                if job_key is not None:
                    job_id = job_key(args, result)
                    self.per_job[name][job_id] = elapsed
                    if name == "jobs.finish":
                        self.per_job["jobs.finish_returned"][job_id] = time.monotonic()
            return result

        setattr(owner, attr, timed)

    def install(self) -> None:
        self.wrap(JobScheduler, "submit_campaign", "queue.submit",
                  job_key=lambda args, result: result[0].id)
        self.wrap(JobScheduler, "execute", "queue.execute",
                  job_key=lambda args, result: args[1].id)
        self.wrap(service_queue, "campaign_result_payload", "queue.result_payload")
        self.wrap(JobStore, "update_progress", "jobs.progress_write")
        self.wrap(JobStore, "get", "jobs.get")
        self.wrap(JobStore, "finish", "jobs.finish",
                  job_key=lambda args, result: args[1])
        self.wrap(JobStore, "record_phases", "jobs.record_phases")
        self.wrap(JobStore, "record_trace", "jobs.record_trace")
        self.wrap(ServiceSnapshot, "on_record", "snapshot.refresh")
        self.wrap(ScenarioSpec, "build_schedules", "scenario.solve")
        self.wrap(ScenarioSpec, "run", "scenario.run")
        self.wrap(ResultCache, "get", "cache.get")
        self.wrap(ResultCache, "put", "cache.put")


def rss_peak_mb() -> float:
    """This process's RSS high-water mark.

    ``VmHWM`` belongs to the process image, unlike ``ru_maxrss``, which Linux
    carries over ``execve`` from the (much larger) benchmark process that
    spawned this one.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args()

    probes = Probes() if args.probes else None
    if probes is not None:
        probes.install()
    store = JobStore(args.db)
    scheduler = JobScheduler(
        store, num_workers=1, backend=None, cache=ResultCache(args.cache_dir)
    )
    gateway = GatewayServer(scheduler, port=0)
    gateway.start()
    try:
        _reply({"port": gateway.port})
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if command == "reset" and probes is not None:
                probes.reset()
            _reply({
                "rss_peak_mb": rss_peak_mb(),
                "probes": probes.snapshot() if probes is not None else None,
            })
    finally:
        gateway.shutdown()
        store.close()


if __name__ == "__main__":
    main()
