"""End-to-end job benchmark of the scenario service.

    python3 perfbench/run.py --workload campaign_chunked --seed 1 --seconds 25 --trace 0

Starts the service (``perfbench/server.py``) in its own process on a fresh
sqlite DB and cache directory, runs one warm-up job, then drives a closed
loop of campaign jobs for ``--seconds`` beside an open-loop status poller.
Outside the timed window every served result is checked bit for bit against
a direct ``ScenarioSpec.run()`` of its spec.

``--trace 0`` reports the end-to-end metrics; set-up (server start plus
warm-up job) is repeated and its median reported.  ``--trace 1`` splits the
time into an untraced phase and a phase with layer probes installed in the
server, and reports the per-layer metrics of ``layers.py``.  The last line
of standard output is one JSON object; the lines before it are a table with
units and sample counts.  Workloads are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from layers import MOVES, metric_total, per_layer  # noqa: E402
from loadgen import BenchError, ServerProcess, run_job, run_phase  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Metric names and units; the JSON result carries exactly these.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
if set(PER_LAYER) != set(MOVES):
    sys.exit(f"perfbench: BENCHMARK.json and layers.MOVES name different per-layer "
             f"metrics: {sorted(set(PER_LAYER) ^ set(MOVES))}")
#: Printed in the table but left out of the JSON result and of
#: BENCHMARK.json.  Over ten runs of identical code on a 2-vCPU VM with CPU
#: steal, their spread (interquartile range over median) reached 0.39 (job
#: latency tail, server GC pauses land in it), 0.74 (submit latency tail)
#: and 0.33 (the ~1.3 ms poll median on campaign_chunked): past 0.25, the
#: largest bound a change can be held to.
PRINTED_ONLY = {"job_latency_tail_s": "s", "submit_latency_tail_ms": "ms",
                "poll_latency_p50_ms": "ms"}

#: Processes for the direct runs of set-up and of the correctness pass.
DIRECT_WORKERS = 2
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5
#: Seconds between status polls.  ``ServiceClient.wait`` polls every 0.2 s
#: while a job's progress keeps changing (it backs off only when a poll sees
#: no change, and every chunk changes it); the poller stands for four such
#: clients, staggered.  Four, because the tail is read 10 samples from the
#: top: 500 polls in a 25 s run put it at p98, where the latency climbs
#: slowly, while one client's 125 polls put it at p92, on the steep part of
#: the distribution (on campaign_chunked p92 ~15 ms, p98 ~23 ms), and its
#: spread over five runs of identical code was 0.40 of its median.
POLL_INTERVAL_S = 0.2 / 4
#: The server's RSS high-water mark is read after this many timed jobs (or
#: at the end of a phase that completes fewer).  A fixed count, so that a
#: faster server does not read higher; 80 is below the ~100 jobs the slowest
#: workload (campaign_chunked, about 4 jobs/s) completes in 25 s.
RSS_AFTER_JOBS = 80
#: cache_warm pre-fills this many specs per timed second.  The fastest
#: cache_warm run measured served 17.1 jobs/s; a service faster than this
#: ends the phase when the pool runs out, and jobs_per_s is then taken over
#: the shorter phase.  The fill is printed but not counted in setup_s: it is
#: kernel-bound direct runs, and over six runs of identical code a
#: one-process fill of 376 specs ranged 13.5-21 s (CPU steal on a 2-vCPU
#: VM), past setup_s's 0.25 bound.
#: Its program work (a cold run and cache.put) is timed per job on
#: campaign_chunked.
PREFILL_JOBS_PER_S = 18


def tail(values):
    """``(value, percentile)`` of the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def direct_runs(workload, seed: int, indices, scratch: Path, cache_dir=None):
    """``{index: (sample digest, ms)}`` of direct runs, one worker process per core.

    Runs outside the timed window: in set-up, or after the server stopped.
    """
    indices = [str(index) for index in indices]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workers = []
    try:
        for worker in range(DIRECT_WORKERS):
            share = indices[worker::DIRECT_WORKERS]
            if not share:
                continue
            out = scratch / f"direct-{worker}.json"
            command = [sys.executable, str(HERE / "workloads.py"), "--workload", workload.name,
                       "--seed", str(seed), "--indices", ",".join(share), "--out", str(out)]
            if cache_dir is not None:
                command += ["--cache-dir", str(cache_dir)]
            workers.append((subprocess.Popen(command, env=env), out))
        results = {}
        for proc, out in workers:
            if proc.wait() != 0:
                raise BenchError(f"direct-run worker exited with {proc.returncode}")
            results.update({int(k): tuple(v) for k, v in json.loads(out.read_text()).items()})
        return results
    finally:
        for proc, _ in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class Bench:
    def __init__(self, workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.servers = 0
        self.fill_dir = scratch / "prefill-cache"
        #: index -> (direct run's sample digest, its ms), filled by prefill
        self.references = {}
        self.pool_size = None

    def spec(self, index: int):
        return self.workload.spec(self.seed, index)

    def jobs(self, indices):
        for index in indices:
            if self.pool_size is not None and index > self.pool_size:
                return
            yield index, self.spec(index).to_dict()

    def prefill(self, count: int) -> float:
        """Direct runs of the warm-up spec and timed specs 1..count into the cache."""
        start = time.perf_counter()
        self.references = direct_runs(self.workload, self.seed, range(count + 1),
                                      self.scratch, self.fill_dir)
        self.pool_size = count
        elapsed = time.perf_counter() - start
        os.sync()
        return elapsed

    def setup(self, *, probes: bool = False):
        """Start a server on a fresh DB (and cache) and run the warm-up job."""
        start = time.perf_counter()
        workdir = self.scratch / f"server-{self.servers}"
        self.servers += 1
        cache_dir = self.fill_dir if self.workload.prefill else workdir / "cache"
        server = ServerProcess(workdir, cache_dir, probes=probes)
        try:
            warmup = run_job(ServiceClient(server.url), 0, self.spec(0).to_dict(),
                             self.workload.chunk_size)
            if not warmup.done:
                raise BenchError(f"warm-up job failed: {warmup.error}")
        except BaseException:
            server.stop()
            raise
        return server, warmup.job_id, time.perf_counter() - start

    def phase(self, server, first_job, indices, seconds, rss_after=None):
        """A timed phase, and the server's metrics from just before it."""
        os.sync()
        before = ServiceClient(server.url).metrics()
        phase = run_phase(server, self.jobs(indices), seconds=seconds,
                          chunk_size=self.workload.chunk_size, first_job=first_job,
                          poll_interval=POLL_INTERVAL_S, rss_after=rss_after)
        return phase, before

    def verify(self, phase, before, after):
        """Check every served job; returns (failed job count, direct run ms)."""
        failed = 0
        direct_ms = []
        done = [sample.index for sample in phase.done]
        references = self.references if self.workload.prefill else direct_runs(
            self.workload, self.seed, done, self.scratch)
        for sample in phase.samples:
            if not sample.done:
                if sample.submitted:
                    failed += 1
                    print(f"# job {sample.index} failed: {sample.error}")
                continue
            progress = sample.record["progress"]
            direct, ms = references[sample.index]
            direct_ms.append(ms)
            problems = []
            if progress["chunks_total"] != self.workload.chunks or progress["chunks_done"] != self.workload.chunks:
                problems.append(f"progress {progress} but the plan has {self.workload.chunks} chunks")
            if sample.digest != direct:
                problems.append("served samples differ from a direct run")
            if problems:
                failed += 1
                print(f"# job {sample.index} ({sample.job_id}): {'; '.join(problems)}")
        if self.workload.prefill:
            hits, misses = (
                metric_total(after, "repro_cache_requests_total", namespace="campaign", outcome=outcome)
                - metric_total(before, "repro_cache_requests_total", namespace="campaign", outcome=outcome)
                for outcome in ("hit", "miss")
            )
            if misses or hits != len(phase.done):
                failed += max(int(misses), len(phase.done) - int(hits), 1)
                print(f"# cache_warm served {hits:.0f} hits and {misses:.0f} misses for "
                      f"{len(phase.done)} jobs; every job must replay from the cache")
        return failed, direct_ms


def accounting(phases, job_failures: int):
    submissions = sum(len(p.samples) for p in phases)
    submit_failed = sum(1 for p in phases for s in p.samples if not s.submitted)
    jobs = submissions - submit_failed
    polls = sum(p.poller.count for p in phases)
    poll_failed = sum(p.poller.failed for p in phases)
    print(f"# attempted/failed: submissions {submissions}/{submit_failed}, "
          f"jobs {jobs}/{job_failures}, polls {polls}/{poll_failed}")
    return submissions + jobs + polls, submit_failed + job_failures + poll_failed


def timed_run(bench: Bench, seconds: float):
    workload = bench.workload
    fill_s = bench.prefill(math.ceil(seconds * PREFILL_JOBS_PER_S)) if workload.prefill else 0.0
    setups = []
    for _ in range(SETUPS - 1):
        server, _, elapsed = bench.setup()
        server.stop()
        setups.append(elapsed)
    server, warmup_id, elapsed = bench.setup()
    setups.append(elapsed)
    try:
        phase, before = bench.phase(server, warmup_id, itertools.count(1), seconds,
                                    rss_after=RSS_AFTER_JOBS)
        after = ServiceClient(server.url).metrics()
    finally:
        server.stop()
    job_failures, _ = bench.verify(phase, before, after)
    done = phase.done
    if not done:
        raise BenchError("no job reached done")
    submits = [s.submit_s * 1000.0 for s in phase.samples if s.submitted]
    polls = [x * 1000.0 for x in phase.poller.latencies]
    latencies = [s.latency_s for s in done]
    metrics, samples = {}, {}

    def put(name, value, count, note=""):
        metrics[name] = value
        samples[name] = (count, note)

    put("jobs_per_s", len(done) / phase.elapsed_s, len(done),
        f"over {phase.elapsed_s:.2f} s")
    for name, values in (("job_latency", latencies), ("submit_latency", submits),
                         ("poll_latency", polls)):
        unit = "s" if name == "job_latency" else "ms"
        put(f"{name}_p50_{unit}", statistics.median(values), len(values))
        value, pct = tail(values)
        put(f"{name}_tail_{unit}", value, len(values), f"p{pct:.1f}")
    put("server_peak_rss_mb", phase.rss_peak_mb, 1,
        f"after {min(RSS_AFTER_JOBS, len(phase.samples))} timed jobs")
    put("setup_s", statistics.median(setups), len(setups),
        "server start + warm-up, median"
        + (f"; cache fill of {bench.pool_size + 1} specs {fill_s:.3f} s, not counted"
           if workload.prefill else ""))
    print(f"# workload {workload.name}, seed {bench.seed}, {seconds:g} s timed")
    for name, unit in itertools.chain(END_TO_END.items(), PRINTED_ONLY.items()):
        count, note = samples[name]
        printed_only = " (printed only)" if name in PRINTED_ONLY else ""
        print(f"{name:24s} {metrics[name]:12.6g} {unit:4s} n={count:<5d} {note}{printed_only}")
    late = sorted(phase.poller.lateness)
    print(f"# poll generator lateness: median {1000 * statistics.median(late):.3f} ms, "
          f"max {1000 * late[-1]:.3f} ms")
    attempted, failed = accounting([phase], job_failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()
        },
    }


def traced_run(bench: Bench, seconds: float):
    workload = bench.workload
    if workload.prefill:
        bench.prefill(math.ceil(seconds * PREFILL_JOBS_PER_S))
    indices = itertools.count(1)
    half = seconds / 2.0

    server, warmup_id, _ = bench.setup()
    try:
        untraced, before_a = bench.phase(server, warmup_id, indices, half)
        after_a = ServiceClient(server.url).metrics()
    finally:
        server.stop()

    server, warmup_id, _ = bench.setup(probes=True)
    try:
        client = ServiceClient(server.url)
        wait_for_executes(server, 1)
        server.command("reset")
        traced, before = bench.phase(server, warmup_id, indices, half)
        probes = wait_for_executes(server, sum(s.submitted for s in traced.samples))["probes"]
        after = client.metrics()
        traces = [client.job_trace(s.job_id) for s in traced.done]
    finally:
        server.stop()

    failures_a, direct_a = bench.verify(untraced, before_a, after_a)
    failures_b, direct_b = bench.verify(traced, before, after)
    untraced_rate = len(untraced.done) / untraced.elapsed_s
    layers = per_layer(
        workload=workload, phase=traced, probes=probes, before=before, after=after,
        traces=traces, direct_ms=direct_a + direct_b, untraced_jobs_per_s=untraced_rate,
    )
    print(f"# workload {workload.name}, seed {bench.seed}: per-layer metrics over "
          f"{len(traced.done)} traced jobs ({half:g} s), untraced phase "
          f"{len(untraced.done)} jobs ({half:g} s)")
    for name, unit in PER_LAYER.items():
        layer, moves = MOVES[name]
        print(f"{layer:21s} {name:29s} {layers[name]:12.6g} {unit:5s} -> {moves}")
    print("# every per-layer metric above was measured; none is absent")
    attempted, failed = accounting([untraced, traced], failures_a + failures_b)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


def wait_for_executes(server, count: int):
    """Server stats once ``JobScheduler.execute`` has returned ``count`` times.

    The client sees a job's terminal state from inside ``execute``, so the
    probe of the last job can land a moment after the client moved on.
    """
    deadline = time.monotonic() + 10.0
    while True:
        stats = server.command("stats")
        if stats["probes"]["calls"].get("queue.execute", 0) >= count:
            return stats
        if time.monotonic() > deadline:
            raise BenchError(f"execute probe never reached {count} calls")
        time.sleep(0.01)


def main() -> None:
    parser = argparse.ArgumentParser(description="End-to-end job benchmark of the scenario service.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    # Writes still buffered from earlier work (a previous run's DBs and
    # caches) would be flushed while this run measures.
    os.sync()
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, scratch)
        result = (traced_run if args.trace else timed_run)(bench, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
