"""Per-layer metrics of the traced run, and what each should move.

Every metric is a per-job value unless it is a ratio.  Probe values (server
functions wrapped by ``server.py --probes``) are per-job means: the total
over the traced phase divided by its completed jobs.  Values the client
pairs per job (submit overhead, notify lag, queue wait, trace coverage,
unattributed time) are per-job medians.

``MOVES`` names, for each metric, the end-to-end metric and workload a
change to that layer should move; later performance work cites it.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

#: Per-layer metric -> (layer, the end-to-end metric and workload it should
#: move).  Names, units and directions live in BENCHMARK.json; ``run.py``
#: refuses to run when the two name sets differ.
MOVES: Dict[str, Tuple[str, str]] = {
    "gateway.submit_overhead_ms": (
        "service.gateway", "submit_latency_* on all workloads"),
    "gateway.result_fetch_ms": (
        "service.gateway", "job_latency_p50_s, mostly on cache_warm"),
    "gateway.result_bytes": (
        "service.gateway", "job_latency_p50_s, mostly on cache_warm"),
    "gateway.notify_lag_ms": (
        "service.gateway", "job_latency_p50_s on all workloads"),
    "gateway.sse_events": (
        "service.gateway", "poll_latency_* on campaign_chunked"),
    "gateway.http_requests": (
        "service.gateway", "poll_latency_* on campaign_chunked"),
    "queue.submit_ms": (
        "service.queue", "submit_latency_* on all workloads"),
    "queue.wait_ms": (
        "service.queue", "job_latency_p50_s on all workloads"),
    "queue.execute_s": (
        "service.queue", "job_latency_* on all workloads"),
    "queue.result_payload_ms": (
        "service.queue", "job_latency_p50_s on cache_warm and campaign_chunked"),
    "jobs.progress_writes": (
        "service.jobs",
        "jobs_per_s and job_latency_p50_s on campaign_chunked; none on solve_bound"),
    "jobs.progress_write_ms": (
        "service.jobs",
        "jobs_per_s and job_latency_p50_s on campaign_chunked; none on solve_bound"),
    "jobs.get_calls": (
        "service.jobs", "jobs_per_s on campaign_chunked"),
    "jobs.finish_ms": (
        "service.jobs", "job_latency_p50_s, mostly on cache_warm"),
    "jobs.record_phases_ms": (
        "service.jobs", "job_latency_p50_s, mostly on cache_warm"),
    "jobs.record_trace_ms": (
        "service.jobs", "job_latency_p50_s, mostly on cache_warm"),
    "snapshot.refreshes": (
        "service.snapshot", "poll_latency_* on campaign_chunked"),
    "snapshot.refresh_ms": (
        "service.snapshot", "poll_latency_* on campaign_chunked"),
    "scenario.solve_ms": (
        "runtime.scenario", "job_latency_p50_s and jobs_per_s on solve_bound; none elsewhere"),
    "scenario.run_s": (
        "runtime.scenario", "job_latency_p50_s on all workloads"),
    "campaign.chunks": (
        "simulation.campaign", "jobs_per_s on campaign_chunked; zero on cache_warm"),
    "campaign.chunk_s": (
        "simulation.campaign", "jobs_per_s on campaign_chunked; zero on cache_warm"),
    "campaign.replications_per_s": (
        "simulation.vectorized", "jobs_per_s on campaign_chunked"),
    "cache.get_ms": (
        "runtime.cache", "job_latency_p50_s on cache_warm"),
    "cache.hit_ratio": (
        "runtime.cache",
        "job_latency_p50_s on cache_warm (0 on campaign_chunked, 1 on cache_warm)"),
    "cache.put_ms": (
        "runtime.cache", "jobs_per_s on campaign_chunked"),
    "cache.put_bytes": (
        "runtime.cache", "jobs_per_s on campaign_chunked"),
    "obs.trace_coverage": (
        "obs", "none: rises as spans are added, no end-to-end metric moves"),
    "obs.tracing_overhead": (
        "obs", "traced over untraced jobs_per_s"),
    "direct.run_ms": (
        "attribution",
        "none: the reference of service_overhead_ratio; kernel and solver changes move it"),
    "service_overhead_ratio": (
        "attribution", "job_latency_p50_s over direct.run_ms (target <= 1.5, not gated)"),
    "unattributed_ms": (
        "attribution", "job_latency_p50_s: the time the layers do not explain"),
}


def metric_total(snapshot: Dict[str, Any], name: str, **labels: str) -> float:
    """Sum of a counter's children in a ``/v1/metrics`` JSON dump.

    With ``labels``, only the children carrying those label values count.
    """
    entry = snapshot.get(name)
    return sum(
        value["value"] for value in (entry["values"] if entry else ())
        if labels.items() <= value["labels"].items()
    )


def trace_figures(trace: Dict[str, Any]) -> Tuple[int, float, float]:
    """``(campaign.chunk spans, their seconds, child coverage of job.run)``."""
    spans = trace["spans"]
    chunks = [s["duration_s"] for s in spans if s["name"] == "campaign.chunk"]
    run = sum(s["duration_s"] for s in spans if s["name"] == "job.run")
    children = sum(s["duration_s"] for s in spans if s.get("parent") == "job.run")
    return len(chunks), sum(chunks), children / run if run > 0 else 0.0


def per_layer(*, workload, phase, probes: Dict[str, Any], before: Dict[str, Any],
              after: Dict[str, Any], traces: List[Dict[str, Any]],
              direct_ms: List[float], untraced_jobs_per_s: float) -> Dict[str, float]:
    """Compute every catalogue metric from one traced phase."""
    done = phase.done
    jobs = len(done)
    calls, seconds, per_job = probes["calls"], probes["seconds"], probes["per_job"]

    def mean_ms(name: str) -> float:
        return 1000.0 * seconds.get(name, 0.0) / jobs

    def per_call_count(name: str) -> float:
        return calls.get(name, 0) / jobs

    def delta(name: str) -> float:
        return metric_total(after, name) - metric_total(before, name)

    median = statistics.median
    submit_ms = {s.job_id: 1000.0 * s.submit_s for s in done}
    wait_ms = {
        s.job_id: 1000.0 * (s.record["timings"]["started_at"] - s.record["timings"]["submitted_at"])
        for s in done
    }
    notify_ms = {
        s.job_id: 1000.0 * (s.end_event_at - per_job["jobs.finish_returned"][s.job_id])
        for s in done
    }
    unattributed = [
        1000.0 * (s.latency_s - s.fetch_s - per_job["queue.execute"][s.job_id])
        - submit_ms[s.job_id] - wait_ms[s.job_id] - notify_ms[s.job_id]
        for s in done
    ]
    chunk_counts, chunk_seconds, coverage = zip(*(trace_figures(t) for t in traces))
    chunk_s = sum(chunk_seconds)
    replications = workload.num_runs * len(workload.strategies) * jobs
    gets = calls.get("cache.get", 0)
    jobs_per_s = jobs / phase.elapsed_s
    latency_p50_ms = 1000.0 * median(s.latency_s for s in done)
    return {
        "gateway.submit_overhead_ms": median(
            submit_ms[s.job_id] - 1000.0 * per_job["queue.submit"][s.job_id] for s in done
        ),
        "gateway.result_fetch_ms": 1000.0 * median(s.fetch_s for s in done),
        "gateway.result_bytes": median(s.result_bytes for s in done),
        "gateway.notify_lag_ms": median(notify_ms.values()),
        "gateway.sse_events": delta("repro_sse_events_total") / jobs,
        "gateway.http_requests": delta("repro_http_requests_total") / jobs,
        "queue.submit_ms": mean_ms("queue.submit"),
        "queue.wait_ms": median(wait_ms.values()),
        "queue.execute_s": mean_ms("queue.execute") / 1000.0,
        "queue.result_payload_ms": mean_ms("queue.result_payload"),
        "jobs.progress_writes": per_call_count("jobs.progress_write"),
        "jobs.progress_write_ms": mean_ms("jobs.progress_write"),
        "jobs.get_calls": per_call_count("jobs.get"),
        "jobs.finish_ms": mean_ms("jobs.finish"),
        "jobs.record_phases_ms": mean_ms("jobs.record_phases"),
        "jobs.record_trace_ms": mean_ms("jobs.record_trace"),
        "snapshot.refreshes": per_call_count("snapshot.refresh"),
        "snapshot.refresh_ms": mean_ms("snapshot.refresh"),
        "scenario.solve_ms": mean_ms("scenario.solve"),
        "scenario.run_s": mean_ms("scenario.run") / 1000.0,
        "campaign.chunks": sum(chunk_counts) / jobs,
        "campaign.chunk_s": chunk_s / jobs,
        "campaign.replications_per_s": replications / chunk_s if chunk_s > 0 else 0.0,
        "cache.get_ms": mean_ms("cache.get"),
        "cache.hit_ratio": calls.get("cache.get.hit", 0) / gets if gets else 0.0,
        "cache.put_ms": mean_ms("cache.put"),
        "cache.put_bytes": delta("repro_cache_bytes_written_total") / jobs,
        "obs.trace_coverage": median(coverage),
        "obs.tracing_overhead": jobs_per_s / untraced_jobs_per_s,
        "direct.run_ms": median(direct_ms),
        "service_overhead_ratio": latency_p50_ms / median(direct_ms),
        "unattributed_ms": median(unattributed),
    }
