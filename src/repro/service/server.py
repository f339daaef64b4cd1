"""HTTP API of the scenario service.

A deliberately small, dependency-free JSON-over-HTTP surface on the stdlib's
:class:`~http.server.ThreadingHTTPServer` (one thread per request; the heavy
lifting happens on the scheduler's workers, so request handlers only touch
the job store).  Endpoints:

=======  ==========================  ===============================================
Method   Path                        Meaning
=======  ==========================  ===============================================
GET      ``/v1/healthz``             liveness + job counts + compact stats summary
GET      ``/v1/metrics``             process metrics (Prometheus text;
                                     ``?format=json`` for the JSON snapshot)
GET      ``/v1/scenarios``           catalog: experiments, engines, sweepable fields
POST     ``/v1/scenarios/preview``   expand a sweep without running it
POST     ``/v1/jobs``                submit a campaign or experiment job
GET      ``/v1/jobs``                list jobs (``?state=``, ``?kind=``, ``?limit=``)
GET      ``/v1/jobs/{id}``           one job: state, progress, timings, result
GET      ``/v1/jobs/{id}/trace``     the job's persisted span tree (404 until the
                                     job has executed)
DELETE   ``/v1/jobs/{id}``           cancel (immediate if queued, cooperative if
                                     running)
GET      ``/v1/debug/flight``        flight-recorder dump: recent spans/errors
=======  ==========================  ===============================================

Responses are JSON; errors are ``{"error": message}`` with a 4xx status.
Submission replies carry ``"deduplicated": true`` (and status 200 instead of
201) when an equivalent job already existed.

Every request runs under its own short correlation id: log lines the request
produces (including the scheduler's ``job.submitted``) can be stitched back
to it, and an unexpected handler error becomes a clean 500 plus a structured
ERROR event instead of a raw traceback on stderr.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.experiments.registry import experiment_descriptions
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.logging import get_logger, log_event
from repro.runtime.backends import ENGINES
from repro.runtime.scenario import ScenarioSpec, expand_scenarios
from repro.service.queue import JobScheduler

__all__ = ["ScenarioServer", "catalog_payload", "sweep_preview_payload"]

_logger = get_logger("service.server")


def catalog_payload() -> Dict[str, Any]:
    """The ``GET /v1/scenarios`` response body.

    Shared by both HTTP front ends; the catalog is static per process, so
    the asyncio gateway caches its serialized form.
    """
    sweepable = sorted(
        f.name for f in dataclasses.fields(ScenarioSpec) if f.name != "name"
    )
    return {
        "experiments": experiment_descriptions(),
        "engines": list(ENGINES),
        "sweepable_fields": sweepable,
        "preview": "POST {scenario, axes} to /v1/scenarios/preview to expand "
                   "a sweep without running it",
    }


def sweep_preview_payload(body: Dict[str, Any]) -> Dict[str, Any]:
    """Expand a ``{scenario, axes}`` preview request into its response payload.

    Shared by both HTTP front ends (the threaded :class:`ScenarioServer` and
    the asyncio gateway), so ``POST /v1/scenarios/preview`` behaves
    identically whichever one answers.  Raises :exc:`ValueError` /
    :exc:`TypeError` / :exc:`KeyError` for malformed requests (the HTTP
    layer renders those as a 400).

    Example::

        >>> payload = sweep_preview_payload({
        ...     "scenario": {"name": "s", "chain": {"n": 3, "seed": 1},
        ...                  "failure": {"kind": "exponential", "mtbf": 10.0},
        ...                  "strategies": ["optimal_dp"], "num_runs": 10},
        ...     "axes": {"num_runs": [10, 20]},
        ... })
        >>> payload["count"]
        2
    """
    base = ScenarioSpec.from_dict(body.get("scenario", {}))
    axes = body.get("axes", {})
    if not isinstance(axes, dict):
        raise ValueError('"axes" must map field names to value lists')
    if "failure" in axes:
        axes = dict(axes)
        axes["failure"] = [
            spec if not isinstance(spec, dict) else base.failure.__class__(**spec)
            for spec in axes["failure"]
        ]
    if "chain" in axes:
        axes = dict(axes)
        axes["chain"] = [
            spec if not isinstance(spec, dict) else base.chain.__class__(**spec)
            for spec in axes["chain"]
        ]
    expanded = expand_scenarios(base, **axes)
    return {
        "count": len(expanded),
        "scenarios": [
            {
                "name": spec.name,
                "cache_key": spec.cache_key(),
                "num_runs": spec.num_runs,
                "engine": spec.engine,
                "scenario": spec.to_dict(),
            }
            for spec in expanded
        ],
    }

#: Known route templates, used as the ``route`` metric label so per-job URLs
#: (``/v1/jobs/<16-hex-id>``) cannot explode the label cardinality.
_ROUTES = (
    "/v1/healthz",
    "/v1/metrics",
    "/v1/scenarios",
    "/v1/scenarios/preview",
    "/v1/jobs",
    "/v1/debug/flight",
)


def _route_label(path: str) -> str:
    if path in _ROUTES:
        return path
    if path.startswith("/v1/jobs/"):
        if path.endswith("/trace"):
            return "/v1/jobs/{id}/trace"
        return "/v1/jobs/{id}"
    return "other"


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the scheduler/store behind the server."""

    server_version = "repro-scenario-service/1"
    protocol_version = "HTTP/1.1"

    # The ScenarioServer attaches itself here (class created per server).
    service: "ScenarioServer"

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST", self._route_post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE", self._route_delete)

    def _route_get(self, path: str, query: Dict[str, list]) -> None:
        if path == "/v1/healthz":
            self._send(200, self.service.health())
        elif path == "/v1/metrics":
            self._serve_metrics(query)
        elif path == "/v1/scenarios":
            self._send(200, self.service.catalog())
        elif path == "/v1/jobs":
            self._list_jobs(query)
        elif path == "/v1/debug/flight":
            self._serve_flight(query)
        elif path.startswith("/v1/jobs/") and path.endswith("/trace"):
            self._get_trace(path[len("/v1/jobs/"):-len("/trace")])
        elif path.startswith("/v1/jobs/"):
            self._get_job(path[len("/v1/jobs/"):])
        else:
            self._send(404, {"error": f"no such path: {path}"})

    def _route_post(self, path: str, query: Dict[str, list]) -> None:
        if path == "/v1/jobs":
            self._submit_job()
        elif path == "/v1/scenarios/preview":
            self._preview_sweep()
        else:
            self._send(404, {"error": f"no such path: {path}"})

    def _route_delete(self, path: str, query: Dict[str, list]) -> None:
        if path.startswith("/v1/jobs/"):
            self._cancel_job(path[len("/v1/jobs/"):])
        else:
            self._send(404, {"error": f"no such path: {path}"})

    def _dispatch(
        self, method: str, router: Callable[[str, Dict[str, list]], None]
    ) -> None:
        """Route one request under its own trace, timing and error boundary.

        Unexpected handler exceptions become a JSON 500 plus a structured
        ERROR event carrying the request's correlation id -- never a raw
        traceback dumped by the socketserver machinery.
        """
        path, query = self._split_path()
        route = _route_label(path)
        self._status: Optional[int] = None
        start = time.perf_counter()
        with _tracing.start_trace(collect=False):
            try:
                router(path, query)
            except Exception as exc:  # noqa: BLE001 - boundary of the HTTP thread
                log_event(
                    _logger, "http.request_error", level=logging.ERROR,
                    method=method, path=path,
                    error=f"{type(exc).__name__}: {exc}", exc_info=exc,
                )
                if self._status is None:
                    try:
                        self._send(500, {"error": "internal server error"})
                    except OSError:  # pragma: no cover - client hung up mid-reply
                        pass
            duration = time.perf_counter() - start
            status = self._status if self._status is not None else 500
            registry = _metrics.get_registry()
            registry.counter(
                "repro_http_requests_total",
                "HTTP requests by method, route template and status code.",
                labelnames=("method", "route", "status"),
            ).inc(method=method, route=route, status=str(status))
            registry.histogram(
                "repro_http_request_seconds",
                "HTTP request latency by route template.",
                labelnames=("route",),
            ).observe(duration, route=route)
            log_event(
                _logger, "http.request", level=logging.DEBUG,
                method=method, path=path, status=status,
                duration_s=round(duration, 6),
            )

    def _serve_metrics(self, query: Dict[str, list]) -> None:
        registry = _metrics.get_registry()
        if query.get("format", [None])[0] == "json":
            self._send(200, {"metrics": registry.snapshot()})
        else:
            self._send_text(
                200,
                registry.render_prometheus(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _list_jobs(self, query: Dict[str, list]) -> None:
        try:
            records = self.service.scheduler.store.list_jobs(
                state=query.get("state", [None])[0],
                kind=query.get("kind", [None])[0],
                limit=int(query["limit"][0]) if "limit" in query else None,
            )
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        # Listings omit result payloads (a done campaign's samples can be
        # megabytes); fetch the job by id for the full record.
        self._send(
            200, {"jobs": [record.to_dict(include_result=False) for record in records]}
        )

    def _get_job(self, job_id: str) -> None:
        record = self.service.scheduler.store.get(job_id)
        if record is None:
            self._send(404, {"error": f"no such job: {job_id}"})
        else:
            self._send_bytes(200, record.to_json_bytes(), "application/json")

    def _get_trace(self, job_id: str) -> None:
        store = self.service.scheduler.store
        record = store.get(job_id)
        if record is None:
            self._send(404, {"error": f"no such job: {job_id}"})
            return
        trace = store.get_trace(job_id)
        if trace is None:
            # Distinct message from the unknown-job 404: the job exists, its
            # trace does not (yet) -- it has not executed, or predates the
            # trace pipeline.
            self._send(404, {"error": f"no trace recorded for job: {job_id}"})
            return
        self._send(200, {"job_id": job_id, "trace": trace})

    def _serve_flight(self, query: Dict[str, list]) -> None:
        from repro.obs.flight import get_flight_recorder

        payload = get_flight_recorder().snapshot()
        kind = query.get("kind", [None])[0]
        if kind is not None:
            payload["events"] = [e for e in payload["events"] if e["kind"] == kind]
        self._send(200, {"flight": payload})

    def _cancel_job(self, job_id: str) -> None:
        record = self.service.scheduler.store.get(job_id)
        if record is None:
            self._send(404, {"error": f"no such job: {job_id}"})
            return
        updated = self.service.scheduler.store.request_cancel(job_id)
        if record.state == "queued" and updated.state == "cancelled":
            # Immediate cancellation of a queued job: it will never reach a
            # worker, so count it here (running jobs are counted by the
            # scheduler when their cooperative cancel lands).
            _metrics.get_registry().counter(
                "repro_jobs_cancelled_total",
                "Jobs cancelled, by kind.",
                labelnames=("kind",),
            ).inc(kind=record.kind)
            self.service.scheduler._update_queue_depth()
        log_event(
            _logger, "job.cancel_requested",
            job_id=job_id, kind=record.kind, state=updated.state,
        )
        self._send(200, {"job": updated.to_dict(include_result=False)})

    def _submit_job(self) -> None:
        body = self._read_json()
        if body is None:
            return
        kind = body.get("kind", "campaign")
        try:
            if kind == "campaign":
                if "scenario" not in body:
                    raise ValueError('a campaign submission needs a "scenario" object')
                record, reused = self.service.scheduler.submit_campaign(
                    body["scenario"], chunk_size=body.get("chunk_size")
                )
            elif kind == "experiment":
                if "experiment" not in body:
                    raise ValueError('an experiment submission needs an "experiment" id')
                record, reused = self.service.scheduler.submit_experiment(
                    body["experiment"],
                    engine=body.get("engine"),
                    params=body.get("params"),
                )
            else:
                raise ValueError(
                    f"unknown job kind {kind!r}; expected 'campaign' or 'experiment'"
                )
        except (KeyError, TypeError, ValueError) as exc:
            self._send(400, {"error": str(exc)})
            return
        try:
            self._send(
                200 if reused else 201,
                {"job": record.to_dict(include_result=False), "deduplicated": reused},
            )
        finally:
            # The reply goes out before the workers wake (see JobScheduler.wake).
            self.service.scheduler.wake()

    def _preview_sweep(self) -> None:
        body = self._read_json()
        if body is None:
            return
        try:
            payload = sweep_preview_payload(body)
        except (KeyError, TypeError, ValueError) as exc:
            self._send(400, {"error": str(exc)})
            return
        self._send(200, payload)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _split_path(self) -> Tuple[str, Dict[str, list]]:
        parts = urlsplit(self.path)
        return parts.path.rstrip("/") or "/", parse_qs(parts.query)

    def _read_json(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send(400, {"error": f"invalid JSON body: {exc}"})
            return None
        if not isinstance(body, dict):
            self._send(400, {"error": "the request body must be a JSON object"})
            return None
        return body

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_bytes(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _send_text(self, status: int, text: str, *, content_type: str) -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_bytes(self, status: int, data: bytes, content_type: str) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.service.verbose:
            super().log_message(format, *args)


class ScenarioServer:
    """The scenario service's HTTP front-end.

    Wraps a :class:`JobScheduler` in a :class:`~http.server.ThreadingHTTPServer`.
    ``port=0`` binds an ephemeral port (query :attr:`port` after
    construction) -- how the tests and the CI smoke step avoid collisions.

    Use :meth:`serve_forever` for a foreground server (the CLI) or
    :meth:`start` / :meth:`shutdown` for a background one (tests, notebooks).
    Starting the server also starts the scheduler's workers.

    This is the simple, thread-per-connection fallback
    (``repro serve --server threaded``); the default front end is the
    asyncio :class:`~repro.service.gateway.GatewayServer`, which adds SSE
    progress, rate limiting and the audit trail.  Both serve identical
    payloads on the shared ``/v1`` routes.

    Example::

        >>> from repro.service import JobScheduler, JobStore, ScenarioServer
        >>> server = ScenarioServer(JobScheduler(JobStore()), port=0)
        >>> server.start()
        >>> server.url                          # doctest: +ELLIPSIS
        'http://127.0.0.1:...'
        >>> server.shutdown()
    """

    def __init__(
        self,
        scheduler: JobScheduler,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        verbose: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.verbose = verbose
        self.started_at = time.time()
        handler = type("_BoundServiceHandler", (_ServiceRequestHandler,), {"service": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Introspection payloads (shared by handler and health checks)
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        counts = self.scheduler.store.counts()
        registry = _metrics.get_registry()
        cache = self.scheduler.cache
        return {
            "status": "ok",
            "jobs": counts,
            "workers": self.scheduler.num_workers,
            "backend": repr(self.scheduler.backend),
            # `is not None`, not truthiness: ResultCache.__len__ makes an
            # empty cache falsy, and an attached-but-cold cache must still
            # show up here.
            "cache": repr(cache) if cache is not None else None,
            "uptime_seconds": time.time() - self.started_at,
            # Compact counters for humans and smoke checks; the full
            # time-series view lives at /v1/metrics.
            "stats": {
                "http_requests": registry.total("repro_http_requests_total"),
                "jobs_submitted": registry.total("repro_jobs_submitted_total"),
                "jobs_deduplicated": registry.total("repro_jobs_deduplicated_total"),
                "jobs_executed": registry.total("repro_jobs_completed_total"),
                "queue_depth": counts["queued"],
                "cache_hits": cache.hits if cache is not None else 0,
                "cache_misses": cache.misses if cache is not None else 0,
            },
        }

    def catalog(self) -> Dict[str, Any]:
        return catalog_payload()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run in the calling thread until :meth:`shutdown` (or Ctrl-C).

        On the way out (including Ctrl-C) workers get a bounded grace period
        to finish their current job, then are abandoned: a foreground server
        must stop when asked, and a job cut short mid-run is exactly what
        restart recovery re-queues on the next start.
        """
        self.scheduler.start()
        log_event(
            _logger, "server.started",
            host=self.host, port=self.port, workers=self.scheduler.num_workers,
        )
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()
            self.scheduler.stop(timeout=2.0)

    def start(self) -> None:
        """Serve in a background thread (returns once the socket is live)."""
        self.scheduler.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="repro-scenario-server", daemon=True,
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Stop serving and stop the scheduler's workers."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.scheduler.stop()

    def __enter__(self) -> "ScenarioServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
