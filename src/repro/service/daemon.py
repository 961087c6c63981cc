"""The ``sdssort serve`` daemon: JSON-lines ops over stdio or a socket.

Protocol: one JSON object per line in, one per line out, in lock step
per connection.  Requests carry ``{"op": ...}`` plus op-specific
fields; responses are ``{"ok": true, ...}`` or ``{"ok": false,
"error": "..."}`` — a malformed line is an error *response*, never a
dead daemon.  Ops:

    submit  {"spec": {...}, "priority"?, "timeout_s"?} -> {"job": env}
    status  {"job_id"}                                 -> {"job": env}
    result  {"job_id", "wait"?: true, "timeout"?}      -> {"job": env}
    cancel  {"job_id"}                                 -> {"job": env}
    stats   {}                                         -> {"stats": {...}}
    metrics {"format"?: "json"|"prometheus"}
            -> {"metrics": doc} or {"text": exposition}
    drain   {}          -> {"drained": true, "stats", "metrics"?}
                           and the daemon exits

where ``env`` is the ``sdssort.job/v1`` envelope and ``doc`` the
``sdssort.metrics/v1`` telemetry document.  ``drain`` finishes queued
+ running work first, so its response doubles as the barrier a
scripted client (the CI smoke job) waits on — and carries the final
metrics scrape (when telemetry is on), since no further request can
reach the daemon after it.

Transports: ``serve_stdio`` serves exactly one client on stdin/stdout
(pipes, ``subprocess``); ``serve_socket`` binds a Unix socket and
serves each connection on its own thread — blocking ``result`` waits
never stall other clients.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
from typing import Any, Callable, TextIO

from ..mpi.engine import Seat, _place
from .jsondoc import job_envelope, metrics_doc
from .scheduler import SortService
from .slog import log_event, service_logger

#: Ops a request may name (anything else is an error response).
OPS = ("submit", "status", "result", "cancel", "stats", "metrics",
       "drain")

_LOG = service_logger("service.daemon")


def handle_request(service: SortService, doc: dict[str, Any],
                   ) -> tuple[dict[str, Any], bool]:
    """Dispatch one request; returns ``(response, should_exit)``."""
    op = doc.get("op")
    try:
        if op == "submit":
            spec = doc.get("spec")
            if not isinstance(spec, dict):
                raise ValueError('submit needs a "spec" object')
            job = service.submit(
                spec, priority=doc.get("priority", "batch"),
                timeout_s=doc.get("timeout_s"))
            return {"ok": True, "job": job_envelope(job,
                                                    include_result=False)}, \
                False
        if op == "status":
            job = service.get(_job_id(doc))
            return {"ok": True,
                    "job": job_envelope(job, include_result=False)}, False
        if op == "result":
            if doc.get("wait", True):
                job = service.wait(_job_id(doc), doc.get("timeout"))
            else:
                job = service.get(_job_id(doc))
            return {"ok": True, "job": job_envelope(job)}, False
        if op == "cancel":
            job = service.cancel(_job_id(doc))
            return {"ok": True,
                    "job": job_envelope(job, include_result=False)}, False
        if op == "stats":
            return {"ok": True, "stats": service.stats()}, False
        if op == "metrics":
            fmt = doc.get("format", "json")
            if fmt == "prometheus":
                from ..obs.telemetry import render_prometheus
                metrics_doc(service)  # raises if telemetry is off
                return {"ok": True,
                        "content_type": "text/plain; version=0.0.4",
                        "text": render_prometheus(
                            service.metrics.registry)}, False
            if fmt != "json":
                raise ValueError(f"unknown metrics format {fmt!r}; "
                                 "options: 'json', 'prometheus'")
            return {"ok": True, "metrics": metrics_doc(service)}, False
        if op == "drain":
            service.drain()
            response = {"ok": True, "drained": True,
                        "stats": service.stats()}
            if service.metrics is not None:
                # the daemon exits after this line hits the wire, so
                # the drain response is the last possible scrape
                response["metrics"] = metrics_doc(service)
            return response, True
        return {"ok": False,
                "error": f"unknown op {op!r}; options: {list(OPS)}"}, False
    except Exception as exc:  # noqa: BLE001 - protocol error boundary
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}, False


def _job_id(doc: dict[str, Any]) -> str:
    job_id = doc.get("job_id")
    if not isinstance(job_id, str):
        raise ValueError('request needs a "job_id" string')
    return job_id


def _dispatch_line(service: SortService, line: str
                   ) -> tuple[dict[str, Any], bool]:
    line = line.strip()
    if not line:
        return {"ok": False, "error": "empty request line"}, False
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"ok": False, "error": f"bad JSON: {exc}"}, False
    if not isinstance(doc, dict):
        return {"ok": False, "error": "request must be a JSON object"}, False
    response, should_exit = handle_request(service, doc)
    log_event(_LOG, "request", level=logging.DEBUG, op=doc.get("op"),
              ok=bool(response.get("ok")), job_id=doc.get("job_id"))
    return response, should_exit


def serve_stdio(service: SortService, rfile: TextIO, wfile: TextIO) -> None:
    """Serve one client over text streams until EOF or ``drain``.

    EOF without a ``drain`` still drains before returning — closing the
    pipe is the polite way to stop a stdio daemon.
    """
    try:
        for line in rfile:
            response, should_exit = _dispatch_line(service, line)
            wfile.write(json.dumps(response, sort_keys=True) + "\n")
            wfile.flush()
            if should_exit:
                return
        service.drain()
    finally:
        service.close()


def serve_socket(service: SortService, path: str, *,
                 ready: Callable[[], None] | None = None) -> None:
    """Bind ``path`` and serve until a client sends ``drain``.

    Each connection gets its own thread so one client blocking on
    ``result`` doesn't starve the rest; ``ready`` (if given) fires once
    the socket is listening — the CLI uses it to print the path only
    when connecting can succeed.
    """
    if os.path.exists(path):
        os.unlink(path)  # a stale socket from a dead daemon
    stop = threading.Event()
    conns: dict[threading.Thread, socket.socket] = {}
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        listener.bind(path)
        listener.listen()
        listener.settimeout(0.2)
        log_event(_LOG, "listening", socket=path)
        if ready is not None:
            ready()
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            log_event(_LOG, "connection_opened", level=logging.DEBUG,
                      socket=path)
            t = threading.Thread(target=_serve_connection,
                                 args=(service, conn, stop),
                                 name="sort-service-conn", daemon=True)
            t.start()
            conns = {t: c for t, c in conns.items() if t.is_alive()}
            conns[t] = conn
        for t, conn in conns.items():
            # an idle client must not hold the daemon up: EOF its reader
            # (a response on its way out still finishes; closed ones raise)
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
            t.join(timeout=5.0)
    finally:
        listener.close()
        if os.path.exists(path):
            os.unlink(path)
        service.close()
        log_event(_LOG, "daemon_exit", socket=path)


def _serve_connection(service: SortService, conn: socket.socket,
                      stop: threading.Event) -> None:
    rfile = conn.makefile("r", encoding="utf-8")
    Seat(_place()).move(True)  # interpreter-bound: share the workers' CPU
    try:
        for line in rfile:
            response, should_exit = _dispatch_line(service, line)
            conn.sendall((json.dumps(response, sort_keys=True)
                          + "\n").encode("utf-8"))
            if should_exit:
                stop.set()
                return
    except OSError:
        pass  # client went away mid-write; the service is unaffected
    finally:
        rfile.close()
        conn.close()
