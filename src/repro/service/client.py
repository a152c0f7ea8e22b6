"""Clients for the scheduling service.

Two interchangeable clients expose the same five calls with the same
``(status, document)`` return shape, so tests and the load generator can
run against either:

* :class:`ServiceClient` — a real HTTP client (stdlib ``http.client``)
  for a running ``repro serve`` endpoint; this is what ``repro submit``
  uses and what the HTTP-layer tests drive.
* :class:`InProcessClient` — the same API mapped directly onto a
  :class:`~repro.service.jobs.SchedulingService`, with the HTTP status
  codes synthesized from the same exceptions the server maps. Zero
  sockets: this is the in-process fixture the tier-1 tests drive,
  the load generator included.

Both stream ``events()`` as parsed NDJSON dicts and offer ``wait()``
for submit→poll→result flows.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Iterator

from ..errors import (
    ProtocolError,
    QuotaExceeded,
    ServiceBusy,
    ServiceError,
)
from .jobs import SchedulingService
from .protocol import SERVICE_SCHEMA, TERMINAL_STATES

__all__ = ["ServiceClient", "InProcessClient", "job_payload"]


def job_payload(design: str | None = None, graph: Any = None,
                method: str = "milp-map", device: str = "xc7",
                config: dict[str, Any] | None = None, client: str = "cli",
                lint: bool = True,
                time_budget: float | None = None) -> dict[str, Any]:
    """Assemble a ``repro-service/v1`` job request payload.

    ``graph`` may be a :class:`~repro.ir.graph.CDFG` (serialized here)
    or an already-serialized graph dict.
    """
    from ..ir.graph import CDFG
    from ..ir.serialize import graph_to_dict

    payload: dict[str, Any] = {"schema": SERVICE_SCHEMA, "client": client,
                               "method": method, "device": device,
                               "lint": lint}
    if design is not None:
        payload["design"] = design
    if graph is not None:
        payload["graph"] = (graph_to_dict(graph)
                            if isinstance(graph, CDFG) else graph)
    if config:
        payload["config"] = dict(config)
    if time_budget is not None:
        payload["time_budget"] = time_budget
    return payload


class ServiceClient:
    """Blocking HTTP client for one ``repro serve`` endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- raw request ---------------------------------------------------
    def request(self, method: str, path: str,
                payload: dict[str, Any] | None = None
                ) -> tuple[int, dict[str, Any]]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = (json.dumps(payload).encode("utf-8")
                    if payload is not None else None)
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"}
                         if body else {})
            response = conn.getresponse()
            data = response.read()
            try:
                document = json.loads(data.decode("utf-8")) if data else {}
            except ValueError:
                document = {"error": "BadResponse",
                            "message": data[:200].decode("latin-1")}
            return response.status, document
        finally:
            conn.close()

    # -- API -----------------------------------------------------------
    def health(self) -> tuple[int, dict[str, Any]]:
        return self.request("GET", "/healthz")

    def stats(self) -> tuple[int, dict[str, Any]]:
        return self.request("GET", "/stats")

    def submit(self, payload: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        return self.request("POST", "/jobs", payload)

    def job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        return self.request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> tuple[int, dict[str, Any]]:
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def events(self, job_id: str, start: int = 0
               ) -> Iterator[dict[str, Any]]:
        """Stream the job's NDJSON events until the terminal event."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events?from={start}")
            response = conn.getresponse()
            if response.status != 200:
                raise ServiceError(
                    f"event stream for {job_id!r} failed: "
                    f"{response.status} {response.read()[:200]!r}")
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05) -> dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the doc."""
        deadline = time.time() + timeout
        while True:
            status, document = self.job(job_id)
            if status != 200:
                raise ServiceError(f"job {job_id!r} lookup failed: {status}")
            if document.get("state") in TERMINAL_STATES:
                return document
            if time.time() > deadline:
                raise ServiceError(f"timed out waiting for {job_id!r} "
                                   f"(state {document.get('state')!r})")
            time.sleep(poll)


class InProcessClient:
    """The :class:`ServiceClient` API directly over a service instance."""

    def __init__(self, service: SchedulingService) -> None:
        self.service = service

    def health(self) -> tuple[int, dict[str, Any]]:
        return 200, {"ok": True, "schema": SERVICE_SCHEMA}

    def stats(self) -> tuple[int, dict[str, Any]]:
        return 200, self.service.stats()

    def submit(self, payload: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        try:
            job, created = self.service.submit(payload)
        except ProtocolError as exc:
            return 400, {"error": "ProtocolError", "message": str(exc)}
        except (QuotaExceeded, ServiceBusy) as exc:
            return 429, {"error": type(exc).__name__, "message": str(exc)}
        document = job.document(include_result=False)
        document["deduped"] = not created
        return (202 if created else 200), document

    def job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.service.get(job_id)
        if job is None:
            return 404, {"error": "NotFound",
                         "message": f"unknown job {job_id!r}"}
        return 200, job.document()

    def cancel(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.service.cancel(job_id)
        if job is None:
            return 404, {"error": "NotFound",
                         "message": f"unknown job {job_id!r}"}
        return 200, job.document(include_result=False)

    def events(self, job_id: str, start: int = 0
               ) -> Iterator[dict[str, Any]]:
        job = self.service.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        index = start
        while True:
            batch = job.wait_events(index, timeout=0.25)
            yield from batch
            index += len(batch)
            if job.done.is_set() and index >= len(job.events):
                return

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.02) -> dict[str, Any]:
        job = self.service.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if not job.done.wait(timeout=timeout):
            raise ServiceError(f"timed out waiting for {job_id!r} "
                               f"(state {job.state!r})")
        return job.document()
