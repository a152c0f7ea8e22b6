"""End-to-end tests for the scheduling-as-a-service stack
(:mod:`repro.service`): protocol validation, submit→poll→result parity
with serial ``run_flow``, in-flight dedupe, cancellation, per-client
quotas and bounded-queue backpressure, NDJSON event streaming over real
HTTP, deterministic fault injection (worker crash, slow solve, corrupt
cache entry), and the fuzz-sourced load-generator oracle.

Everything is deterministic: jobs are pinned in precise states with
:class:`FaultPlan` events (never sleeps), and the load oracle replays
fuzz seeds byte-for-byte against serial flows.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.config import SchedulerConfig
from repro.designs.registry import BENCHMARKS
from repro.errors import (
    FlowCancelled,
    ProtocolError,
    QuotaExceeded,
    ServiceBusy,
)
from repro.experiments import run_flow
from repro.fuzz.generate import generate_graph, profile_for_seed
from repro.ir.serialize import schedule_to_dict
from repro.service import (
    FaultPlan,
    InProcessClient,
    SchedulingService,
    ServiceClient,
    ServiceServer,
    canonical_result_json,
    job_payload,
    parse_request,
    run_load,
)
from repro.service.loadgen import load_payload

FAST = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8)
FAST_CONFIG = {"ii": 1, "tcp": 10.0, "time_limit": 30.0, "max_cuts": 8}

#: submit→poll→result parity subjects: the three fastest Table 1 designs.
PARITY_DESIGNS = ("GSM", "DR", "CLZ")


def _payload(design: str, method: str = "milp-map",
             client: str = "tests", **extra):
    return job_payload(design=design, method=method, config=FAST_CONFIG,
                       client=client, **extra)


def _serial_canonical(design: str, method: str = "milp-map") -> str:
    flow = run_flow(BENCHMARKS[design].build(), method, config=FAST,
                    design=design)
    return canonical_result_json({
        "schedule": schedule_to_dict(flow.schedule),
        "report": flow.report.to_dict(),
    })


def _wait_state(service, job_id: str, state: str,
                timeout: float = 30.0) -> None:
    """Poll until the job reaches ``state`` (pins fault-gated jobs)."""
    deadline = time.time() + timeout
    while service.get(job_id).state != state:
        assert time.time() < deadline, \
            f"{job_id} never reached {state!r}"
        time.sleep(0.005)


# ----------------------------------------------------------------------
# Protocol validation
# ----------------------------------------------------------------------
def test_parse_request_accepts_minimal_design_payload():
    request = parse_request({"design": "GSM"})
    assert request.design == "GSM"
    assert request.method == "milp-map"
    assert request.client == "anonymous"
    assert request.lint is True
    assert request.time_budget is None


@pytest.mark.parametrize("payload, match", [
    ("not a dict", "JSON object"),
    ({"schema": "repro-service/v99", "design": "GSM"}, "unsupported schema"),
    ({"design": "GSM", "method": "magic"}, "unknown method"),
    ({}, "exactly one of"),
    ({"design": "GSM", "graph": {"nodes": []}}, "exactly one of"),
    ({"design": "NOPE"}, "unknown design"),
    ({"graph": {"bogus": True}}, "invalid graph"),
    ({"design": "GSM", "device": "asic"}, "unknown device"),
    ({"design": "GSM", "config": {"max_cutz": 8}}, "unknown config field"),
    ({"design": "GSM", "config": []}, "config must be"),
    ({"design": "GSM", "lint": "yes"}, "lint must be"),
    ({"design": "GSM", "time_budget": -1}, "time_budget"),
    ({"design": "GSM", "client": ""}, "client"),
    # Removed config fields are rejected like any other unknown field.
    ({"design": "GSM", "config": {"vectorize": False}}, "unknown config field"),
    # Values that would silently change the solve.
    ({"design": "GSM", "config": {"time_limit": -5}}, "invalid config"),
    ({"design": "GSM", "config": {"backend": "cplex"}}, "invalid config"),
])
def test_parse_request_rejects_malformed_payloads(payload, match):
    with pytest.raises(ProtocolError, match=match):
        parse_request(payload)


def test_canonical_result_json_strips_wall_clock():
    canonical = canonical_result_json({
        "schedule": {"ii": 1, "solve_seconds": 1.23},
        "report": {"luts": 4, "solve_seconds": 4.56},
    })
    assert "solve_seconds" not in canonical
    assert json.loads(canonical) == {"schedule": {"ii": 1},
                                     "report": {"luts": 4}}


# ----------------------------------------------------------------------
# Submit -> poll -> result parity with serial run_flow
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def parity_results():
    """Run the parity designs once through a shared two-shard service."""
    with SchedulingService(workers=2) as service:
        client = InProcessClient(service)
        docs = {}
        for design in PARITY_DESIGNS:
            status, doc = client.submit(_payload(design))
            assert status == 202
            docs[design] = doc["id"]
        return {design: client.wait(job_id, timeout=120)
                for design, job_id in docs.items()}


@pytest.mark.parametrize("design", PARITY_DESIGNS)
def test_service_result_matches_serial_run_flow(parity_results, design):
    document = parity_results[design]
    assert document["state"] == "done"
    assert canonical_result_json(document["result"]) \
        == _serial_canonical(design)


def test_job_document_carries_lifecycle_fields(parity_results):
    document = parity_results["GSM"]
    assert document["schema"] == "repro-service/v1"
    assert document["client"] == "tests"
    assert len(document["fingerprint"]) == 64
    assert document["attempts"] == 1
    assert document["created"] <= document["started"] \
        <= document["finished"]
    # Phase events bracket every traced phase, in order.
    result = document["result"]
    assert result["cached"] is False
    assert any(s["name"] == "solve" for s in result["spans"])


# ----------------------------------------------------------------------
# Dedupe: one solve no matter how many clients ask
# ----------------------------------------------------------------------
def test_inflight_dedupe_single_solve():
    gate = threading.Event()
    with SchedulingService(workers=1,
                           faults=FaultPlan(hold_start=gate)) as service:
        client = InProcessClient(service)
        status, first = client.submit(_payload("CLZ", client="alice"))
        assert status == 202 and not first["deduped"]
        # The job is pinned before its flow starts; same-fingerprint
        # submissions from other clients join it instead of queueing.
        for name in ("bob", "carol"):
            status, doc = client.submit(_payload("CLZ", client=name))
            assert status == 200
            assert doc["deduped"] and doc["id"] == first["id"]
        gate.set()
        final = client.wait(first["id"], timeout=60)
    assert final["state"] == "done"
    assert final["submissions"] == 3
    stats = service.stats()
    assert stats["accepted"] == 1 and stats["deduped"] == 2
    # Exactly one solve ever ran: every solve span in the result is
    # fresh, and there is exactly one per MILP (CLZ is unpartitioned).
    solves = [s for s in final["result"]["spans"]
              if s["name"] == "solve" and not s["cached"]]
    assert len(solves) == 1


def test_warm_cache_and_dedupe_compose(tmp_path):
    with SchedulingService(workers=1, cache=str(tmp_path)) as service:
        client = InProcessClient(service)
        _, first = client.submit(_payload("CLZ"))
        cold = client.wait(first["id"], timeout=60)
        assert cold["result"]["cached"] is False
        # A finished job is no longer in-flight: a new submission becomes
        # a new job, served by the flow cache with zero fresh solves.
        status, second = client.submit(_payload("CLZ"))
        assert status == 202 and second["id"] != first["id"]
        warm = client.wait(second["id"], timeout=60)
    assert warm["result"]["cached"] is True
    assert not any(s["name"] == "solve" and not s["cached"]
                   for s in warm["result"]["spans"])
    assert canonical_result_json(warm["result"]) \
        == canonical_result_json(cold["result"])
    assert service.stats()["cache_hits"] == 1


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_job_is_immediate():
    gate = threading.Event()
    with SchedulingService(workers=1,
                           faults=FaultPlan(hold_start=gate)) as service:
        client = InProcessClient(service)
        _, running = client.submit(_payload("CLZ", client="a"))
        _, queued = client.submit(_payload("GSM", client="b"))
        status, doc = client.cancel(queued["id"])
        assert status == 200 and doc["state"] == "cancelled"
        gate.set()
        assert client.wait(running["id"], timeout=60)["state"] == "done"
    cancelled = service.get(queued["id"])
    assert cancelled.attempts == 0  # never ran


def test_cancel_running_job_mid_solve_frees_slot():
    stall = threading.Event()
    plan = FaultPlan(stall_phases={"solve": stall})
    with SchedulingService(workers=1, quota=1, faults=plan) as service:
        client = InProcessClient(service)
        _, doc = client.submit(_payload("GSM", client="alice"))
        job = service.get(doc["id"])
        # Wait until the flow is pinned inside its solve phase, then
        # cancel and release: the flow finishes the phase and stops at
        # the next checkpoint.
        for event in client.events(doc["id"]):
            if event.get("phase") == "solve" and event["status"] == "start":
                break
        client.cancel(doc["id"])
        stall.set()
        final = client.wait(doc["id"], timeout=60)
        assert final["state"] == "cancelled"
        assert job.done.is_set()
        # The quota slot is free again: the same client (quota=1) can
        # submit a fresh job, and the same fingerprint re-solves as a
        # new job rather than joining the cancelled one.
        status, again = client.submit(_payload("GSM", client="alice"))
        assert status == 202 and again["id"] != doc["id"]
        assert client.wait(again["id"], timeout=60)["state"] == "done"


def test_time_budget_exceeded_fails_job():
    plan = FaultPlan(slow_phase_seconds={"solve": 0.3})
    with SchedulingService(workers=1, faults=plan) as service:
        client = InProcessClient(service)
        _, doc = client.submit(_payload("CLZ", time_budget=0.05))
        final = client.wait(doc["id"], timeout=60)
    assert final["state"] == "failed"
    assert final["error"]["type"] == "TimeBudgetExceeded"


# ----------------------------------------------------------------------
# Backpressure: quotas and the bounded queue
# ----------------------------------------------------------------------
def test_queue_overflow_rejects_without_losing_accepted_jobs():
    gate = threading.Event()
    plan = FaultPlan(hold_start=gate)
    with SchedulingService(workers=1, queue_limit=3, quota=8,
                           faults=plan) as service:
        client = InProcessClient(service)
        status, first = client.submit(_payload("CLZ", method="heur-map"))
        assert status == 202
        # Pin the first job as *running* (it holds at the fault gate, off
        # the queue) so exactly three queued slots remain.
        _wait_state(service, first["id"], "running")
        accepted = [first["id"]]
        for design in ("GSM", "DR", "XORR"):  # fills the queue
            status, doc = client.submit(_payload(design, method="heur-map"))
            assert status == 202
            accepted.append(doc["id"])
        status, rejection = client.submit(_payload("GFMUL",
                                                   method="heur-map"))
        assert status == 429
        assert rejection["error"] == "ServiceBusy"
        gate.set()
        finals = [client.wait(job_id, timeout=60) for job_id in accepted]
    assert [f["state"] for f in finals] == ["done"] * 4
    stats = service.stats()
    assert stats["rejected_queue"] == 1
    assert stats["completed"] == 4 and stats["failed"] == 0


def test_per_client_quota_isolates_clients():
    gate = threading.Event()
    plan = FaultPlan(hold_start=gate)
    with SchedulingService(workers=1, quota=2, queue_limit=8,
                           faults=plan) as service:
        client = InProcessClient(service)
        a1 = client.submit(_payload("CLZ", "heur-map", client="alice"))
        a2 = client.submit(_payload("GSM", "heur-map", client="alice"))
        assert a1[0] == a2[0] == 202
        status, rejection = client.submit(
            _payload("DR", "heur-map", client="alice"))
        assert status == 429 and rejection["error"] == "QuotaExceeded"
        # Another client is unaffected by alice's quota.
        status, bob = client.submit(
            _payload("XORR", "heur-map", client="bob"))
        assert status == 202
        gate.set()
        for doc in (a1[1], a2[1], bob):
            assert client.wait(doc["id"], timeout=60)["state"] == "done"
    assert service.stats()["rejected_quota"] == 1


# ----------------------------------------------------------------------
# Fault injection: crash retry and corrupt-cache recovery
# ----------------------------------------------------------------------
def test_worker_crash_retries_job_to_completion():
    plan = FaultPlan(crash_seqs={0})
    with SchedulingService(workers=1, max_retries=1,
                           faults=plan) as service:
        client = InProcessClient(service)
        _, doc = client.submit(_payload("CLZ", "heur-map"))
        final = client.wait(doc["id"], timeout=60)
    assert final["state"] == "done"
    assert final["attempts"] == 2
    job = service.get(doc["id"])
    assert any(e["event"] == "retry" for e in job.events)
    assert service.stats()["retried"] == 1


def test_worker_crash_beyond_retry_budget_fails():
    plan = FaultPlan(crash_seqs={0})
    with SchedulingService(workers=1, max_retries=0,
                           faults=plan) as service:
        client = InProcessClient(service)
        _, doc = client.submit(_payload("CLZ", "heur-map"))
        final = client.wait(doc["id"], timeout=60)
    assert final["state"] == "failed"
    assert final["error"]["type"] == "WorkerCrashFault"


def test_corrupt_cache_entry_recovers_by_resolving(tmp_path):
    plan = FaultPlan(corrupt_stores=True)
    with SchedulingService(workers=1, cache=str(tmp_path),
                           faults=plan) as service:
        client = InProcessClient(service)
        _, first = client.submit(_payload("CLZ"))
        cold = client.wait(first["id"], timeout=60)
        assert cold["state"] == "done"
        # The stored entry was corrupted after the store; the next
        # same-fingerprint submission degrades to a miss and re-solves,
        # producing the identical artifact.
        _, second = client.submit(_payload("CLZ"))
        again = client.wait(second["id"], timeout=60)
    assert again["state"] == "done"
    assert again["result"]["cached"] is False
    assert canonical_result_json(again["result"]) \
        == canonical_result_json(cold["result"])
    assert service.stats()["cache_hits"] == 0


def test_flow_cancelled_propagates_phase():
    # The service maps FlowCancelled to the cancelled state; the phase
    # rides the terminal event for diagnosis.
    with pytest.raises(FlowCancelled) as info:
        run_flow(BENCHMARKS["CLZ"].build(), "heur-map", config=FAST,
                 cancel=lambda: True)
    assert info.value.phase == "cache-load"


# ----------------------------------------------------------------------
# HTTP layer: real sockets, NDJSON streaming, error mapping
# ----------------------------------------------------------------------
@pytest.fixture()
def http_service():
    service = SchedulingService(workers=2)
    service.start()
    server = ServiceServer(service, port=0).serve_in_thread()
    try:
        yield ServiceClient(port=server.port), service
    finally:
        server.stop()
        service.shutdown()


def test_http_health_and_stats(http_service):
    client, _ = http_service
    status, doc = client.health()
    assert status == 200 and doc == {"ok": True,
                                     "schema": "repro-service/v1"}
    status, stats = client.stats()
    assert status == 200
    assert stats["workers"] == 2 and stats["submitted"] == 0


def test_http_rejects_malformed_requests(http_service):
    client, _ = http_service
    assert client.request("POST", "/jobs", {"design": "NOPE"})[0] == 400
    status, doc = client.request("POST", "/jobs")
    assert status == 400 and "JSON" in doc["message"]
    assert client.job("j-999999")[0] == 404
    assert client.cancel("j-999999")[0] == 404
    assert client.request("GET", "/no/such/route")[0] == 404


def test_http_submit_stream_and_result(http_service):
    client, _ = http_service
    status, doc = client.submit(_payload("GSM"))
    assert status == 202
    events = list(client.events(doc["id"]))
    # NDJSON ordering: seq strictly increasing from 0; lifecycle
    # ordering: queued, then running, then phase pairs, then done.
    assert [e["seq"] for e in events] == list(range(len(events)))
    states = [e["state"] for e in events if e["event"] == "state"]
    assert states == ["queued", "running", "done"]
    phases = [e for e in events if e["event"] == "phase"]
    assert phases and phases[0]["status"] == "start"
    for pair_start in (e for e in phases if e["status"] == "start"):
        assert any(e["phase"] == pair_start["phase"]
                   and e["status"] == "end" for e in phases)
    # Resume: ?from= replays only the tail.
    tail = list(client.events(doc["id"], start=len(events) - 2))
    assert [e["seq"] for e in tail] == [len(events) - 2, len(events) - 1]
    final = client.wait(doc["id"])
    assert final["state"] == "done"
    assert canonical_result_json(final["result"]) \
        == _serial_canonical("GSM")


def test_http_dedupe_returns_200_with_same_id(http_service):
    client, service = http_service
    gate = threading.Event()
    service.faults = FaultPlan(hold_start=gate)
    _, first = client.submit(_payload("DR", client="alice"))
    status, joined = client.submit(_payload("DR", client="bob"))
    assert status == 200 and joined["deduped"]
    assert joined["id"] == first["id"]
    gate.set()
    assert client.wait(first["id"])["state"] == "done"


# ----------------------------------------------------------------------
# Load-generator oracle: 50 fuzz jobs, byte parity with serial flows
# ----------------------------------------------------------------------
def test_load_generator_50_jobs_byte_identical_to_serial(tmp_path):
    seeds = range(50)
    with SchedulingService(workers=2, queue_limit=32, quota=16,
                           cache=str(tmp_path)) as service:
        client = InProcessClient(service)
        report = run_load(client, seeds=seeds, method="heur-map")
    assert len(report.jobs) == 50
    assert report.failed == 0 and report.completed == 50
    for record in report.jobs:
        seed = record["seed"]
        graph = generate_graph(seed, profile_for_seed(seed))
        flow = run_flow(graph, "heur-map",
                        config=SchedulerConfig(max_cuts=8,
                                               time_limit=30.0))
        from repro.ir.serialize import schedule_to_dict

        serial = canonical_result_json({
            "schedule": schedule_to_dict(flow.schedule),
            "report": flow.report.to_dict(),
        })
        assert record["canonical"] == serial, \
            f"seed {seed}: service result diverges from serial run_flow"
    data = report.to_dict()
    assert data["completed"] == 50
    assert data["jobs_per_sec"] > 0


def test_load_payload_is_deterministic():
    assert load_payload(7) == load_payload(7)
    assert load_payload(7)["graph"] != load_payload(8)["graph"]


# ----------------------------------------------------------------------
# Shutdown discipline
# ----------------------------------------------------------------------
def test_shutdown_cancels_active_jobs():
    gate = threading.Event()
    service = SchedulingService(workers=1, faults=FaultPlan(hold_start=gate))
    service.start()
    client = InProcessClient(service)
    _, running = client.submit(_payload("CLZ", client="a"))
    _, queued = client.submit(_payload("GSM", client="b"))
    gate.set()  # release just as shutdown lands
    service.shutdown(cancel_active=True)
    for doc in (running, queued):
        job = service.get(doc["id"])
        assert job.state in ("done", "cancelled")
        assert job.done.is_set()
    with pytest.raises(Exception):
        service.submit(_payload("DR"))
