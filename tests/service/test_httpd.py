"""The HTTP/JSON API, raw on the wire.

Every response body is validated against the committed contracts under
``tests/service/data/`` — the wire format is the product here, so the
tests read raw ``urllib`` responses rather than going through the
client. The supervisor under the ``idle_server`` fixture has no worker
threads, so queued jobs stay queued and admission behaviour is
deterministic.
"""

import json
import urllib.error
import urllib.request

from repro.service.httpd import MAX_BODY_BYTES
from repro.service.schema import envelope

from tests.obs.prometheus import parse_prometheus_text
from tests.service.contracts import assert_valid, contract, job_contract


def call(server, method, path, body=None):
    """(status, parsed JSON document) for one request."""
    url = f"http://127.0.0.1:{server.server_address[1]}{path}"
    data = json.dumps(body).encode() if isinstance(body, dict) else body
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def submit_body(config="soc_2", **extra):
    return envelope("submit", {"config": config, **extra})


class TestSubmit:
    def test_accepted_job_is_202_and_valid(self, idle_server):
        status, document = call(
            idle_server, "POST", "/v1/jobs", submit_body(tenant="acme", priority=3)
        )
        assert status == 202
        assert_valid(document, job_contract(), "submit response")
        assert document["state"] == "queued"
        assert document["spec"]["tenant"] == "acme"
        assert document["spec"]["priority"] == 3

    def test_missing_body_is_400(self, idle_server):
        status, document = call(idle_server, "POST", "/v1/jobs")
        assert status == 400
        assert_valid(document, contract("error"), "error body")
        assert document["error"]["reason"] == "bad_request"

    def test_invalid_json_is_400(self, idle_server):
        status, document = call(idle_server, "POST", "/v1/jobs", b"{nope")
        assert status == 400
        assert document["error"]["reason"] == "bad_request"

    def test_schema_violation_is_400(self, idle_server):
        status, document = call(
            idle_server, "POST", "/v1/jobs", submit_body(surprise=True)
        )
        assert status == 400
        assert_valid(document, contract("error"), "error body")
        assert document["error"]["reason"] == "schema_violation"
        assert "surprise" in document["error"]["message"]

    def test_wrong_envelope_version_is_schema_violation(self, idle_server):
        body = submit_body()
        body["schema_version"] = 99
        status, document = call(idle_server, "POST", "/v1/jobs", body)
        assert status == 400
        assert document["error"]["reason"] == "schema_violation"

    def test_unknown_design_is_400(self, idle_server):
        status, document = call(
            idle_server, "POST", "/v1/jobs", submit_body(config="soc_999")
        )
        assert status == 400
        assert document["error"]["reason"] == "bad_request"
        # The bad job never entered the system.
        _, listing = call(idle_server, "GET", "/v1/jobs")
        assert listing["jobs"] == []

    def test_oversized_body_is_413(self, idle_server):
        blob = json.dumps(
            submit_body(tenant="x" * (MAX_BODY_BYTES + 1))
        ).encode()
        status, document = call(idle_server, "POST", "/v1/jobs", blob)
        assert status == 413
        assert document["error"]["reason"] == "too_large"

    def test_over_quota_is_429_and_never_queued(self, idle_server):
        # The fixture caps tenant "capped" at 2 queued/active jobs.
        for _ in range(2):
            status, _ = call(
                idle_server, "POST", "/v1/jobs", submit_body(tenant="capped")
            )
            assert status == 202
        status, document = call(
            idle_server, "POST", "/v1/jobs", submit_body(tenant="capped")
        )
        assert status == 429
        assert_valid(document, contract("error"), "429 body")
        assert document["error"]["reason"] in ("tenant_queued", "tenant_active")
        _, listing = call(idle_server, "GET", "/v1/jobs?tenant=capped")
        assert len(listing["jobs"]) == 2
        assert listing["queue"]["rejected"] == 1


class TestReads:
    def test_status_roundtrip(self, idle_server):
        _, accepted = call(idle_server, "POST", "/v1/jobs", submit_body())
        status, document = call(
            idle_server, "GET", f"/v1/jobs/{accepted['job_id']}"
        )
        assert status == 200
        assert_valid(document, job_contract(), "status response")

    def test_unknown_job_is_404(self, idle_server):
        status, document = call(idle_server, "GET", "/v1/jobs/job-00000000-0099")
        assert status == 404
        assert document["error"]["reason"] == "not_found"

    def test_unknown_route_is_404(self, idle_server):
        status, _ = call(idle_server, "GET", "/v2/jobs")
        assert status == 404
        status, _ = call(idle_server, "POST", "/v1/nothing", submit_body())
        assert status == 404

    def test_list_filters_and_validates(self, idle_server):
        call(idle_server, "POST", "/v1/jobs", submit_body(tenant="acme"))
        call(idle_server, "POST", "/v1/jobs", submit_body(tenant="birch"))
        status, document = call(idle_server, "GET", "/v1/jobs?tenant=acme")
        assert status == 200
        assert len(document["jobs"]) == 1
        for record in document["jobs"]:
            assert_valid(record, contract("record"), "listed record")
        assert_valid(document["queue"], contract("queue"), "queue snapshot")

    def test_list_rejects_unknown_state(self, idle_server):
        status, document = call(idle_server, "GET", "/v1/jobs?state=exploded")
        assert status == 400
        assert document["error"]["reason"] == "bad_request"

    def test_result_before_terminal_is_409(self, idle_server):
        _, accepted = call(idle_server, "POST", "/v1/jobs", submit_body())
        status, document = call(
            idle_server, "GET", f"/v1/jobs/{accepted['job_id']}/result"
        )
        assert status == 409
        assert document["error"]["reason"] == "not_ready"

    def test_artifacts_of_queued_job_are_empty(self, idle_server):
        _, accepted = call(idle_server, "POST", "/v1/jobs", submit_body())
        status, document = call(
            idle_server, "GET", f"/v1/jobs/{accepted['job_id']}/artifacts"
        )
        assert status == 200
        assert_valid(document, contract("artifacts"), "artifacts response")
        assert document["files"] == []
        assert document["checkpoint_stages"] == []


class TestCancel:
    def test_cancel_queued_job(self, idle_server):
        _, accepted = call(idle_server, "POST", "/v1/jobs", submit_body())
        status, document = call(
            idle_server, "POST", f"/v1/jobs/{accepted['job_id']}/cancel"
        )
        assert status == 200
        assert_valid(document, job_contract(), "cancel response")
        assert document["state"] == "cancelled"
        # Cancelled jobs answer /result with their terminal state.
        status, result = call(
            idle_server, "GET", f"/v1/jobs/{accepted['job_id']}/result"
        )
        assert status == 200
        assert_valid(result, contract("result"), "result response")
        assert result["state"] == "cancelled"
        assert result["result"] is None

    def test_cancel_is_idempotent(self, idle_server):
        _, accepted = call(idle_server, "POST", "/v1/jobs", submit_body())
        call(idle_server, "POST", f"/v1/jobs/{accepted['job_id']}/cancel")
        status, document = call(
            idle_server, "POST", f"/v1/jobs/{accepted['job_id']}/cancel"
        )
        assert status == 200
        assert document["state"] == "cancelled"

    def test_cancel_unknown_job_is_404(self, idle_server):
        status, _ = call(
            idle_server, "POST", "/v1/jobs/job-00000000-0099/cancel"
        )
        assert status == 404


class TestHealthAndMetrics:
    def test_healthz_ok(self, idle_server):
        status, document = call(idle_server, "GET", "/healthz")
        assert status == 200
        assert_valid(document, contract("health"), "health body")
        assert document["status"] == "ok"
        assert document["exit_code"] == 0

    def test_healthz_503_carries_full_body(self, idle_server):
        supervisor = idle_server.supervisor
        with supervisor._recovering_lock:
            supervisor._recovering.add("job-00000000-0001")
        try:
            status, document = call(idle_server, "GET", "/healthz")
        finally:
            supervisor._finish_recovery("job-00000000-0001")
        assert status == 503
        assert_valid(document, contract("health"), "503 health body")
        assert document["status"] == "recovering"
        assert document["recovering"] == 1

    def test_metrics_exposition(self, idle_server):
        call(idle_server, "POST", "/v1/jobs", submit_body())
        url = f"http://127.0.0.1:{idle_server.server_address[1]}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert "text/plain" in response.headers["Content-Type"]
            page = response.read().decode()
        assert "service_submits_total" in page
        assert "service_queue_depth" in page
        families = parse_prometheus_text(page)
        assert {"service_submits_total", "service_queue_depth"} <= set(families)
