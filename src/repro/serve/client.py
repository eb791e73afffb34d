"""Blocking client for the simulation service.

Used by ``repro submit``, the loopback load harness, and the test
suite.  Pure stdlib (``http.client``): one persistent keep-alive
connection per :class:`ServiceClient`, transparently re-opened if the
server closed it between requests.  Instances are *not* thread-safe —
the load harness gives each worker thread its own client, which also
exercises the server's concurrent-connection path.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Optional

from repro.sim.engine import RunResultSummary

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response, carrying the decoded error payload."""

    def __init__(self, status: int, payload: dict):
        detail = payload.get("error", "request failed")
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload

    @property
    def retry_after_s(self) -> Optional[float]:
        return self.payload.get("retry_after_s")


class ServiceClient:
    #: Failure shapes of a *stale keep-alive* socket: the server closed
    #: the idle connection after our previous request, and we only
    #: find out when the next write/read fails.  These — and only
    #: these — are safe to retry on a fresh connection, because the
    #: request was never processed.
    _STALE_ERRORS = (http.client.RemoteDisconnected,
                     http.client.BadStatusLine,
                     ConnectionResetError,
                     BrokenPipeError)

    def __init__(self, host: str = "127.0.0.1", port: int = 8477,
                 timeout: float = 120.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None
        self._conn_uses = 0   # requests completed on self._conn

    # -- transport -----------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            self._conn_uses = 0
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def request(self, method: str, path: str,
                doc: Optional[dict] = None) -> tuple:
        """One round trip; returns ``(status, payload dict)``.

        Retries exactly once — and only when the failure is a stale
        keep-alive socket (:attr:`_STALE_ERRORS`) on a connection that
        already served at least one request.  The server may close an
        idle keep-alive between our requests, so that shape means "the
        request never arrived" and a replay on a fresh connection is
        safe.  A failure on a *fresh* connection (server genuinely
        down), a timeout (request may be mid-compute), or any other
        transport error surfaces immediately: the client must never
        guess about work the server may have started.
        """
        body = (json.dumps(doc, sort_keys=True).encode("utf-8")
                if doc is not None else None)
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            was_idle_reuse = self._conn_uses > 0
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
                self._conn_uses += 1
                break
            except self._STALE_ERRORS:
                self.close()
                if attempt or not was_idle_reuse:
                    raise
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, OSError):
                self.close()
                raise
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": f"undecodable response body "
                                f"({len(raw)} bytes)"}
        return resp.status, payload

    # -- API -----------------------------------------------------------
    def healthz(self) -> dict:
        status, payload = self.request("GET", "/healthz")
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    def metrics(self) -> dict:
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    def submit_cell(self, check: bool = True, **fields) -> dict:
        """Submit one cell; returns the response payload.

        With ``check=True`` (default) any non-200 raises
        :class:`ServiceError` — 429s included, so callers see the
        backpressure signal rather than a half-shaped payload.
        """
        status, payload = self.request("POST", "/v1/cell", fields)
        if check and status != 200:
            raise ServiceError(status, payload)
        payload["status"] = status
        return payload

    def cell_summary(self, **fields) -> RunResultSummary:
        """Submit one cell and decode the summary object.

        The returned summary is bit-identical to what a direct
        :func:`repro.analysis.experiment.run_version` call's
        ``.summary()`` would yield — the equivalence tests pin this.
        """
        payload = self.submit_cell(**fields)
        return RunResultSummary.from_dict(payload["summary"])

    def submit_sweep(self, check: bool = True, **grid) -> dict:
        status, payload = self.request("POST", "/v1/sweep", grid)
        if check and status != 200:
            raise ServiceError(status, payload)
        payload["status"] = status
        return payload
