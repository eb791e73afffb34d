"""Minimal JSON-over-HTTP/1.1 framing for the simulation service.

The daemon speaks just enough HTTP for programmatic clients —
request-line + headers + ``Content-Length`` body in, status-line +
headers + body out, optional keep-alive — implemented directly over
``asyncio`` streams.  Deliberately *not* a web framework: the stdlib
has no asyncio HTTP server, the service's API is four JSON routes, and
the framing layer staying ~150 lines keeps the dependency budget at
zero.  Anything the parser does not understand is a clean 4xx, never
an exception escaping into the connection handler.

Limits (all paranoia against misbehaving clients, not tunables):

* request line + headers together ≤ 32 KiB,
* bodies ≤ 8 MiB (a sweep of ~10k cells serializes far below this),
* only ``GET`` and ``POST`` (the API is submit/inspect only).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "handle_http_connection",
    "read_request",
    "read_response",
    "request_bytes",
    "response_bytes",
    "json_response",
]

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: The subset of reason phrases the service actually emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A framing-level failure that maps onto one HTTP status."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


class Request(NamedTuple):
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, list]
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool

    def json(self) -> dict:
        """Decode the body as a JSON object (400 on anything else)."""
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except ValueError as e:
            # Undecodable bytes, bad JSON, or an integer literal past
            # the interpreter's int-string conversion limit.
            raise HttpError(400, f"malformed JSON body: {e}") from None
        except RecursionError:
            # Arrays/objects nested past the interpreter's recursion
            # limit: a client error like any other undecodable body.
            raise HttpError(400, "malformed JSON body: nested too "
                                 "deeply") from None
        if not isinstance(doc, dict):
            raise HttpError(400, "JSON body must be an object")
        return doc


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` on malformed or over-limit input — the
    connection handler turns that into an error response and closes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as e:
        if not e.partial.strip():
            return None  # clean close between requests
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, proto = parts
    if method not in ("GET", "POST"):
        raise HttpError(405, f"method {method} not allowed")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            # Which copy frames the body is ambiguous (request
            # smuggling): refuse rather than let the last one win.
            raise HttpError(400, "repeated Content-Length")
        headers[name] = value.strip()

    try:
        split = urlsplit(target)
    except ValueError:  # e.g. an unclosed "[" IPv6 literal
        raise HttpError(400, f"malformed request target: "
                             f"{target!r}") from None
    query = parse_qs(split.query) if split.query else {}

    if "transfer-encoding" in headers:
        # Also with a Content-Length: the two framings disagree.
        raise HttpError(400, "Transfer-Encoding bodies not supported")
    length = 0
    if "content-length" in headers:
        # 1*DIGIT only: int() would also take "+10", "1_0", "-0" and
        # non-ASCII digits.
        value = headers["content-length"]
        if not (value.isascii() and value.isdigit()):
            raise HttpError(400, "malformed Content-Length")
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)):
            # Refused before int(), which rejects strings past 4300
            # digits with a ValueError.
            raise HttpError(413, f"body of {len(digits)}-digit length "
                                 f"refused")
        length = int(digits)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes refused")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise HttpError(400, "truncated request body") from None

    # HTTP/1.1 defaults to keep-alive; 1.0 to close.
    connection = headers.get("connection", "").lower()
    keep_alive = (proto != "HTTP/1.0" or connection == "keep-alive")
    if connection == "close":
        keep_alive = False
    return Request(method, split.path, query, headers, body, keep_alive)


def request_bytes(method: str, path: str,
                  doc: Optional[dict] = None,
                  host: str = "shard") -> bytes:
    """Serialize one upstream request (the router's client side).

    The JSON encoding matches :class:`~repro.serve.client.ServiceClient`
    exactly (``sort_keys``, ``repr`` floats), so a forwarded cell body
    is byte-identical to what a direct client would have sent.
    """
    body = (json.dumps(doc, sort_keys=True).encode("utf-8")
            if doc is not None else b"")
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, dict]:
    """Parse one HTTP response off the stream (the router's upstream
    side): ``(status, decoded JSON payload)``.

    Raises :class:`HttpError` 502 on anything that is not a
    well-formed JSON-over-HTTP response — the router treats that the
    same as a transport failure and fails over.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        raise HttpError(502, "truncated upstream response") from None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(502,
                        f"malformed upstream status line: {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(502,
                        f"malformed upstream status: {parts[1]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(502, "malformed upstream Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(502, f"upstream body of {length} bytes refused")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise HttpError(502, "truncated upstream body") from None
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise HttpError(502, f"undecodable upstream body "
                             f"({len(body)} bytes)") from None
    if not isinstance(payload, dict):
        payload = {"value": payload}
    return status, payload


async def handle_http_connection(reader, writer, respond,
                                 conn_tasks: set) -> None:
    """One connection's serve loop, shared by the daemon and router.

    ``respond`` is an ``async (Request) -> bytes`` callable producing
    wire bytes; everything else — keep-alive, framing-error responses,
    clean handling of clients that vanish, and the drain-time
    cancellation contract — is identical for every server in this
    package, so it lives here once.
    """
    task = asyncio.current_task()
    conn_tasks.add(task)
    try:
        while True:
            try:
                req = await read_request(reader)
            except HttpError as e:
                _, wire = json_response(e.status, {"error": e.detail},
                                        keep_alive=False)
                writer.write(wire)
                await writer.drain()
                break
            if req is None:
                break
            wire = await respond(req)
            writer.write(wire)
            await writer.drain()
            if not req.keep_alive:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away; nothing to salvage
    except asyncio.CancelledError:
        # Drain closes idle keep-alive connections by cancelling
        # their handlers; finishing normally (instead of staying
        # "cancelled") sidesteps a noisy 3.11 asyncio.streams
        # done-callback and lets the writer close cleanly below.
        pass
    finally:
        conn_tasks.discard(task)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def response_bytes(status: int, body: bytes,
                   content_type: str = "application/json",
                   extra_headers: Optional[Dict[str, str]] = None,
                   keep_alive: bool = True) -> bytes:
    """Serialize one response (status line, headers, body)."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(status: int, payload: dict,
                  extra_headers: Optional[Dict[str, str]] = None,
                  keep_alive: bool = True) -> Tuple[int, bytes]:
    """(status, wire bytes) of a JSON payload.

    Floats travel via ``repr`` (the ``json`` module default), the same
    encoding the result cache uses — so a summary served over HTTP
    round-trips bit-exactly, matching a direct ``run_version`` call.
    """
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return status, response_bytes(status, body,
                                  extra_headers=extra_headers,
                                  keep_alive=keep_alive)
