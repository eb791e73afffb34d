"""Fuzzing the service's input boundary: HTTP framing and validation.

Whatever bytes a client sends, :func:`repro.serve.http.read_request`
may only return a parsed request, return ``None`` on a clean close, or
raise :class:`HttpError` with a 4xx status.  Whatever JSON a body
decodes to, the ``/v1/cell`` and ``/v1/sweep`` validators may only
accept it or raise a 400.  Any other exception would surface as a 500
(or a dropped connection) and a hang as a stuck connection handler;
both are bugs.  Each defect found here is pinned by an ``@example``,
or by a plain test where the value defeats Hypothesis's own printer
or would exhaust memory if the defect came back.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench.runner import Cell
from repro.serve.http import MAX_BODY_BYTES, HttpError, Request, read_request
from repro.serve.service import normalize_cell, sweep_cells_from_doc

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Pipelined requests parsed per stream before giving up.
MAX_REQUESTS = 16


def _read_all(data: bytes) -> list:
    """Every request on a stream that ends after ``data``."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        requests = []
        for _ in range(MAX_REQUESTS):
            req = await asyncio.wait_for(read_request(reader), 5.0)
            if req is None:
                break
            requests.append(req)
        return requests

    return asyncio.run(go())


def _check_stream(data: bytes) -> None:
    try:
        requests = _read_all(data)
    except HttpError as e:
        assert 400 <= e.status < 500, (e.status, e.detail)
        return
    for req in requests:
        assert isinstance(req, Request)
        assert len(req.body) <= MAX_BODY_BYTES
        _check_json(req)


def _check_json(req: Request) -> None:
    try:
        doc = req.json()
    except HttpError as e:
        assert e.status == 400, (e.status, e.detail)
        return
    assert isinstance(doc, dict)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
_METHODS = st.sampled_from([b"GET", b"POST", b"PUT", b"", b"get",
                            b"POST\xff"])
_TARGETS = st.one_of(
    st.sampled_from([b"/v1/cell", b"/metrics?x=1&y", b"http://[",
                     b"//[::1", b"/%ff%fe?%zz=\xff", b"*"]),
    st.binary(max_size=24).filter(lambda b: b" " not in b),
)
_PROTOS = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2",
                           b"http/1.1", b"HTTP/1.\xff"])
_CONTENT_LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=64).map(str),
    st.integers().map(str),                                   # signed
    st.integers(min_value=MAX_BODY_BYTES - 2,
                max_value=10 ** 30).map(str),                 # oversized
    st.text(max_size=12),                                     # garbage
    st.sampled_from(["9" * 5000, "0" * 5000 + "7", "１０", " 10 ",
                     "0x10", "1e3", "10, 10"]),
).map(lambda v: v.encode("utf-8"))
_HEADER_NAMES = st.one_of(
    st.sampled_from([b"Host", b"Connection", b"Transfer-Encoding",
                     b"content-length", b"", b" Content-Length"]),
    st.binary(max_size=12),
)
_HEADER_LINES = st.one_of(
    st.tuples(_HEADER_NAMES, st.binary(max_size=24)).map(
        lambda t: t[0] + b": " + t[1]),
    st.tuples(st.just(b"Content-Length"), _CONTENT_LENGTHS).map(
        lambda t: t[0] + b": " + t[1]),
    st.binary(max_size=32),                           # random line
)


@st.composite
def _requests(draw) -> bytes:
    """A mostly-well-formed request, then mangled and cut short."""
    head = b" ".join([draw(_METHODS), draw(_TARGETS), draw(_PROTOS)])
    lines = [head] + draw(st.lists(_HEADER_LINES, max_size=6))
    body = draw(st.one_of(
        st.binary(max_size=64),
        st.just(b'{"matrix": "inline1", "iterations": '
                + b"1" * 5000 + b"}"),
    ))
    raw = b"\r\n".join(lines) + b"\r\n\r\n" + body
    cut = draw(st.integers(min_value=0, max_value=len(raw)))
    return raw[:cut] if draw(st.booleans()) else raw


@SETTINGS
@given(_requests())
@example(b"GET http://[ HTTP/1.1\r\n\r\n")             # urlsplit ValueError
@example(b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000
         + b"\r\n\r\n")                                 # int() digit limit
@example(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")  # short body
@example(b"POST / HTTP/1.1\r\nContent-Length: 5000\r\n\r\n"
         + b"1" * 5000)                                 # JSON int limit
def test_read_request_fails_closed_on_mangled_requests(data):
    _check_stream(data)


@SETTINGS
@given(st.binary(max_size=512))
def test_read_request_fails_closed_on_random_bytes(data):
    _check_stream(data)


@SETTINGS
@given(st.lists(st.binary(max_size=64), min_size=1, max_size=8))
def test_read_request_fails_closed_on_random_header_lines(lines):
    _check_stream(b"POST /v1/cell HTTP/1.1\r\n" + b"\r\n".join(lines)
                  + b"\r\n\r\n{}")


def test_oversized_head_is_413():
    data = b"GET / HTTP/1.1\r\nX: " + b"a" * (64 * 1024) + b"\r\n\r\n"
    try:
        _read_all(data)
    except HttpError as e:
        assert e.status == 413
    else:
        raise AssertionError("oversized head accepted")


# ----------------------------------------------------------------------
# JSON bodies and the cell / sweep validators
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_CELL_VALUES = st.one_of(
    _JSON,
    st.sampled_from(["inline1", "broadwell", "epyc", "lanczos",
                     "lobpcg", "deepsparse", "libcsr", 0, 1, 16, -1,
                     2 ** 31, 2 ** 64, True, 1.5]),
)
_CELL_DOCS = st.dictionaries(
    st.sampled_from(["machine", "matrix", "solver", "version",
                     "block_count", "iterations", "width",
                     "first_touch", "seed", "bogus"]),
    _CELL_VALUES, max_size=9,
)


@SETTINGS
@given(_CELL_DOCS)
@example({"matrix": "x" * 100_000})  # echoed whole into the 400 detail
def test_cell_validator_accepts_or_400s(doc):
    try:
        cell = normalize_cell(doc)
    except HttpError as e:
        assert e.status == 400, (e.status, e.detail)
        assert len(e.detail) < 1000
        return
    assert isinstance(cell, Cell)


def _deep_list(depth: int):
    x = []
    for _ in range(depth):
        x = [x]
    return x


@pytest.mark.parametrize("field", ["matrix", "machine", "solver",
                                   "version"])
def test_cell_validator_bounds_deeply_nested_values(field):
    """A value nested past the recursion limit used to raise
    RecursionError from repr() while building the 400 message.  Pinned
    here rather than by ``@example``: Hypothesis pretty-prints explicit
    examples, and its printer recurses on the same value."""
    doc = {"matrix": "inline1", field: _deep_list(5000)}
    with pytest.raises(HttpError) as e:
        normalize_cell(doc)
    assert e.value.status == 400 and len(e.value.detail) < 1000


_SWEEP_DOCS = st.dictionaries(
    st.sampled_from(["machines", "matrices", "solvers", "versions",
                     "block_counts", "iterations", "width",
                     "first_touch", "seed", "bogus"]),
    st.one_of(_JSON, st.lists(_CELL_VALUES, max_size=4)), max_size=9,
)


@SETTINGS
@given(_SWEEP_DOCS)
@example({"matrices": ["inline1"], "iterations": float("inf")})
@example({"matrices": ["inline1"], "block_counts": [float("inf")]})
def test_sweep_validator_accepts_or_400s(doc):
    try:
        cells = sweep_cells_from_doc(doc, max_cells=64)
    except HttpError as e:
        assert e.status == 400, (e.status, e.detail)
        return
    assert len(cells) <= 64
    assert all(isinstance(c, Cell) for c in cells)


@SETTINGS
@given(_JSON)
def test_non_object_json_bodies_are_400(value):
    body = json.dumps(value).encode("utf-8")
    req = Request("POST", "/v1/cell", {}, {}, body, True)
    if isinstance(value, dict):
        assert isinstance(req.json(), dict)
        return
    try:
        req.json()
    except HttpError as e:
        assert e.status == 400
    else:
        raise AssertionError("non-object body accepted")


def test_deep_json_bodies_are_400():
    for opener, closer in ((b"[", b"]"), (b'{"a":', b"}")):
        body = opener * 100_000 + closer * 100_000
        req = Request("POST", "/v1/cell", {}, {}, body, True)
        try:
            req.json()
        except HttpError as e:
            assert e.status == 400
        else:
            raise AssertionError("deep body accepted")


def test_oversized_sweep_is_refused_before_expansion(monkeypatch):
    """Three 2000-entry axes make 8e9 cells; the limit check used to
    run only after expanding them all."""
    import repro.serve.service as service

    def expand_grid(**grid):
        raise AssertionError("an oversized grid was expanded")

    monkeypatch.setattr(service, "expand_grid", expand_grid)
    doc = {"matrices": ["inline1"] * 2000, "versions": ["hpx"] * 2000,
           "block_counts": [8] * 2000}
    with pytest.raises(HttpError) as e:
        sweep_cells_from_doc(doc, max_cells=64)
    assert e.value.status == 400
    assert "8000000000 cells exceeds the 64-cell limit" in e.value.detail
