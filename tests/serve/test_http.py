"""Unit tests for the dependency-free HTTP transport."""

import asyncio
import json

import pytest

from repro.serve.http import (
    HTTPError,
    MAX_BODY_BYTES,
    Request,
    Response,
    read_request,
)


def parse(data):
    """Run read_request over a pre-fed stream."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestReadRequest:
    def test_simple_get(self):
        req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/healthz"
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_post_with_body(self):
        body = json.dumps({"a": 1}).encode()
        raw = (b"POST /compile HTTP/1.1\r\n"
               b"Content-Length: %d\r\n\r\n" % len(body)) + body
        req = parse(raw)
        assert req.method == "POST"
        assert req.json() == {"a": 1}

    def test_query_string(self):
        req = parse(b"GET /stats?fmt=json&n=1&n=2 HTTP/1.1\r\n\r\n")
        assert req.path == "/stats"
        assert req.query == {"fmt": ["json"], "n": ["1", "2"]}

    def test_percent_encoded_path(self):
        req = parse(b"GET /session/a%2Db HTTP/1.1\r\n\r\n")
        assert req.path == "/session/a-b"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_head(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"GET / HTTP/1.1\r\nHost")
        assert exc.value.status == 400

    def test_malformed_request_line(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"NONSENSE\r\n\r\n")
        assert exc.value.status == 400

    def test_malformed_header(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert exc.value.status == 400

    def test_bad_content_length(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert exc.value.status == 400

    def test_oversized_body_rejected(self):
        raw = (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
               % (MAX_BODY_BYTES + 1))
        with pytest.raises(HTTPError) as exc:
            parse(raw)
        assert exc.value.status == 413

    def test_truncated_body(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert exc.value.status == 400

    def test_chunked_rejected(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"POST / HTTP/1.1\r\n"
                  b"Transfer-Encoding: chunked\r\n\r\n")
        assert exc.value.status == 400

    def test_two_keepalive_requests_one_stream(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /a HTTP/1.1\r\n\r\n"
                             b"GET /b HTTP/1.1\r\n\r\n")
            reader.feed_eof()
            first = await read_request(reader)
            second = await read_request(reader)
            third = await read_request(reader)
            return first, second, third

        first, second, third = asyncio.run(go())
        assert first.path == "/a"
        assert second.path == "/b"
        assert third is None


class TestRequestJSON:
    def test_empty_body_is_empty_object(self):
        req = Request("POST", "/", {}, {}, b"")
        assert req.json() == {}

    def test_invalid_json(self):
        req = Request("POST", "/", {}, {}, b"{nope")
        with pytest.raises(HTTPError) as exc:
            req.json()
        assert exc.value.status == 400

    def test_non_object_json(self):
        req = Request("POST", "/", {}, {}, b"[1, 2]")
        with pytest.raises(HTTPError) as exc:
            req.json()
        assert exc.value.status == 400


class TestResponse:
    def test_encode_roundtrip(self):
        raw = Response.json({"ok": True}).encode()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert b"Content-Length: %d" % len(body) in head
        assert json.loads(body) == {"ok": True}

    def test_json_body_is_compact_with_sorted_keys(self):
        body = Response.json({"b": [1, {"d": 2, "c": 3}], "a": "x"}).body
        assert body == b'{"a":"x","b":[1,{"c":3,"d":2}]}\n'

    def test_keep_alive_header(self):
        assert b"Connection: keep-alive" in Response.json({}).encode(True)
        assert b"Connection: close" in Response.json({}).encode(False)

    def test_error_shape(self):
        resp = Response.error(404, "gone")
        assert resp.status == 404
        data = json.loads(resp.body)
        assert data == {"ok": False, "error": "gone", "status": 404}

    def test_text_content_type(self):
        resp = Response.text("hi", content_type="text/plain; v=1")
        assert resp.content_type == "text/plain; v=1"
        assert resp.body == b"hi"
