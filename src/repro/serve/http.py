"""Minimal dependency-free HTTP/1.1 plumbing for ``repro serve``.

The compile service speaks plain HTTP/JSON so that any client — curl,
a CI job, a load generator — can drive it without a client library.
This module is the transport only: request parsing on asyncio streams,
response encoding, keep-alive, and bounded header/body sizes.  Routing
and application semantics live in :mod:`repro.serve.app`.

Deliberately small rather than general: one request at a time per
connection, ``Content-Length`` bodies only (no chunked uploads), and
HTTP/1.1 keep-alive honoring an explicit ``Connection: close``.
"""

import asyncio
import json
from urllib.parse import parse_qs, unquote, urlsplit

#: Upper bounds keeping a misbehaving client from ballooning memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Content type of the Prometheus text exposition format 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class HTTPError(Exception):
    """An error that maps to a specific HTTP status."""

    def __init__(self, status, message):
        self.status = status
        self.message = message
        super().__init__("%d %s" % (status, message))


class Request:
    """One parsed request: method, path, query dict, headers, body."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query      # {name: [value, ...]}
        self.headers = headers  # lower-cased names
        self.body = body

    def json(self):
        """The body decoded as JSON (400 on anything malformed)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, "request body is not valid JSON: %s"
                            % exc)
        if not isinstance(data, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return data

    def __repr__(self):
        return "<Request %s %s>" % (self.method, self.path)


class Response:
    """One response: status, body bytes, content type, extra headers."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(self, status=200, body=b"",
                 content_type="application/json", headers=()):
        self.status = status
        self.body = body if isinstance(body, bytes) \
            else body.encode("utf-8")
        self.content_type = content_type
        self.headers = list(headers)

    @classmethod
    def json(cls, data, status=200):
        # Compact, so a large body (a full /trace ring) goes through
        # the C encoder; an indent would force the pure-Python one.
        text = json.dumps(data, sort_keys=True,
                          separators=(",", ":")) + "\n"
        return cls(status, text, "application/json")

    @classmethod
    def text(cls, text, status=200,
             content_type="text/plain; charset=utf-8"):
        return cls(status, text, content_type)

    @classmethod
    def error(cls, status, message):
        return cls.json({"ok": False, "error": message,
                         "status": status}, status=status)

    def encode(self, keep_alive=True):
        reason = REASONS.get(self.status, "Unknown")
        head = [
            "HTTP/1.1 %d %s" % (self.status, reason),
            "Content-Type: %s" % self.content_type,
            "Content-Length: %d" % len(self.body),
            "Connection: %s" % ("keep-alive" if keep_alive
                                else "close"),
        ]
        head.extend("%s: %s" % kv for kv in self.headers)
        return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") \
            + self.body


async def read_request(reader):
    """Parse one request off ``reader``.

    Returns ``None`` on a clean EOF before any bytes (the client hung
    up between keep-alive requests); raises :class:`HTTPError` on a
    malformed or oversized request.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HTTPError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HTTPError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HTTPError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, "malformed request line %r" % lines[0])
    method, target, _version = parts
    split = urlsplit(target)
    path = unquote(split.path) or "/"
    query = parse_qs(split.query)
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HTTPError(400, "malformed header line %r" % line)
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HTTPError(400, "malformed Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HTTPError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HTTPError(400, "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HTTPError(400, "chunked request bodies not supported")
    return Request(method.upper(), path, query, headers, body)


class HTTPServer:
    """An asyncio TCP server feeding requests to an async handler.

    ``handler(request) -> Response`` is awaited per request; anything
    it raises that is not an :class:`HTTPError` becomes a 500.  The
    server counts open connections so :meth:`stop` can wait for them
    to finish draining.
    """

    def __init__(self, handler, host="127.0.0.1", port=0):
        self.handler = handler
        self.host = host
        self.port = port
        self._server = None
        self._connections = set()

    async def start(self):
        self._server = await asyncio.start_server(
            self._client, self.host, self.port,
            limit=MAX_HEADER_BYTES)
        # Port 0 means "pick one": record what the OS assigned.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self):
        return (self.host, self.port)

    async def _client(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                keep_alive = True
                try:
                    request = await read_request(reader)
                except HTTPError as exc:
                    writer.write(Response.error(
                        exc.status, exc.message).encode(False))
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.headers.get("connection", "").lower() \
                        == "close":
                    keep_alive = False
                try:
                    response = await self.handler(request)
                except HTTPError as exc:
                    response = Response.error(exc.status, exc.message)
                except Exception as exc:  # handler bug: report, go on
                    response = Response.error(
                        500, "%s: %s" % (type(exc).__name__, exc))
                writer.write(response.encode(keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def stop(self):
        """Stop accepting, then wait for open connections to finish."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = {t for t in self._connections
                   if t is not asyncio.current_task()}
        if pending:
            await asyncio.wait(pending, timeout=10)
