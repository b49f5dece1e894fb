"""The gateway ↔ worker wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON. The framing is deliberately primitive — both ends
are this repository, the transport is an inherited ``socketpair`` —
but it is **self-delimiting** (a reader always knows where a message
ends, so request/response never desynchronise) and **EOF-honest** (a
dead peer reads as a clean ``None`` / ``IncompleteReadError`` at a
frame boundary, or a :class:`~repro.errors.GatewayError` mid-frame,
which is how the supervisor detects worker death without signals).

Requests and responses are plain dicts::

    {"method": "recommend", "params": {"users": [...], "n": 10,
                                       "min_version": 3},
     "trace": {"trace_id": "9f2c…", "span_id": "41ab…"}}
    {"ok": true, "version": 3, "results": [...]}
    {"ok": false, "error": {"type": "stale", "retryable": true,
                            "message": "..."}}

The optional top-level ``"trace"`` field is the request's
:class:`~repro.obs.trace.TraceContext` on the wire — the gateway
stamps it at dispatch so the worker's spans and log lines carry the
same ``trace_id`` the HTTP client got back as ``X-Request-Id``. A
frame without it (old callers, direct tests) still serves; tracing is
correlation, not protocol. Health responses ride the other direction:
each carries the worker registry's ``"metrics"`` snapshot, which is
how per-process metrics aggregate fleet-wide without another channel.

Sync helpers (:func:`send_frame` / :func:`recv_frame`) serve the
blocking worker loop; async twins (:func:`write_frame` /
:func:`read_frame`) serve the asyncio supervisor. Both speak the same
bytes.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time

from repro.errors import GatewayError
from repro.faults.plan import frame_fault

#: the named fault point every worker→gateway frame passes through —
#: a seeded :class:`~repro.faults.plan.FaultPlan` can delay, drop,
#: corrupt or tear the frame here (see :func:`send_frame`).
SEND_FAULT_POINT = "gateway.worker.send"

HEADER_BYTES = 4
#: Refuse frames above this size — a corrupt header must not make a
#: reader try to allocate gigabytes. Generous for real traffic (a
#: 10k-user batch of Top-100 responses is ~2 MB).
MAX_FRAME_BYTES = 64 * 1024 * 1024


def positive_int(params: dict, name: str, error: type[Exception]) -> int:
    """A read's list-length parameter (``n``, ``k``; default 10),
    refused below 1 with *error* on both sides of the wire — the
    gateway answers 400, the worker a non-retryable error, so a direct
    ``pool.call`` is covered too. A negative one would come back as a
    Python negative slice of the ranking: a wrong answer served as a
    200."""
    value = int(params.get(name, 10))
    if value < 1:
        raise error(f"{name!r} must be >= 1, got {value}")
    return value


def encode_frame(payload: dict) -> bytes:
    """The wire bytes for one message (header + JSON body)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise GatewayError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return len(body).to_bytes(HEADER_BYTES, "big") + body


def _decode_body(header: bytes, body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise GatewayError(f"malformed frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise GatewayError(
            f"frame payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _length_of(header: bytes) -> int:
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise GatewayError(
            f"frame header claims {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); stream is corrupt"
        )
    return length


# ----------------------------------------------------------------------
# Blocking side (the worker loop)
# ----------------------------------------------------------------------


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Send one frame (the worker side of the pair).

    This is the transport fault surface: an armed fault plan can delay
    the frame, drop it entirely (the supervisor observes a hang and
    kills the worker), corrupt the length header (the supervisor
    detects a corrupt stream), or tear it — half the bytes followed by
    a real ``SIGKILL``, the strongest mid-frame death a test can
    inject. Payload bytes are never mutated: a flipped digit could
    produce valid-but-wrong JSON, which a correctness harness must
    never inject below its own oracle.
    """
    data = encode_frame(payload)
    rule = frame_fault(SEND_FAULT_POINT)
    if rule is not None:
        if rule.kind == "delay":
            time.sleep(rule.delay_s)
        elif rule.kind == "drop":
            return
        elif rule.kind == "corrupt":
            data = (MAX_FRAME_BYTES + 1).to_bytes(HEADER_BYTES, "big") + data[
                HEADER_BYTES:
            ]
        elif rule.kind == "torn":  # pragma: no cover - kills the process
            sock.sendall(data[: max(1, len(data) // 2)])
            os.kill(os.getpid(), signal.SIGKILL)
    sock.sendall(data)


def _recv_exact(sock: socket.socket, n: int, at_boundary: bool) -> bytes | None:
    """Exactly *n* bytes from *sock*.

    ``None`` means the peer closed at a frame boundary (only honoured
    when *at_boundary*). A socket timeout is only allowed to escape
    between frames — once a frame has started, the reader keeps
    waiting, so a slow sender can never desynchronise the stream.
    """
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            if not buf and at_boundary:
                raise
            continue
        if not chunk:
            if not buf and at_boundary:
                return None
            raise GatewayError(f"peer closed mid-frame ({len(buf)}/{n} bytes)")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> dict | None:
    """The next frame, or ``None`` on clean EOF.

    Raises ``socket.timeout`` only between frames (the worker uses the
    gap to poll its watcher) and :class:`~repro.errors.GatewayError`
    on a torn or corrupt stream.
    """
    header = _recv_exact(sock, HEADER_BYTES, at_boundary=True)
    if header is None:
        return None
    length = _length_of(header)
    body = _recv_exact(sock, length, at_boundary=False)
    return _decode_body(header, body)


# ----------------------------------------------------------------------
# Async side (the supervisor)
# ----------------------------------------------------------------------


def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(encode_frame(payload))


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """The next frame, or ``None`` on clean EOF (a worker that died
    between requests). Mid-frame EOF — a worker killed while replying
    — surfaces as :class:`~repro.errors.GatewayError`."""
    header = await reader.read(HEADER_BYTES)
    if not header:
        return None
    while len(header) < HEADER_BYTES:
        more = await reader.read(HEADER_BYTES - len(header))
        if not more:
            raise GatewayError("peer closed mid-frame (header)")
        header += more
    length = _length_of(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise GatewayError(
            f"peer closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return _decode_body(header, body)
