"""Open-loop HTTP/1.1 load over a few pipelined keep-alive connections.

An open loop sends on a schedule whatever the server does, the way
independent users do. Request ``i`` of a phase is *due* at
``start + i / rate`` and goes out on connection ``i mod k`` as soon as the
generator reaches it, without waiting for earlier answers (pipelining).
Three rules keep the numbers honest:

- latency runs from the due time, not from the send, so a stall that
  delays later sends is charged to them (no coordinated omission);
- how late the generator issued each request (its *lag*) is recorded,
  and a phase whose generator fell behind is marked invalid;
- a request with no answer by the end of the drain grace, a non-200
  answer or a dropped connection counts as failed, never as skipped.

One thread drives every connection through ``selectors``.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

from common import quantile

#: a phase is invalid when the generator issued its 99th-percentile
#: request later than this after its due time
MAX_LAG_P99_MS = 20.0
#: keep-alive connections per phase (the host has 2 CPUs)
CONNECTIONS = 2
#: how long a phase waits for answers after its last request was due
GRACE_S = 2.0


def request_bytes(body: bytes, path: str = "/insights") -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


@dataclass
class PhaseResult:
    rate: float
    attempted: int
    #: latency (ms, from due time) of each request answered 200, else None
    latencies_ms: list
    bodies: list
    lag_ms: list
    wall_s: float
    #: seconds from the first due time to the last 200 answer
    busy_s: float = 0.0
    unanswered: int = 0
    errors: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.unanswered

    @property
    def ok_latencies(self) -> list[float]:
        return [x for x in self.latencies_ms if x is not None]

    def latency_q(self, q: float) -> float:
        """Latency quantile over *all* attempted requests, a failed one
        counting as infinitely late."""
        values = [float("inf") if x is None else x for x in self.latencies_ms]
        return quantile(values, q)

    @property
    def completion_rate(self) -> float:
        """Requests answered 200 per second, first due time to last answer."""
        return len(self.ok_latencies) / self.busy_s if self.busy_s else 0.0

    @property
    def lag_p99_ms(self) -> float:
        return quantile(self.lag_ms, 0.99)

    @property
    def generator_ok(self) -> bool:
        return self.lag_p99_ms <= MAX_LAG_P99_MS

    def summary(self) -> dict:
        ok = self.ok_latencies
        return {
            "rate": self.rate,
            "attempted": self.attempted,
            "failed": self.failed,
            "unanswered": self.unanswered,
            "p50_ms": self.latency_q(0.5) if ok else None,
            "p90_ms": self.latency_q(0.90) if ok else None,
            "p99_ms": self.latency_q(0.99) if ok else None,
            "samples": len(self.latencies_ms),
            "lag_p99_ms": self.lag_p99_ms,
            "lag_max_ms": max(self.lag_ms),
            "wall_s": self.wall_s,
            "completion_rate": self.completion_rate,
        }


@dataclass
class _Conn:
    sock: socket.socket
    out: bytearray = field(default_factory=bytearray)
    inbuf: bytearray = field(default_factory=bytearray)
    #: (request index, due time) in send order: responses come back FIFO
    pending: deque = field(default_factory=deque)
    closed: bool = False


def _connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


def _parse_responses(conn: _Conn):
    """Yield ``(status, body)`` for every complete response buffered."""
    buf = conn.inbuf
    while True:
        head_end = buf.find(b"\r\n\r\n")
        if head_end < 0:
            return
        head = bytes(buf[:head_end]).decode("latin-1")
        lines = head.split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        total = head_end + 4 + length
        if len(buf) < total:
            return
        body = bytes(buf[head_end + 4 : total])
        del buf[:total]
        yield status, body


def run_phase(address, bodies: list[bytes], rate: float) -> PhaseResult:
    """Offer ``bodies`` as ``POST /insights`` at ``rate`` requests/s."""
    n = len(bodies)
    sel = selectors.DefaultSelector()
    conns = [_Conn(_connect(address)) for _ in range(CONNECTIONS)]
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    latencies: list = [None] * n
    out_bodies: list = [None] * n
    lag = [0.0] * n
    errors = 0
    interval = 1.0 / rate
    start = time.perf_counter() + 0.01
    issued = answered = 0
    deadline = None
    last_ok = start

    def flush(conn: _Conn) -> None:
        if conn.closed or not conn.out:
            return
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:
            drop(conn)
            return
        del conn.out[:sent]
        events = selectors.EVENT_READ | (
            selectors.EVENT_WRITE if conn.out else 0
        )
        sel.modify(conn.sock, events, conn)

    def drop(conn: _Conn) -> None:
        nonlocal errors, answered
        if conn.closed:
            return
        conn.closed = True
        errors += len(conn.pending)
        answered += len(conn.pending)
        conn.pending.clear()
        sel.unregister(conn.sock)
        conn.sock.close()

    # a collector pause in this thread would show as generator lag
    gc.collect()
    gc.disable()
    try:
        while answered < n:
            now = time.perf_counter()
            while issued < n and start + issued * interval <= now:
                due = start + issued * interval
                conn = conns[issued % CONNECTIONS]
                lag[issued] = (now - due) * 1000.0
                if conn.closed:
                    errors += 1
                    answered += 1
                else:
                    conn.out += request_bytes(bodies[issued])
                    conn.pending.append((issued, due))
                    flush(conn)
                issued += 1
            if issued == n and deadline is None:
                deadline = now + GRACE_S
            if deadline is not None and now >= deadline:
                break
            if issued < n:
                timeout = max(0.0, start + issued * interval - now)
            else:
                timeout = max(0.0, deadline - now)
            for key, mask in sel.select(min(timeout, 0.05)):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    flush(conn)
                if not mask & selectors.EVENT_READ or conn.closed:
                    continue
                try:
                    data = conn.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                except OSError:
                    data = b""
                if not data:
                    drop(conn)
                    continue
                conn.inbuf += data
                done = time.perf_counter()
                for status, body in _parse_responses(conn):
                    index, due = conn.pending.popleft()
                    answered += 1
                    if status == 200:
                        latencies[index] = (done - due) * 1000.0
                        last_ok = done
                        out_bodies[index] = body
                    else:
                        errors += 1
        wall = time.perf_counter() - start
    finally:
        gc.enable()
        unanswered = sum(len(c.pending) for c in conns)
        for conn in conns:
            if not conn.closed:
                sel.unregister(conn.sock)
                conn.sock.close()
        sel.close()
    # requests never issued (a connection died before they were due) were
    # already counted as errors above
    return PhaseResult(
        rate=rate,
        attempted=n,
        latencies_ms=latencies,
        bodies=out_bodies,
        lag_ms=lag[:issued] or [0.0],
        wall_s=wall,
        busy_s=last_ok - start,
        unanswered=unanswered,
        errors=errors,
    )


def closed_batches(address, bodies: list[bytes]) -> int:
    """Push ``bodies`` through one connection, 4 in flight at a time
    (warm-up, not measured). Returns how many were answered 200."""
    sock = socket.create_connection(address, timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn = _Conn(sock)
    ok = sent = received = 0
    try:
        while received < len(bodies):
            while sent < len(bodies) and sent - received < 4:
                sock.sendall(request_bytes(bodies[sent]))
                sent += 1
            data = sock.recv(1 << 18)
            if not data:
                break
            conn.inbuf += data
            for status, _ in _parse_responses(conn):
                received += 1
                ok += status == 200
    finally:
        sock.close()
    return ok


def http_get(address, path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    return _simple(address, f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode(), timeout)


def http_post(address, body: bytes, timeout: float = 10.0) -> tuple[int, bytes]:
    return _simple(address, request_bytes(body), timeout)


def _simple(address, raw: bytes, timeout: float) -> tuple[int, bytes]:
    sock = socket.create_connection(address, timeout=timeout)
    conn = _Conn(sock)
    try:
        sock.sendall(raw)
        while True:
            data = sock.recv(1 << 18)
            if not data:
                raise ConnectionError("connection closed before a response")
            conn.inbuf += data
            for status, body in _parse_responses(conn):
                return status, body
    finally:
        sock.close()
