"""Open-loop HTTP load: Poisson arrivals over a few keep-alive connections.

Group-recommendation users arrive independently of each other, so the
load is open-loop: requests are due on a seeded Poisson schedule whether
or not earlier ones have been answered.  ``connections`` threads (at
most ``nproc``) each own one keep-alive socket and take the next due
request when free.  Every request is timed from when it was *due*, so a
stall also counts against the requests queued behind it.  How late the
generator itself ran (a free thread waking after the due time) is kept
apart as ``lag``.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

# Latency limit per /recommend call, and the largest failed share a
# ladder rung may have and still count as meeting it.
SLO_MS = 50.0
MAX_FAIL_SHARE = 0.01


@dataclass
class Outcome:
    """One request as the client saw it (times in ``perf_counter`` seconds)."""

    group: int
    due: float
    sent: float
    done: float
    lag: float
    status: int
    body: dict | None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class Schedule:
    """Seeded arrivals at unit rate, scaled to any rate on demand.

    Every window draws the same exponential gaps scaled to its rate
    (common random numbers), so two ladder rungs differ by their rate
    and not by luck of the draw.  Group picks continue from one seeded
    stream across windows, so a window never replays the groups an
    earlier one left in the score cache.
    """

    def __init__(self, seed, groups, size: int = 200_000):
        rng = np.random.default_rng(seed)
        self.unit_offsets = np.cumsum(rng.exponential(1.0, size=size))
        self.groups = np.asarray(groups, dtype=np.int64)[
            rng.integers(0, len(groups), size=size)
        ]
        self.cursor = 0

    def at(self, rate: float, seconds: float):
        """Due offsets (s) and group ids for ``rate`` arrivals/s over ``seconds``."""
        offsets = self.unit_offsets / rate
        count = int(np.searchsorted(offsets, seconds))
        if count == len(offsets):
            raise ValueError(f"schedule too short for {rate}/s over {seconds}s")
        if self.cursor + count > len(self.groups):
            raise ValueError(f"schedule too short for {count} more requests")
        picks = self.groups[self.cursor : self.cursor + count]
        self.cursor += count
        return offsets[:count], picks


class Client:
    """One keep-alive HTTP/1.1 connection (raw socket, minimal parser)."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def get(self, path: str) -> tuple[int, dict | None]:
        self.sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        while b"\r\n\r\n" not in self.buffer:
            self._read()
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(self.buffer) < length:
            self._read()
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        status = int(head.split(b" ", 2)[1])
        try:
            body = json.loads(payload) if payload else None
        except ValueError:
            body = None
        return status, body

    def _read(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


def run_schedule(
    port: int,
    offsets,
    groups,
    *,
    connections: int = 2,
    k: int = 5,
    rid_base: int | None = None,
    start: float | None = None,
) -> list[Outcome]:
    """Send one request per schedule entry; returns outcomes in due order.

    ``start`` is the ``perf_counter`` time offset 0 is due at (default:
    shortly after the call).  With ``rid_base`` set, request ``i``
    carries ``rid=rid_base+i`` in its query (the service ignores unknown
    parameters), so a traced run can join the server's spans to the
    client's request.
    """
    if start is None:
        start = time.perf_counter() + 0.05
    results: list[Outcome | None] = [None] * len(offsets)
    cursor = iter(range(len(offsets)))
    cursor_lock = threading.Lock()
    errors: list[BaseException] = []

    def worker() -> None:
        client = Client(port)
        try:
            while True:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None:
                    return
                free = time.perf_counter()
                due = start + float(offsets[i])
                if free < due:
                    time.sleep(due - free)
                sent = time.perf_counter()
                rid = None if rid_base is None else rid_base + i
                path = f"/recommend?group={int(groups[i])}&k={k}"
                if rid is not None:
                    path += f"&rid={rid}"
                status, body = client.get(path)
                done = time.perf_counter()
                results[i] = Outcome(
                    group=int(groups[i]),
                    due=due,
                    sent=sent,
                    done=done,
                    lag=max(0.0, sent - max(due, free)),
                    status=status,
                    body=body,
                )
        except BaseException as error:  # reported to the caller below
            errors.append(error)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, name=f"perfbench-load-{n}")
        for n in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [outcome for outcome in results if outcome is not None]


def answered(status: int, body: dict | None) -> bool:
    """200, answered by the model (not the popularity fallback)."""
    return (
        status == 200
        and body is not None
        and not str(body.get("source", "")).startswith("fallback")
    )


def is_success(outcome: Outcome) -> bool:
    return answered(outcome.status, outcome.body)


def quantile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return math.inf
    return float(np.quantile(values, q, method="inverted_cdf"))


def summarize(outcomes: list[Outcome]) -> dict:
    """Latency quantiles from due time, failed count and generator lag.

    A failed request (non-200 or a fallback answer) misses the latency
    limit, so it enters the quantiles as infinitely late.
    """
    latencies = [o.latency_ms if is_success(o) else math.inf for o in outcomes]
    failed = sum(1 for value in latencies if not math.isfinite(value))
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "p50_ms": quantile(latencies, 0.50),
        "p95_ms": quantile(latencies, 0.95),
        "p99_ms": quantile(latencies, 0.99),
        "fail_share": failed / max(1, len(outcomes)),
        "lag_ms": [o.lag * 1000.0 for o in outcomes],
    }


def summarize_windows(windows: list[list[Outcome]]) -> dict:
    """:func:`summarize` of the windows together, with p50/p95 the median
    of each window's own p50/p95 (p99 stays pooled)."""
    summary = summarize([o for window in windows for o in window])
    parts = [summarize(window) for window in windows]
    for name in ("p50_ms", "p95_ms"):
        summary[name] = float(np.median([part[name] for part in parts]))
    return summary


def backlog_grows(outcomes: list[Outcome]) -> bool:
    """True when the last fifth of a window waited past the latency limit.

    A server that keeps up drains its queue between arrivals; one that
    does not leaves every later request further behind its due time.
    """
    tail = outcomes[-max(1, len(outcomes) // 5):]
    return quantile([o.latency_ms for o in tail], 0.5) > SLO_MS


def meets_slo(summary: dict, outcomes: list[Outcome]) -> bool:
    return (
        summary["p99_ms"] <= SLO_MS
        and summary["fail_share"] <= MAX_FAIL_SHARE
        and not backlog_grows(outcomes)
    )


def max_rate_at_slo(ladder, start: int, probe) -> tuple[float, list]:
    """Highest ladder rate meeting the limit, interpolated to the next rung.

    ``probe(rate)`` runs one window and returns ``(p99_ms, passed)``.
    The scan starts at rung
    ``start`` and walks up while rungs pass, or down until one does.
    Between the last passing rung ``a`` and the first failing rung ``b``
    the result is placed where the p99 crosses the limit on a
    log-latency line through the two rungs (at ``a`` when ``b`` failed
    outright), so a noisy rung moves it by less than a whole step.
    Returns the rate and the ``(rate, p99, passed)`` windows run.
    """
    probes = []

    def run(index):
        p99, passed = probe(ladder[index])
        probes.append((ladder[index], p99, passed))
        return p99, passed

    index = start
    p99, passed = run(index)
    if passed:
        while index + 1 < len(ladder):
            next_p99, next_passed = run(index + 1)
            if not next_passed:
                return _crossing(ladder[index], p99, ladder[index + 1], next_p99), probes
            index, p99 = index + 1, next_p99
        return float(ladder[index]), probes
    while index > 0:
        index -= 1
        low_p99, low_passed = run(index)
        if low_passed:
            return _crossing(ladder[index], low_p99, ladder[index + 1], p99), probes
        p99 = low_p99
    # Even the lowest rung fails: scale it by how far its p99 overshot.
    return float(ladder[0]) * min(1.0, SLO_MS / max(p99, 1e-9)), probes


def _crossing(rate_a: float, p99_a: float, rate_b: float, p99_b: float) -> float:
    if not math.isfinite(p99_b) or p99_b <= SLO_MS or p99_a <= 0:
        return float(rate_a)
    share = (math.log(SLO_MS) - math.log(p99_a)) / (math.log(p99_b) - math.log(p99_a))
    return float(rate_a + (rate_b - rate_a) * min(1.0, max(0.0, share)))
