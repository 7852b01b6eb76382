"""HTTP load over a few keep-alive connections, from this one process.

Each connection has one thread. In the open loop (:func:`run_rung`) a
free thread takes the next request in schedule order, sleeps until it
is due, and sends it. When every connection is busy, due requests wait
in the generator, and that wait counts: latency runs from the scheduled
send time, and how late each send was is reported on its own so that a
stalled generator cannot pass as a slow server. In the closed loop
(:func:`run_saturated`) every thread sends its next request as soon as
the last is answered, which keeps the server as busy as the connections
allow.
"""

from __future__ import annotations

import http.client
import threading
import time

import numpy as np

from common import Tracer, clock


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float):
    """Send offsets (seconds from the start) of a Poisson process."""
    count = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, count))
    return offsets[offsets < seconds]


class Rung:
    """One load step's results, indexed like its requests."""

    def __init__(self, rate: float | None, offsets, bodies: list[bytes]):
        #: Offered rate of an open-loop rung; None for the closed loop.
        self.rate = rate
        self.offsets = offsets
        self.bodies = bodies
        n = len(bodies)
        self.status = np.zeros(n, dtype=np.int64)
        self.latency = np.full(n, np.nan)
        self.late = np.full(n, np.nan)
        #: When each answer arrived, in seconds from the rung's start.
        self.done = np.full(n, np.nan)
        self.answers: list[bytes | None] = [None] * n
        #: Set by the caller's oracle once the rung is over.
        self.wrong = np.zeros(n, dtype=bool)
        #: How many requests were sent (the closed loop may stop early).
        self.sent = 0
        self.wall_s = 0.0


def _send_all(host, port, path, rung: Rung, connections: int, tracer: Tracer, next_due):
    """Run ``connections`` client threads until ``next_due`` runs out.

    ``next_due(index, start)`` gives the clock time request ``index`` is
    due, given the rung's start, or None to stop; a thread sends as soon
    as its request is due.
    """
    lock = threading.Lock()
    cursor = [0]
    start = clock() + 0.01

    def client() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        headers = {"Content-Type": "application/json"}
        try:
            while True:
                with lock:
                    index = cursor[0]
                    due = next_due(index, start)
                    if due is None:
                        return
                    cursor[0] += 1
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                try:
                    with tracer.span("net.request", index):
                        connection.request(
                            "POST", path, body=rung.bodies[index], headers=headers
                        )
                        response = connection.getresponse()
                        answer = response.read()
                    rung.status[index] = response.status
                    rung.answers[index] = answer
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(host, port, timeout=60)
                    rung.status[index] = -1
                done = clock()
                rung.late[index] = max(0.0, sent - due)
                rung.latency[index] = done - due
                rung.done[index] = done - start
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rung.wall_s = clock() - start
    rung.sent = cursor[0]


def run_rung(
    host: str, port: int, path: str, rung: Rung, connections: int, tracer: Tracer
) -> None:
    """Send ``rung``'s requests on schedule; returns when all are answered."""

    def next_due(index, start):
        return start + rung.offsets[index] if index < len(rung.offsets) else None

    _send_all(host, port, path, rung, connections, tracer, next_due)


def run_saturated(
    host: str,
    port: int,
    path: str,
    rung: Rung,
    connections: int,
    seconds: float,
    tracer: Tracer,
) -> None:
    """Closed loop: each connection sends back to back for ``seconds``.

    Requests are sent in the order of ``rung.bodies`` and stop at the
    deadline or when the bodies run out; ``rung.sent`` tells how many.
    """

    def next_due(index, start):
        now = clock()
        if index >= len(rung.bodies) or now >= start + seconds:
            return None
        return now

    _send_all(host, port, path, rung, connections, tracer, next_due)


def slice_rates(rung: Rung, weights=None, slices: int = 10) -> list[float]:
    """Answers (or their ``weights``) per second in equal time slices.

    The slices split the time from the rung's start to its last answer.
    Only correct answers count: the caller's oracle must have run.
    """
    done = rung.done[: rung.sent]
    keep = ~np.isnan(done) & ~rung.wrong[: rung.sent]
    weight = None if weights is None else np.asarray(weights[: rung.sent])[keep]
    width = float(np.nanmax(done)) / slices
    counts = np.histogram(
        done[keep], bins=slices, range=(0.0, width * slices), weights=weight
    )[0]
    return (counts / width).tolist()


def backlog_grew(rung: Rung, limit_s: float) -> bool:
    """Whether sends fell further behind schedule as the rung went on."""
    n = rung.sent
    if n < 2:
        return False
    fifth = max(1, n // 5)
    first = float(np.median(rung.late[:fifth]))
    last = float(np.median(rung.late[n - fifth : n]))
    return last - first > limit_s / 10.0
