"""In-memory spans around each layer's public calls, for traced runs.

Nothing under ``src/`` changes: the wrappers are installed from outside,
by ``sitecustomize`` in every service process (this directory is put on
``PYTHONPATH`` of traced runs only, and the fleet router hands its
``sys.path`` on to its workers) and by the benchmark itself around the
client calls.

A span is ``(name, start, end, parent, active, a, b, c)``: ``parent`` is
the index of the enclosing span in the same task (-1 for none),
``active`` the time the call actually ran (for a coroutine, its wall time
minus the time it was suspended, e.g. a waiting query parked for the
stepper), and ``a``/``b``/``c`` call-specific counts (rows, bytes, frame
kind, resets).  Times are ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux), so spans from different processes share one timeline; a service
span belongs to the client op whose interval contains its start.

Spans stay in memory and are written once, as JSON, when the process
exits (``spans-<pid>.json`` in ``PUSHBENCH_TRACE_DIR``).
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import json
import os
import sys
import types

_clock = __import__("time").perf_counter

#: Every recorded span of this process, in start order.
SPANS: list = []
_parent = contextvars.ContextVar("pushbench_span", default=-1)


def _record(name, fn, counts=None):
    """Wrap a plain function: one span per call.

    ``counts(args, result)`` returns up to three ints for the span; for
    an exception it is called with ``result=exc``.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(SPANS)
        SPANS.append(None)
        parent = _parent.get()
        token = _parent.set(index)
        start = _clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            result = exc
            raise
        finally:
            end = _clock()
            _parent.reset(token)
            extra = counts(args, result) if counts is not None else ()
            SPANS[index] = (name, start, end, parent, end - start, *extra)
    return wrapper


@types.coroutine
def _drive(coro, active):
    """Run ``coro`` to completion, adding the time it runs (not the time
    it is suspended) to ``active[0]``."""
    send, error = None, None
    while True:
        start = _clock()
        try:
            awaited = coro.send(send) if error is None else coro.throw(error)
        except StopIteration as stop:
            active[0] += _clock() - start
            return stop.value
        except BaseException:
            active[0] += _clock() - start
            raise
        active[0] += _clock() - start
        send, error = None, None
        try:
            send = yield awaited
        except GeneratorExit:
            coro.close()
            raise
        except BaseException as exc:
            error = exc


def _record_async(name, fn, counts=None):
    """Wrap a coroutine function: one span per call, with active time."""
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        index = len(SPANS)
        SPANS.append(None)
        parent = _parent.get()
        token = _parent.set(index)
        active = [0.0]
        start = _clock()
        result = None
        try:
            result = await _drive(fn(*args, **kwargs), active)
            return result
        except BaseException as exc:
            result = exc
            raise
        finally:
            end = _clock()
            _parent.reset(token)
            extra = counts(args, result) if counts is not None else ()
            SPANS[index] = (name, start, end, parent, active[0], *extra)
    return wrapper


def _patch(owner, attribute, name, counts=None):
    fn = getattr(owner, attribute)
    wrap = _record_async if inspect.iscoroutinefunction(fn) else _record
    setattr(owner, attribute, wrap(name, fn, counts))


# ------------------------------------------------------------- counts


def _feed_rows(args, result):
    return (len(args[2]),)


def _step_rows(args, result):
    return (result if isinstance(result, int) else 0,)


def _frame_bytes(args, result):
    return (len(result), result[1]) if isinstance(result, bytes) else (0, 0)


def _decoded_rows(args, result):
    if isinstance(result, tuple):
        return (sum(len(rows) for _, rows in result[0]),)
    return (0,)


def _received_frame(args, result):
    if isinstance(result, tuple):
        kind, payload = result
        return (len(payload) + 6, kind)
    return (0, 0)


def _backpressure(args, result):
    from repro.errors import BackpressureError

    return (1 if isinstance(result, BackpressureError) else 0,)


def _mark(name, *counts) -> None:
    """A zero-length span carrying a sampled value."""
    now = _clock()
    SPANS.append((name, now, now, _parent.get(), 0.0, *counts))


def _sample_journal(fn):
    """Sample the router's journal depth before each checkpoint fan-out
    trims it: the peak exposure between two trims."""
    @functools.wraps(fn)
    async def wrapper(self, *args, **kwargs):
        _mark("router.journal", self._journal_rows())
        return await fn(self, *args, **kwargs)
    return wrapper


def _kernel(method):
    """Wrap an ``IncrementalKernel`` method, counting rows, noisy rows
    (handler calls + the t=0 initialization) and resets."""
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        handlers, resets, fresh = self.handler_calls, self.resets, not self.initialized
        index = len(SPANS)
        SPANS.append(None)
        parent = _parent.get()
        token = _parent.set(index)
        start = _clock()
        try:
            return method(self, *args, **kwargs)
        finally:
            end = _clock()
            _parent.reset(token)
            rows = len(args[0]) if method.__name__ == "observe_many" else 1
            noisy = self.handler_calls - handlers + (1 if fresh and self.initialized else 0)
            SPANS[index] = (f"kernel.{method.__name__}", start, end, parent, end - start,
                            rows, noisy, self.resets - resets)
    return wrapper


# ------------------------------------------------------------ install


def install_codec() -> None:
    from repro.service import wire

    _patch(wire, "decode_feed", "codec.decode_feed", _decoded_rows)
    _patch(wire, "encode_ack", "codec.encode_ack", _frame_bytes)
    _patch(wire, "encode_json", "codec.encode_json", _frame_bytes)
    _patch(wire, "encode_request", "codec.encode_request", _frame_bytes)
    _patch(wire, "decode_reply", "codec.decode_reply")


def install_service(trace_dir: str) -> None:
    """Spans around the layers of a service process (server or router)."""
    from repro.engine.vectorized import IncrementalKernel
    from repro.service import fleet, server
    from repro.service.manager import SessionManager

    install_codec()
    _patch(server.ServiceServer, "_feed_frame", "endpoint.feed")
    _patch(server.ServiceServer, "_dispatch", "endpoint.dispatch")
    _patch(server.ServiceServer, "_op_query", "endpoint.query")
    _patch(SessionManager, "feed", "manager.feed", lambda a, r: (1, *_backpressure(a, r)))
    _patch(SessionManager, "feed_many", "manager.feed_many",
           lambda a, r: (*_feed_rows(a, r), *_backpressure(a, r)))
    _patch(SessionManager, "step", "manager.step", _step_rows)
    _patch(SessionManager, "query", "manager.query")
    _patch(SessionManager, "checkpoint", "manager.checkpoint")
    for method in ("step", "quiet_step", "observe_many"):
        setattr(IncrementalKernel, method, _kernel(getattr(IncrementalKernel, method)))
    _patch(fleet.FleetRouter, "_dispatch_request", "router.dispatch")
    _patch(fleet.FleetRouter, "_feed_frame", "router.feed_frame")
    _patch(fleet.FleetRouter, "_dispatch", "router.json")
    _patch(fleet.FleetRouter, "_checkpoint_fleet", "router.checkpoint")
    fleet.FleetRouter._checkpoint_fleet = _sample_journal(fleet.FleetRouter._checkpoint_fleet)
    _patch(fleet._WorkerProc, "request", "router.worker")
    _patch(fleet._WorkerProc, "fresh_request", "router.worker_fresh")
    atexit.register(_dump, trace_dir)


def install_client() -> None:
    """Spans around the client calls of the benchmark's own process."""
    from repro.service import client, wire

    install_codec()
    _patch(wire, "read_frame_blocking", "client.recv", _received_frame)
    _patch(client.SessionHandle, "feed", "client.feed")
    _patch(client.SessionHandle, "feed_rows", "client.feed")
    _patch(client.SessionHandle, "query", "client.query")
    _patch(client.ServiceClient, "reconnect", "client.reconnect")


def _dump(trace_dir: str) -> None:
    path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w") as out:
        # Unfinished spans stay as null so parent indices keep their meaning.
        json.dump({"pid": os.getpid(), "argv": sys.argv, "spans": SPANS}, out)
    os.replace(path + ".tmp", path)
