"""Outside-in layer tracing.

The benchmark measures layers without touching ``src/``: it replaces
each layer's public entry points with timing wrappers for the length of
a traced phase and puts the originals back afterwards.

* Modules bind entry points with ``from x import f``, so a function is
  replaced under every ``repro`` module attribute that *is* the original
  object, the defining module included (``RequestHandler.handle``
  imports ``marshal_calls`` at call time and so reads the defining
  module's attribute).
* Methods are replaced on the class that defines them. Per-node
  recursive entry points (``Evaluator.evaluate``) are deliberately not
  wrapped: a span per AST node would measure the tracer.
* Span stacks are thread-local. ``ThreadPoolExecutor.submit`` is
  wrapped too, so a task submitted inside an operation (the engine's
  workers, the cluster router's per-scatter pool) runs with the
  submitting span as its cause and inherits the operation id.
* Spans are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

#: Span name of the engine's queue wait: opened when a client calls
#: ``FederationEngine.submit`` and closed when a worker picks the query
#: up, so the wait is attributed instead of falling into the gap.
QUEUE_WAIT = "runtime.engine.queue_wait"

#: The operation's root span; it belongs to no layer.
OPERATION = "op"


def _text_bytes(args, _kwargs, _result) -> int:
    return len(args[0].encode())


def _result_bytes(_args, _kwargs, result) -> int:
    return len(result.encode())


#: (span name, module, attribute, byte measure). A dotted attribute is
#: a method on a class of that module.
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("system.run", "repro.system.federation", "Federation.run", None),
    ("system.store", "repro.system.federation", "Peer.store", None),
    ("xmldb.parse", "repro.xmldb.parser", "parse_document", _text_bytes),
    ("xmldb.parse", "repro.xmldb.parser", "parse_fragment", _text_bytes),
    ("xmldb.serialize", "repro.system.federation", "Peer.serialized", None),
    ("xmldb.serialize", "repro.xmldb.serializer", "serialize", None),
    ("xrpc.encode", "repro.xrpc.messages", "RequestMessage.to_xml",
     _result_bytes),
    ("xrpc.encode", "repro.xrpc.messages", "ResponseMessage.to_xml",
     _result_bytes),
    ("xrpc.decode", "repro.xrpc.messages", "RequestMessage.from_xml", None),
    ("xrpc.decode", "repro.xrpc.messages", "ResponseMessage.from_xml", None),
    ("xrpc.marshal", "repro.xrpc.marshal", "marshal_calls", None),
    ("xrpc.marshal", "repro.xrpc.marshal", "marshal_result", None),
    ("xrpc.unmarshal", "repro.xrpc.marshal", "unmarshal_calls", None),
    ("xrpc.unmarshal", "repro.xrpc.marshal", "unmarshal_result", None),
    ("xrpc.handle", "repro.xrpc.peer", "RequestHandler.handle", None),
    ("xquery.parse", "repro.xquery.parser", "parse_query", None),
    ("xquery.parse", "repro.xquery.parser", "parse_expr", None),
    ("xquery.eval", "repro.xquery.evaluator", "Evaluator.run", None),
    ("decompose", "repro.decompose.strategy", "decompose", None),
    ("decompose", "repro.decompose.strategy", "prepare", None),
    ("decompose", "repro.decompose.strategy", "realize", None),
    ("planner.plan", "repro.planner.planner", "QueryPlanner.plan", None),
    ("planner.stats", "repro.planner.stats", "StatsCatalog.document_stats",
     None),
    ("runtime.wire", "repro.runtime.transport", "Transport.exchange", None),
    ("runtime.wire", "repro.runtime.transport", "Transport.fetch_document",
     None),
    ("cluster.scatter", "repro.cluster.router", "ClusterRouter.scatter",
     None),
    ("cluster.scatter", "repro.cluster.router",
     "ClusterRouter.fetch_collection_document", None),
    ("cluster.gather", "repro.cluster.gather", "merge_shard_documents", None),
    ("cluster.gather", "repro.cluster.gather", "gather_plan", None),
)

#: Every layer a span can be attributed to, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [name for name, *_ in ENTRY_POINTS] + [QUEUE_WAIT]))


class Span:
    """One timed call: ``parent`` is the span that caused it (on
    whichever thread), ``op`` the operation it belongs to."""

    __slots__ = ("name", "op", "parent", "start", "end", "nbytes")

    def __init__(self, name: str, op: int, parent: "Span | None",
                 start: float):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end: float | None = None
        self.nbytes = 0

    def as_dict(self) -> dict[str, object]:
        return {"name": self.name, "op": self.op,
                "id": id(self),
                "parent": id(self.parent) if self.parent else None,
                "start": self.start, "end": self.end,
                "bytes": self.nbytes}


def import_all(package: str = "repro") -> None:
    """Import every submodule of ``package`` so that no module binds an
    entry point for the first time while wrappers are installed (it
    would keep the wrapper after they are removed)."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)


class Tracer:
    """Installs the wrappers, records spans, removes the wrappers.

    Use as ``with tracer.installed(): ...`` and open one
    :meth:`operation` per client operation; calls made outside any
    operation (testbed set-up) pass through unrecorded.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.operations: list[Span] = []
        self._local = threading.local()
        self._next_op = 0
        self._op_lock = threading.Lock()
        #: (owner, attribute, original) of every replacement made.
        self.patched: list[tuple[object, str, object]] = []

    # -- span stacks ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self) -> Iterator[Span]:
        """The root span of one client operation."""
        with self._op_lock:
            self._next_op += 1
            op = self._next_op
        root = Span(OPERATION, op, None, perf_counter())
        stack = self._stack()
        stack.append(root)
        try:
            yield root
        finally:
            root.end = perf_counter()
            stack.pop()
            self.operations.append(root)

    def _wrap(self, fn: Callable, name: str,
              measure: Callable | None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(name, parent.op, parent, perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if measure is not None:
                span.nbytes = measure(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_engine_submit(self, fn: Callable) -> Callable:
        tracer = self

        def submit(engine, *args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(engine, *args, **kwargs)
            parent = stack[-1]
            span = Span(QUEUE_WAIT, parent.op, parent, perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            try:
                return fn(engine, *args, **kwargs)
            except BaseException:
                if span.end is None:
                    span.end = perf_counter()
                raise
            finally:
                stack.pop()

        return functools.update_wrapper(submit, fn)

    def _wrap_pool_submit(self, fn: Callable) -> Callable:
        tracer = self

        def submit(pool, task, /, *args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(pool, task, *args, **kwargs)
            cause = stack[-1]

            def in_context(*task_args, **task_kwargs):
                if cause.name == QUEUE_WAIT and cause.end is None:
                    cause.end = perf_counter()
                worker_stack = tracer._stack()
                worker_stack.append(cause)
                try:
                    return task(*task_args, **task_kwargs)
                finally:
                    worker_stack.pop()

            return fn(pool, in_context, *args, **kwargs)

        return functools.update_wrapper(submit, fn)

    # -- installation ---------------------------------------------------------

    def _replace(self, owner: object, attribute: str, new: object) -> None:
        self.patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, new)

    def _replace_method(self, cls: type, attribute: str,
                        make: Callable[[Callable], Callable]) -> None:
        raw = vars(cls)[attribute]
        if isinstance(raw, classmethod):
            self._replace(cls, attribute, classmethod(make(raw.__func__)))
        else:
            self._replace(cls, attribute, make(raw))

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        import_all()
        modules = [module for name, module in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for name, module_name, attribute, measure in ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                self._replace_method(
                    getattr(module, class_name), method,
                    lambda fn, n=name, m=measure: self._wrap(fn, n, m))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name, measure)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, wrapper)
        engine = sys.modules["repro.runtime.engine"].FederationEngine
        self._replace_method(engine, "submit", self._wrap_engine_submit)
        self._replace_method(ThreadPoolExecutor, "submit",
                             self._wrap_pool_submit)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        self.patched.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans and operations (wrappers stay)."""
        self.spans = []
        self.operations = []

    def spans_by_op(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.op].append(span)
        return out

    def write(self, path) -> None:
        """Dump every recorded span, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.operations + self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


def attribute(root: Span, spans: list[Span]) -> tuple[dict[str, float], float]:
    """Split one operation's wall interval among layers.

    Every instant of ``root``'s interval goes, in equal shares, to the
    innermost spans open at that instant (a span none of whose children
    is open then); an instant no span covers is unattributed. On one
    thread this is the usual self time, a span's duration minus what
    its children cover; with shard calls running in parallel it keeps
    the shares summing to the wall time. Returns ``(self seconds per
    layer, unattributed seconds)``; their sum is the root's duration.
    """
    assert root.end is not None
    events: list[tuple[float, int, Span]] = []
    for span in spans:
        end = span.end if span.end is not None else span.start
        start, end = max(span.start, root.start), min(end, root.end)
        if end > start:
            events.append((start, 1, span))
            events.append((end, 0, span))
    # At equal times closings go first, so a span never counts as open
    # in a zero-length slice.
    events.sort(key=lambda event: (event[0], event[1]))
    self_s: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    active: set[Span] = set()
    now = root.start
    for time, opening, span in events:
        if time > now:
            elapsed = time - now
            if active:
                leaves = active - {other.parent for other in active}
                share = elapsed / len(leaves)
                for leaf in leaves:
                    self_s[leaf.name] += share
            else:
                unattributed += elapsed
            now = time
        if opening:
            active.add(span)
        else:
            active.discard(span)
    unattributed += root.end - now
    return dict(self_s), unattributed
