"""Federated query execution over simulated peers.

:class:`Federation` owns the peers and the cost model; :meth:`run`
executes one query at an originating peer under a chosen strategy and
returns the result sequence together with the decomposition artifacts
and a full :class:`~repro.net.stats.RunStats` accounting — everything
the benchmark harness needs to regenerate Figures 7-9.

Transport realism: requests and responses are serialised to actual
SOAP-style XML text and re-parsed on the other side; document shipping
serialises the document at the owner and shreds it at the requester.
All byte counts are lengths of those texts. The wire itself lives in a
pluggable :class:`~repro.runtime.transport.Transport` (in-process
loopback by default); :class:`~repro.runtime.engine.FederationEngine`
runs many queries concurrently over one federation, so peers are
thread-safe and ``Peer.store`` notifies listeners (cache invalidation).

Host resolution is catalog-aware: a destination registered in an
attached :class:`~repro.cluster.catalog.ClusterCatalog` is a *virtual*
host naming a sharded collection, and both XRPC round trips and
data-shipping document fetches against it are routed through the
cluster's scatter-gather :class:`~repro.cluster.router.ClusterRouter`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.cluster.catalog import ClusterCatalog, CollectionSpec
from repro.cluster.router import ClusterRouter
from repro.decompose import DecompositionResult, Strategy, strategy_label
from repro.errors import NetworkError, XQueryDynamicError
from repro.net.costmodel import CostModel
from repro.net.stats import RunStats
from repro.obs.explain import ActualsBook
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer, bind_stats_span, child_span
from repro.planner.ir import PhysicalPlan
from repro.planner.planner import QueryPlanner
from repro.paths.analysis import PathSets, ProjectionSpec, analyze_module
from repro.runtime.batching import BulkBatcher, batch_key
from repro.runtime.cache import ResultCache, response_key
from repro.runtime.transport import LoopbackTransport, Transport
from repro.xmldb.document import Document
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import cached_serialization, serialize
from repro.xquery.ast import Expr, Module, XRPCExpr, walk
from repro.xquery.context import CostCounter, DynamicContext, StaticContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.pretty import pretty
from repro.xrpc.marshal import marshal_calls, unmarshal_result
from repro.xrpc.messages import RequestMessage, ResponseMessage
from repro.xrpc.peer import RequestHandler

XRPC_SCHEME = "xrpc://"


class Peer:
    """One peer: a named document space (safe to share across queries)."""

    def __init__(self, name: str):
        self.name = name
        self.documents: dict[str, Document] = {}
        self._lock = threading.Lock()
        self._serialize_lock = threading.Lock()
        self._store_listeners: list[Callable[[str, str], None]] = []

    def on_store(self, listener: Callable[[str, str], None]) -> None:
        """Register a ``(peer_name, local_name)`` callback fired after
        every :meth:`store` — the runtime cache invalidation hook."""
        with self._lock:
            self._store_listeners.append(listener)

    def remove_on_store(self, listener: Callable[[str, str], None]) -> None:
        """Unregister a :meth:`on_store` listener (no-op if absent)."""
        with self._lock:
            try:
                self._store_listeners.remove(listener)
            except ValueError:
                pass

    def store(self, local_name: str, content: str | Document) -> "Peer":
        """Register a document under a local name (chainable)."""
        if isinstance(content, Document):
            document = content
        else:
            document = parse_document(
                content, uri=f"{XRPC_SCHEME}{self.name}/{local_name}")
        with self._lock:
            self.documents[local_name] = document
            listeners = list(self._store_listeners)
        for listener in listeners:
            listener(self.name, local_name)
        return self

    def remove(self, local_name: str) -> bool:
        """Drop a document (migration retirement). Fires the same
        ``(peer_name, local_name)`` listeners as :meth:`store`, so the
        runtime caches and statistics invalidate identically. Returns
        False when the name was absent (idempotent retirement)."""
        with self._lock:
            present = self.documents.pop(local_name, None) is not None
            listeners = list(self._store_listeners) if present else []
        for listener in listeners:
            listener(self.name, local_name)
        return present

    def document(self, local_name: str) -> Document:
        try:
            return self.documents[local_name]
        except KeyError:
            raise NetworkError(
                f"peer {self.name!r} has no document {local_name!r}"
            ) from None

    def serialized(self, local_name: str) -> str:
        document = self.document(local_name)
        # The text is memoized on the document object itself (see
        # xmldb.serializer), so a store() — which swaps the object —
        # can never leave a stale write-back behind. Memoized reads
        # stay lock-free; the per-peer lock only stops concurrent
        # first-touch queries from redundantly serialising the same
        # (potentially large) document.
        cached = cached_serialization(document)
        if cached is not None:
            return cached
        with self._serialize_lock:
            return serialize(document)


@dataclass
class MessageLog:
    """One request/response exchange, for tests and examples."""

    dest: str
    calls: int
    request_bytes: int
    response_bytes: int
    request_xml: str = field(repr=False, default="")
    response_xml: str = field(repr=False, default="")


@dataclass
class RunResult:
    """Everything produced by one federated execution."""

    items: list
    stats: RunStats
    decomposition: DecompositionResult
    messages: list[MessageLog] = field(default_factory=list)
    #: The closed span tree of a ``trace=True`` run (None otherwise);
    #: export with :func:`repro.obs.dump_trace` /
    #: :func:`repro.obs.dump_chrome_trace`.
    trace: Span | None = None

    @property
    def module(self) -> Module:
        return self.decomposition.module

    @property
    def plan(self):
        """The :class:`~repro.net.stats.PlanReport` of this run."""
        return self.stats.plan


class Federation:
    """A set of peers plus the simulated network between them."""

    def __init__(self, cost_model: CostModel | None = None,
                 static: StaticContext | None = None,
                 transport: Transport | None = None,
                 catalog: ClusterCatalog | None = None,
                 planner: QueryPlanner | None = None,
                 metrics: MetricsRegistry | None = None):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.static = static if static is not None else StaticContext()
        # One registry per federation: the default transport's wire_*
        # series, the engine's cache_*/query_* series and the router's
        # scatter_* series all land in it. An injected transport keeps
        # its own registry, which becomes the federation's unless the
        # caller passed one explicitly.
        if metrics is not None:
            self.metrics = metrics
        elif transport is not None:
            self.metrics = transport.metrics
        else:
            self.metrics = MetricsRegistry()
        self.transport = (transport if transport is not None
                          else LoopbackTransport(self.cost_model,
                                                 metrics=self.metrics))
        self.peers: dict[str, Peer] = {}
        self.catalog = catalog
        self._planner = planner
        self._planner_lock = threading.Lock()
        #: The attached :class:`~repro.obs.fleet.FleetMonitor` (set by
        #: ``monitor.attach(federation)``; None ⇒ continuous
        #: observability off, at the cost of one attribute check per
        #: query).
        self.monitor = None
        #: The attached failure detector / repair engine (set by
        #: ``MembershipTracker.attach`` / ``RepairEngine.attach``;
        #: None ⇒ no self-healing, the pre-PR-9 behaviour).
        self.membership = None
        self.repair = None

    @property
    def planner(self) -> QueryPlanner:
        """The federation's cost-based planner (created lazily; every
        execution routes through it for plan lowering and feedback).
        Creation is locked: a racing double-construction would leak
        the loser's StatsCatalog listeners onto every peer."""
        if self._planner is None:
            with self._planner_lock:
                if self._planner is None:
                    self._planner = QueryPlanner(self)
        return self._planner

    def add_peer(self, name: str) -> Peer:
        if name in self.peers:
            raise NetworkError(f"peer {name!r} already exists")
        if self.catalog is not None and self.catalog.lookup(name) is not None:
            raise NetworkError(
                f"peer name {name!r} collides with a cluster collection")
        peer = Peer(name)
        self.peers[name] = peer
        return peer

    def peer(self, name: str) -> Peer:
        try:
            return self.peers[name]
        except KeyError:
            raise NetworkError(f"unknown peer {name!r}") from None

    def attach_catalog(self, catalog: ClusterCatalog) -> ClusterCatalog:
        """Install the cluster catalog: host names registered in it are
        resolved as sharded collections (scatter-gather) instead of
        peers from now on."""
        self.catalog = catalog
        if self.monitor is not None and catalog.events is None:
            # A monitor attached before the catalog existed still gets
            # the catalog's epoch-bump events.
            catalog.events = self.monitor.events
        return catalog

    def collection(self, host: str) -> CollectionSpec | None:
        """Catalog-aware host resolution: the collection registered
        under ``host``, or None when ``host`` is (or should be) an
        ordinary peer."""
        if self.catalog is None:
            return None
        return self.catalog.lookup(host)

    # -- execution ---------------------------------------------------------

    def run(self, query: str, at: str,
            strategy: Strategy | str = Strategy.BY_PROJECTION,
            bulk_rpc: bool = True, code_motion: bool = True,
            let_sinking: bool = True,
            keep_message_xml: bool = False,
            transport: Transport | None = None,
            result_cache: ResultCache | None = None,
            batcher: BulkBatcher | None = None,
            trace: bool = False) -> RunResult:
        """Parse, decompose and execute ``query`` at peer ``at``.

        ``strategy`` accepts the enum, a case-insensitive string alias
        (``"by-projection"``, ``"BY_FRAGMENT"``), or ``"auto"`` — which
        hands the choice to the cost-based :attr:`planner` (it may pick
        a *mixed* plan shipping some documents while decomposing
        others, and records its estimate in ``RunStats.plan``).

        ``trace=True`` records a per-query span tree (``query`` →
        ``plan`` / ``rpc`` / ``scatter`` / ``ship`` with component
        leaves) into ``RunResult.trace``; off by default and zero-cost
        when off.
        """
        choice = Strategy.coerce(strategy)
        tracer = Tracer() if trace else None
        root_ctx = (tracer.start("query", at=at,
                                 strategy=strategy_label(choice))
                    if tracer is not None else nullcontext())
        started = time.perf_counter()
        with root_ctx:
            # Fixed strategies go through the same planner entry point
            # as auto: the plan cache then amortises decomposition +
            # lowering across a multi-tenant sweep of identical queries.
            with child_span("plan"):
                try:
                    planned = self.planner.plan(query, at=at,
                                                strategy=choice,
                                                bulk_rpc=bulk_rpc,
                                                code_motion=code_motion,
                                                let_sinking=let_sinking,
                                                transport=transport)
                except Exception:
                    # Queries that die in parsing/planning are still
                    # part of the fleet's error stream (execution
                    # failures are recorded by execute() itself).
                    if self.monitor is not None:
                        self.monitor.record_query(
                            time.perf_counter() - started, ok=False)
                    raise
            result = self.execute(planned.decomposition, at,
                                  bulk_rpc=bulk_rpc,
                                  keep_message_xml=keep_message_xml,
                                  transport=transport,
                                  result_cache=result_cache,
                                  batcher=batcher, plan=planned.plan,
                                  report=planned.report,
                                  tracer=tracer)
        # The root span closed when the context exited; only a closed
        # tree folds into stable profiler stacks.
        if (self.monitor is not None and tracer is not None
                and tracer.root is not None):
            self.monitor.observe_trace(tracer.root)
        return result

    def execute(self, decomposition: DecompositionResult, at: str,
                bulk_rpc: bool = True,
                keep_message_xml: bool = False,
                transport: Transport | None = None,
                result_cache: ResultCache | None = None,
                batcher: BulkBatcher | None = None,
                plan: PhysicalPlan | None = None,
                report=None,
                tracer: Tracer | None = None,
                trace: bool = False) -> RunResult:
        """Execute an already-decomposed query at peer ``at``.

        ``transport`` defaults to the federation's (loopback);
        ``result_cache`` and ``batcher`` are injected by
        :class:`~repro.runtime.engine.FederationEngine` for cross-query
        reuse and coalescing, and stay off for standalone runs.

        ``plan`` is the planner's chosen physical plan (the auto
        path); when absent, the decomposition is lowered into its
        trivial fixed plan so every run carries an estimate, and the
        observed stats feed the planner's calibration either way.
        ``report`` is the :class:`~repro.net.stats.PlanReport` to
        record into the run's stats (defaults to the plan's own — the
        auto path passes a per-call copy so a plan-cache hit never
        mutates the report of a concurrently executing run).

        ``tracer`` is an already-started tracer (:meth:`run` passes its
        own); ``trace=True`` without one opens a fresh ``query`` root
        here, for callers executing pre-built decompositions.
        """
        if plan is None:
            plan = self.planner.lower_fixed(decomposition, at,
                                            bulk_rpc=bulk_rpc,
                                            transport=transport)
        root_ctx = nullcontext()
        owns_root = False
        if trace and tracer is None:
            tracer = Tracer()
            root_ctx = tracer.start("query", at=at)
            owns_root = True
        with root_ctx:
            run = _Run(self, decomposition, at, bulk_rpc,
                       keep_message_xml,
                       transport=transport, result_cache=result_cache,
                       batcher=batcher, plan=plan, tracer=tracer)
            started = time.perf_counter()
            try:
                result = run.execute()
            except Exception:
                if self.monitor is not None:
                    self.monitor.record_query(
                        time.perf_counter() - started, ok=False)
                raise
            wall_s = time.perf_counter() - started
            base_report = report if report is not None else plan.report
            if base_report is None:
                base_report = plan.build_report()
            result.stats.plan = replace(
                base_report,
                analysis=plan.build_analysis(run.actuals, result.stats,
                                             wall_s))
            self.planner.observe(plan, result)
            if self.monitor is not None:
                self.monitor.record_query(wall_s, ok=True)
            if tracer is not None and tracer.root is not None:
                root = tracer.root
                root.set(strategy=result.stats.plan.strategy,
                         total_bytes=result.stats.total_transferred_bytes,
                         rpc_calls=result.stats.rpc_calls,
                         cache_hits=result.stats.cache_hits)
                result.trace = root
        if owns_root and self.monitor is not None \
                and tracer.root is not None:
            # Standalone execute(trace=True): the root closed here.
            self.monitor.observe_trace(tracer.root)
        return result


class _Run:
    """State for one federated execution."""

    def __init__(self, federation: Federation,
                 decomposition: DecompositionResult, origin: str,
                 bulk_rpc: bool, keep_message_xml: bool,
                 transport: Transport | None = None,
                 result_cache: ResultCache | None = None,
                 batcher: BulkBatcher | None = None,
                 plan: PhysicalPlan | None = None,
                 tracer: Tracer | None = None):
        self.federation = federation
        self.decomposition = decomposition
        self.origin = origin
        self.bulk_rpc = bulk_rpc
        self.keep_message_xml = keep_message_xml
        self.transport = (transport if transport is not None
                          else federation.transport)
        self.result_cache = result_cache
        self.batcher = batcher
        self.plan = plan
        self.tracer = tracer
        self.stats = RunStats()
        if tracer is not None and tracer.root is not None:
            # Charges against the run's stats land on the query root
            # until a narrower span (rpc/ship) rebinds them.
            self.stats.span = tracer.root
        self.messages: list[MessageLog] = []
        self.local_counter = CostCounter()
        self.remote_counter = CostCounter()
        self._shipped_docs: dict[tuple[str, str], Document] = {}
        #: Per-operator actuals for explain-analyze (always recorded —
        #: one timestamped dict update per round trip / ship).
        self.actuals = ActualsBook()
        #: Rewritten shard-body ids → the logical call site id the plan
        #: knows (registered by the router for the scatter's duration).
        self.site_alias: dict[int, int] = {}
        # Message semantics come from the plan: uniform for a fixed
        # strategy, per call site for a planner-built mixed plan. The
        # ``site_semantics`` dict additionally carries the cluster
        # router's shard-body aliases for the duration of a scatter.
        self.semantics = (plan.default_semantics if plan is not None
                          else decomposition.strategy.semantics)
        self.site_semantics: dict[int, str] = (
            dict(plan.site_semantics) if plan is not None else {})
        self.projection_specs = self._projection_specs()

    def semantics_for(self, body_id: int) -> str:
        """The message semantics of one call site (``id(xrpc.body)``)."""
        return self.site_semantics.get(body_id, self.semantics)

    def _projection_specs(self) -> dict[int, ProjectionSpec]:
        """Specs keyed by id(xrpc.body), the handle the transport has.

        The plan already carries the analysis (computed once during
        lowering, over this very module object, so the id() keys
        match); re-analysis happens only for the plan-less fallback.
        """
        if self.plan is not None:
            return dict(self.plan.projection_specs)
        uses_projection = (
            self.semantics == "by-projection"
            or any(semantics == "by-projection"
                   for semantics in self.site_semantics.values()))
        if not uses_projection:
            return {}
        module = self.decomposition.module
        by_xrpc = analyze_module(module)
        out: dict[int, ProjectionSpec] = {}
        for decl_body in [f.body for f in module.functions] + [module.body]:
            for node in walk(decl_body):
                if isinstance(node, XRPCExpr):
                    spec = by_xrpc.get(id(node))
                    if spec is not None:
                        out[id(node.body)] = spec
        return out

    # -- document resolution (data shipping) -----------------------------------

    def _resolver(self, peer_name: str, stats: RunStats | None = None):
        """Document resolution at ``peer_name``; ``stats`` overrides the
        accounting target so nested shipping triggered inside a scatter
        worker charges that shard call's private RunStats."""
        def resolve(uri: str) -> Document:
            owner, local_name = self._locate(uri, peer_name)
            if owner == peer_name:
                return self.federation.peer(owner).document(local_name)
            return self._ship_document(owner, local_name, peer_name,
                                       stats=stats)
        return resolve

    def _locate(self, uri: str, requester: str) -> tuple[str, str]:
        if uri.startswith(XRPC_SCHEME):
            rest = uri[len(XRPC_SCHEME):]
            if "/" not in rest:
                raise XQueryDynamicError(f"malformed xrpc URI {uri!r}")
            owner, local_name = rest.split("/", 1)
            return owner, local_name
        return requester, uri

    def _ship_document(self, owner: str, local_name: str,
                       requester: str,
                       stats: RunStats | None = None) -> Document:
        """Data shipping: fetch, transfer, and shred a whole document."""
        if stats is None:
            stats = self.stats
        spec = self.federation.collection(owner)
        if spec is not None:
            return self._ship_collection(spec, local_name, requester,
                                         stats)
        key = (requester, f"{owner}/{local_name}")
        cached = self._shipped_docs.get(key)
        if cached is not None:
            return cached
        wall0 = time.perf_counter()
        cache_epoch = None
        if self.result_cache is not None:
            cache_epoch = self.result_cache.epoch()
            entry = self.result_cache.lookup_document(requester, owner,
                                                      local_name)
            if entry is not None:
                document, size = entry
                stats.cache_hits += 1
                stats.cache_saved_bytes += size
                self._shipped_docs[key] = document
                self.actuals.record_ship(
                    owner, local_name, bytes=0,
                    wall_s=time.perf_counter() - wall0, cache_hits=1)
                return document
        sim0 = stats.times.total
        with child_span("ship", owner=owner, doc=local_name,
                        to=requester) as ship_span, \
                bind_stats_span(stats, ship_span):
            text = self.transport.fetch_document(
                self.federation.peer(owner), local_name, stats)
            document = parse_document(
                text, uri=f"{XRPC_SCHEME}{owner}/{local_name}")
            size = len(text.encode())
            if ship_span is not None:
                ship_span.set(bytes=size)
        self.actuals.record_ship(owner, local_name, bytes=size,
                                 sim_s=stats.times.total - sim0,
                                 wall_s=time.perf_counter() - wall0)
        self._shipped_docs[key] = document
        if self.result_cache is not None:
            self.result_cache.store_document(requester, owner, local_name,
                                             document, size,
                                             epoch=cache_epoch)
        return document

    def _ship_collection(self, spec: CollectionSpec, local_name: str,
                         requester: str, stats: RunStats) -> Document:
        """Data shipping over a sharded collection: ship every shard
        from a live replica (failing over on wire faults) and
        reassemble the logical document. Cache entries are keyed by the
        catalog's membership epoch so a repartition invalidates them."""
        catalog = self.federation.catalog
        assert catalog is not None
        epoch = catalog.epoch()
        key = (requester, f"{spec.name}/{local_name}@e{epoch}")
        cached = self._shipped_docs.get(key)
        if cached is not None:
            return cached
        wall0 = time.perf_counter()
        cache_epoch = None
        cache_name = None
        if self.result_cache is not None:
            cache_epoch = self.result_cache.epoch()
            # The invalidation epoch is part of the name: peer stores
            # can't target the collection scope (invalidate_peer keys
            # on physical peer names), so any store anywhere must make
            # merged-document entries unreachable — a shard re-store
            # would otherwise serve a stale merge.
            cache_name = f"{local_name}@e{epoch}.i{cache_epoch}"
            entry = self.result_cache.lookup_document(requester, spec.name,
                                                      cache_name)
            if entry is not None:
                document, size = entry
                stats.cache_hits += 1
                stats.cache_saved_bytes += size
                self._shipped_docs[key] = document
                self.actuals.record_ship(
                    spec.name, local_name, bytes=0,
                    wall_s=time.perf_counter() - wall0, cache_hits=1)
                return document
        router = ClusterRouter(self, catalog)
        sim0 = stats.times.total
        with child_span("ship", owner=spec.name, doc=local_name,
                        to=requester,
                        shards=len(spec.shards)) as ship_span:
            document, size = router.fetch_collection_document(
                spec, local_name, requester, stats=stats,
                parent_span=ship_span)
            if ship_span is not None:
                ship_span.set(bytes=size)
        self.actuals.record_ship(spec.name, local_name, bytes=size,
                                 sim_s=stats.times.total - sim0,
                                 wall_s=time.perf_counter() - wall0)
        self._shipped_docs[key] = document
        if self.result_cache is not None and cache_name is not None:
            self.result_cache.store_document(requester, spec.name,
                                             cache_name, document, size,
                                             epoch=cache_epoch)
        return document

    # -- XRPC transport ---------------------------------------------------------

    def _make_xrpc_execute(self, from_peer: str,
                           stats: RunStats | None = None,
                           counter: CostCounter | None = None):
        """Nested ``execute at`` from ``from_peer``; ``stats`` /
        ``counter`` carry a scatter worker's private accounting into
        any remote work its shard body triggers."""
        def execute(dest: str, params: list[tuple[str, list]],
                    body: Expr) -> list:
            results = self._round_trip(from_peer, dest, [params], body,
                                       stats=stats, remote_counter=counter)
            return results[0]
        return execute

    def _make_xrpc_execute_bulk(self, from_peer: str):
        if not self.bulk_rpc:
            return None

        def execute_bulk(dest: str, calls: list[list[tuple[str, list]]],
                         body: Expr) -> list[list]:
            if not calls:
                return []
            return self._round_trip(from_peer, dest, calls, body)
        return execute_bulk

    def _round_trip(self, from_peer: str, dest: str,
                    calls: list[list[tuple[str, list]]],
                    body: Expr,
                    cache_scope: str | None = None,
                    shard_epoch: int | None = None,
                    stats: RunStats | None = None,
                    remote_counter: CostCounter | None = None) -> list[list]:
        """One network interaction: marshal, ship, execute, ship back.

        The wire itself is the transport's job; this method builds the
        request, consults the shared result cache, and hands mergeable
        round trips to the cross-query batcher.

        A destination registered in the cluster catalog is a *logical*
        call site: the router scatters it into one round trip per shard
        (re-entering this method with the physical replica as ``dest``)
        and gathers the results. The keyword arguments exist for those
        re-entrant shard calls: ``cache_scope``/``shard_epoch`` key the
        response cache by shard identity + membership epoch instead of
        the replica that happened to serve it, and ``stats`` /
        ``remote_counter`` give each concurrent shard call private
        accounting (merged deterministically after the gather).
        """
        dest_name = dest[len(XRPC_SCHEME):].split("/", 1)[0] \
            if dest.startswith(XRPC_SCHEME) else dest
        if stats is None:
            stats = self.stats
        if remote_counter is None:
            remote_counter = self.remote_counter
        spec = self.federation.collection(dest_name)
        if spec is not None:
            router = ClusterRouter(self, self.federation.catalog)
            return router.scatter(from_peer, spec, calls, body,
                                  stats=stats, counter=remote_counter)
        peer = self.federation.peer(dest_name)  # raises on unknown peer
        model = self.federation.cost_model

        semantics = self.semantics_for(id(body))
        spec = self.projection_specs.get(id(body))
        param_paths: dict[str, PathSets] | None = None
        used_paths = returned_paths = None
        if semantics == "by-projection" and spec is not None:
            param_paths = spec.param_paths
            used_paths = sorted(str(p) for p in spec.result_paths.used)
            returned_paths = sorted(
                str(p) for p in spec.result_paths.returned)

        # Explain-analyze attribution: shard-rewritten bodies alias
        # back to the logical call site the plan priced; sim seconds
        # are inclusive deltas, mirroring how the estimator prices.
        site_id = self.site_alias.get(id(body), id(body))
        wall0 = time.perf_counter()
        sim0 = stats.times.total
        bytes0 = stats.message_bytes + stats.document_bytes

        with child_span("rpc", dest=dest_name) as rpc_span, \
                bind_stats_span(stats, rpc_span):
            if rpc_span is not None:
                rpc_span.set(semantics=semantics, calls=len(calls))
                if used_paths is not None:
                    rpc_span.set(used_paths=len(used_paths),
                                 returned=len(returned_paths or ()))

            query_text = pretty(body)
            param_names = [name for name, _seq in calls[0]] if calls else []
            static_attrs = self.federation.static.to_attributes()

            def build_request(raw_calls: list[list[tuple[str, list]]]
                              ) -> RequestMessage:
                bundle = marshal_calls(raw_calls, semantics, param_paths)
                return RequestMessage(
                    query=query_text,
                    param_names=param_names,
                    calls=bundle.calls,
                    fragments=bundle.fragments,
                    static_attrs=static_attrs,
                    used_paths=used_paths,
                    returned_paths=returned_paths,
                )

            request = build_request(calls)
            request_xml = request.to_xml()
            request_bytes = len(request_xml.encode())
            base_uri = f"{XRPC_SCHEME}{peer.name}/response"

            cache_key = cache_epoch = None
            if self.result_cache is not None:
                cache_epoch = self.result_cache.epoch()
                cache_key = response_key(cache_scope or dest_name,
                                         semantics, request_xml,
                                         used_paths, returned_paths,
                                         shard_epoch=shard_epoch)
                hit = self.result_cache.lookup_response(cache_key,
                                                        request_bytes)
                if hit is not None:
                    # Served from the shared cache: nothing on the
                    # wire; the cached text is still shredded locally
                    # into fresh fragment documents, so node identity
                    # stays per-query.
                    stats.cache_hits += 1
                    stats.cache_saved_bytes += (request_bytes
                                                + len(hit.encode()))
                    deserialize_s = model.deserialize_time(
                        len(hit.encode()))
                    stats.times.serialize += deserialize_s
                    stats.charge_span("serialize", deserialize_s)
                    if rpc_span is not None:
                        rpc_span.set(cache="hit",
                                     saved_bytes=request_bytes
                                     + len(hit.encode()))
                    self.actuals.record_site(
                        site_id, sim_s=stats.times.total - sim0,
                        wall_s=time.perf_counter() - wall0,
                        cache_hits=len(calls))
                    parsed = ResponseMessage.from_xml(hit)
                    return unmarshal_result(parsed.results,
                                            parsed.fragments,
                                            base_uri=base_uri)

            def make_handler() -> RequestHandler:
                return RequestHandler(
                    peer_name=peer.name,
                    resolve_doc=self._resolver(peer.name, stats=stats),
                    xrpc_execute=self._make_xrpc_execute(
                        peer.name, stats=stats, counter=remote_counter),
                    semantics=semantics,
                    counter=remote_counter,
                )

            if self.batcher is not None:
                key = batch_key(dest_name, query_text, param_names,
                                semantics, static_attrs,
                                used_paths, returned_paths)

                def merged_exchange(
                        merged_calls: list[list[tuple[str, list]]]
                        ) -> ResponseMessage:
                    # Only the batch leader lands here; the merged wire
                    # exchange is charged to no single query (each
                    # participant accounts for its private messages
                    # below), while the transport's wire counters
                    # record the truth. The throwaway RunStats carries
                    # no span either, so traced runs never double-count
                    # the merged exchange. Known accounting skew:
                    # nested work the merged evaluation triggers
                    # (document shipping, recursive round trips) runs
                    # through the leader's resolver and counters, so
                    # under coalescing the leader's RunStats
                    # over-report and riders' under-report that share.
                    if len(merged_calls) == len(calls):
                        # No riders joined: batch.calls is exactly our
                        # own call list, so reuse the built request.
                        merged_request, merged_xml = request, request_xml
                    else:
                        merged_request, merged_xml = (
                            build_request(merged_calls), None)
                    exchange = self.transport.exchange(
                        peer, merged_request, make_handler().handle,
                        RunStats(), request_xml=merged_xml)
                    return exchange.response, exchange.response_xml

                parsed, response_xml = self.batcher.execute(
                    key, calls, merged_exchange)
                self.transport.charge_message(stats, request_bytes)
                response_bytes = len(response_xml.encode())
                self.transport.charge_message(stats, response_bytes)
            else:
                exchange = self.transport.exchange(peer, request,
                                                   make_handler().handle,
                                                   stats,
                                                   request_xml=request_xml)
                response_xml = exchange.response_xml
                response_bytes = exchange.response_bytes
                parsed = exchange.response

            stats.rpc_calls += len(calls)
            if rpc_span is not None:
                rpc_span.set(cache="miss" if cache_key is not None
                             else "off",
                             request_bytes=request_bytes,
                             response_bytes=response_bytes)
            self.actuals.record_site(
                site_id,
                bytes=(stats.message_bytes + stats.document_bytes
                       - bytes0),
                calls=len(calls),
                sim_s=stats.times.total - sim0,
                wall_s=time.perf_counter() - wall0)
            self.messages.append(MessageLog(
                dest=peer.name, calls=len(calls),
                request_bytes=request_bytes,
                response_bytes=response_bytes,
                request_xml=request_xml if self.keep_message_xml else "",
                response_xml=response_xml if self.keep_message_xml else "",
            ))

            if self.result_cache is not None and cache_key is not None:
                self.result_cache.store_response(cache_key, response_xml,
                                                 epoch=cache_epoch)
            return unmarshal_result(parsed.results, parsed.fragments,
                                    base_uri=base_uri)

    # -- top-level execution --------------------------------------------------------

    def execute(self) -> RunResult:
        module = self.decomposition.module
        evaluator = Evaluator(module, self.federation.static)
        env = DynamicContext(
            resolve_doc=self._resolver(self.origin),
            xrpc_execute=self._make_xrpc_execute(self.origin),
            xrpc_execute_bulk=self._make_xrpc_execute_bulk(self.origin),
            counter=self.local_counter,
        )
        items = evaluator.run(env)

        model = self.federation.cost_model
        local_s = model.exec_time(
            self.local_counter.ticks, self.local_counter.nodes_visited)
        remote_s = model.exec_time(
            self.remote_counter.ticks, self.remote_counter.nodes_visited)
        self.stats.times.local_exec = local_s
        self.stats.times.remote_exec = remote_s
        # Execution time is computed once from the run-wide counters,
        # so the component leaves land on the query root (the wire
        # components were charged per rpc/ship span as they happened).
        self.stats.charge_span("local_exec", local_s)
        self.stats.charge_span("remote_exec", remote_s)
        self.actuals.local.sim_s += local_s
        return RunResult(items=items, stats=self.stats,
                         decomposition=self.decomposition,
                         messages=self.messages)
