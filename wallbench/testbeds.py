"""The benchmark's workloads: testbeds, operation streams and oracles.

Every workload is a closed loop: a client sends its next operation only
after the previous one answered, because clients of this system send a
query and wait for its answer. The seed draws what is asked (operation
order, age thresholds, reference-table versions); the XMark documents
are the repository's fixed testbed, generated from the default seed of
``repro.workloads``, so two seeds differ in the questions, not the data.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.decompose import Strategy
from repro.runtime.engine import FederationEngine
from repro.workloads import (
    MIXED_CROSS_QUERY, REFDATA_PEER, TENANT_AGE_THRESHOLDS,
    TINY_LOOKUP_QUERY, benchmark_query_variant, build_federation,
    build_mixed_federation, build_sharded_federation,
    build_spilled_federation, sharded_query_variant,
)
from repro.xquery.xdm import serialize_sequence

#: XMark scale of the in-memory and sharded testbeds (~417 KB pair).
SCALE = 0.08
#: XMark scale of the spilled testbed (~104 KB per XCOL1 file).
SPILL_SCALE = 0.02
#: Buffer-pool budget per spilled document: well under each file.
SPILL_POOL_BYTES = 64 * 1024
#: Client threads of the read-write workload (the machine has 2 cores).
TENANT_CLIENTS = 2
#: Every WRITE_EVERY-th operation of a read-write client is a write.
WRITE_EVERY = 10
REFDATA_DOCUMENT = "rates.xml"


@dataclass(frozen=True)
class Op:
    """One client operation. ``kind`` is its type in the report: a
    strategy label on the Figure 9 workloads, ``read`` or ``write`` on
    the read-write one. Reads carry query text; writes the document
    text they store."""

    kind: str
    text: str
    strategy: str = ""


def answer(result) -> str:
    return serialize_sequence(result.items)


class Testbed:
    """One built system under test."""

    def __init__(self, federation, engine: FederationEngine | None = None,
                 workdir: Path | None = None):
        self.federation = federation
        self.engine = engine
        self.workdir = workdir

    def execute(self, op: Op):
        """Run ``op``; a read returns its ``RunResult``, a write None."""
        if op.kind == "write":
            self.federation.peer(REFDATA_PEER).store(REFDATA_DOCUMENT,
                                                     op.text)
            return None
        if self.engine is not None:
            return self.engine.submit(op.text, "local",
                                      op.strategy).result()
        return self.federation.run(op.text, at="local",
                                   strategy=op.strategy)

    def wire_bytes(self) -> int:
        summary = self.federation.transport.wire_summary()
        return sum(peer["total_bytes"] for peer in summary.values())

    def _stores(self) -> list:
        """The column stores of spilled documents (none in memory)."""
        return [document.columns.store
                for peer in self.federation.peers.values()
                for document in peer.documents.values()
                if getattr(document.columns, "store", None) is not None]

    def pools(self) -> list:
        return [store.pool for store in self._stores()]

    def close(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()
        for store in self._stores():
            store.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


class Workload:
    """A named workload: how to build its testbed, what its clients
    send, and the oracle their answers are checked against."""

    name: str
    clients: int = 1
    #: Operation types, in report order.
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def oracle(self) -> dict[str, frozenset[str]]:
        """Query text -> every acceptable serialized answer."""
        raise NotImplementedError

    def build(self, workdir: Path) -> Testbed:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        """Every distinct operation once. The order is fixed, not
        seeded: set-up does the same work whatever the seed."""
        raise NotImplementedError

    def streams(self) -> list[Iterator[list[Op]]]:
        """One endless stream of rounds per client; a client checks the
        deadline only between rounds."""
        raise NotImplementedError


class Fig9Workload(Workload):
    """Section VII's Qn2 semijoin under fixed strategies, one client.

    A round runs every strategy once in a seeded order; each strategy
    draws its age threshold from its own seeded deck of
    ``TENANT_AGE_THRESHOLDS``, so every five rounds each
    (strategy, threshold) pair runs exactly once and the per-strategy
    medians do not depend on which thresholds a seed happened to draw.
    """

    def __init__(self, name: str, seed: int, testbed: str,
                 strategies: tuple[Strategy, ...], scale: float):
        self.name = name
        super().__init__(seed)
        self.testbed = testbed
        self.strategies = strategies
        self.scale = scale
        self.kinds = tuple(strategy.value for strategy in strategies)

    def variant(self, threshold: int) -> str:
        if self.testbed == "sharded":
            return sharded_query_variant(threshold)
        return benchmark_query_variant(threshold)

    def oracle(self) -> dict[str, frozenset[str]]:
        reference = build_federation(self.scale)
        return {
            self.variant(threshold): frozenset({answer(reference.run(
                benchmark_query_variant(threshold), at="local",
                strategy=Strategy.DATA_SHIPPING))})
            for threshold in TENANT_AGE_THRESHOLDS}

    def build(self, workdir: Path) -> Testbed:
        if self.testbed == "sharded":
            return Testbed(build_sharded_federation(self.scale))
        if self.testbed == "spilled":
            directory = Path(tempfile.mkdtemp(dir=workdir))
            return Testbed(build_spilled_federation(
                self.scale, directory, budget_bytes=SPILL_POOL_BYTES),
                workdir=directory)
        return Testbed(build_federation(self.scale))

    def _op(self, strategy: Strategy, threshold: int) -> Op:
        return Op(strategy.value, self.variant(threshold), strategy.value)

    def warmup_ops(self) -> list[Op]:
        return [self._op(strategy, threshold)
                for threshold in TENANT_AGE_THRESHOLDS
                for strategy in self.strategies]

    def streams(self) -> list[Iterator[list[Op]]]:
        return [self._rounds(self.rng("rounds"))]

    def _rounds(self, rng: random.Random) -> Iterator[list[Op]]:
        decks: dict[Strategy, list[int]] = {s: [] for s in self.strategies}
        while True:
            order = list(self.strategies)
            rng.shuffle(order)
            round_ops = []
            for strategy in order:
                deck = decks[strategy]
                if not deck:
                    deck.extend(TENANT_AGE_THRESHOLDS)
                    rng.shuffle(deck)
                round_ops.append(self._op(strategy, deck.pop()))
            yield round_ops


def refdata_version(rng: random.Random, entries: int) -> str:
    """A seeded reference table in the schema of
    ``repro.workloads.refdata_document``."""
    rows = "".join(
        f"<entry><code>C{index:02d}</code>"
        f"<rate>{rng.uniform(0.5, 3.0):.4f}</rate>"
        f"<region>r{rng.randrange(5)}</region></entry>"
        for index in range(entries))
    return f"<rates>{rows}</rates>"


class TenantsWorkload(Workload):
    """Read-write tenants: two closed-loop clients through
    ``FederationEngine`` (default result cache and batcher,
    ``strategy="auto"``). Reads are the ``mixed_tenant_jobs`` shapes in
    its proportions: a third semijoin variants, a third the tiny lookup,
    a third the cross query. Each client deals them from a seeded deck
    of fifteen (every threshold once, five lookups, five cross queries),
    so no seed tilts the mix. Every WRITE_EVERY-th operation of a client
    re-stores the reference table, alternating between seeded versions
    A and B."""

    name = "tenants-rw"
    clients = TENANT_CLIENTS
    kinds = ("read", "write")

    def __init__(self, seed: int, scale: float = SCALE):
        super().__init__(seed)
        self.scale = scale
        rng = self.rng("refdata")
        # Different sizes, so the two versions' answers always differ.
        self.versions = {"A": refdata_version(rng, 40),
                         "B": refdata_version(rng, 44)}

    def _write(self, version: str) -> Op:
        return Op("write", self.versions[version])

    def oracle(self) -> dict[str, frozenset[str]]:
        reference = build_federation(self.scale)
        refdata = reference.add_peer(REFDATA_PEER)

        def run(query: str) -> str:
            return answer(reference.run(query, at="local",
                                        strategy=Strategy.DATA_SHIPPING))

        # The semijoin variants do not read the reference table.
        answers = {benchmark_query_variant(threshold): {run(
            benchmark_query_variant(threshold))}
            for threshold in TENANT_AGE_THRESHOLDS}
        for query in (TINY_LOOKUP_QUERY, MIXED_CROSS_QUERY):
            answers[query] = set()
        for version in ("A", "B"):
            refdata.store(REFDATA_DOCUMENT, self.versions[version])
            for query in (TINY_LOOKUP_QUERY, MIXED_CROSS_QUERY):
                answers[query].add(run(query))
        for query in (TINY_LOOKUP_QUERY, MIXED_CROSS_QUERY):
            if len(answers[query]) != 2:
                raise RuntimeError(
                    "reference versions A and B answer alike; a torn "
                    "read could not be told from a good one")
        return {query: frozenset(found) for query, found in answers.items()}

    @staticmethod
    def _read_queries() -> list[str]:
        return ([benchmark_query_variant(threshold)
                 for threshold in TENANT_AGE_THRESHOLDS]
                + [TINY_LOOKUP_QUERY, MIXED_CROSS_QUERY])

    def build(self, workdir: Path) -> Testbed:
        federation = build_mixed_federation(self.scale)
        federation.peer(REFDATA_PEER).store(REFDATA_DOCUMENT,
                                            self.versions["A"])
        engine = FederationEngine(federation, max_workers=TENANT_CLIENTS)
        return Testbed(federation, engine=engine)

    def warmup_ops(self) -> list[Op]:
        # End on version A, the state every timed phase starts from.
        return ([Op("read", query, "auto") for query in self._read_queries()]
                + [self._write("B"), self._write("A")])

    def streams(self) -> list[Iterator[list[Op]]]:
        return [self._client(client) for client in range(self.clients)]

    def _client(self, client: int) -> Iterator[list[Op]]:
        rng = self.rng(f"client{client}")
        per_shape = len(TENANT_AGE_THRESHOLDS)
        deck_queries = ([benchmark_query_variant(threshold)
                         for threshold in TENANT_AGE_THRESHOLDS]
                        + [TINY_LOOKUP_QUERY] * per_shape
                        + [MIXED_CROSS_QUERY] * per_shape)
        deck: list[str] = []
        writes = client
        index = 0
        while True:
            index += 1
            if index % WRITE_EVERY == 0:
                yield [self._write("AB"[writes % 2])]
                writes += 1
                continue
            if not deck:
                deck.extend(deck_queries)
                rng.shuffle(deck)
            yield [Op("read", deck.pop(), "auto")]


def make_workload(name: str, seed: int,
                  scale: float | None = None) -> Workload:
    """The workload called ``name``; ``scale`` overrides its XMark
    scale (the tests use a tiny one)."""
    if name == "tenants-rw":
        return TenantsWorkload(seed, scale if scale is not None else SCALE)
    every = tuple(Strategy)
    fig9 = {
        "fig9-single": ("single", every, SCALE),
        "fig9-sharded": ("sharded", every, SCALE),
        "fig9-spilled": ("spilled", (Strategy.BY_PROJECTION,
                                     Strategy.DATA_SHIPPING), SPILL_SCALE),
    }
    if name not in fig9:
        raise ValueError(f"unknown workload {name!r}")
    testbed, strategies, default_scale = fig9[name]
    return Fig9Workload(name, seed, testbed, strategies,
                        scale if scale is not None else default_scale)


WORKLOADS = ("fig9-single", "fig9-sharded", "tenants-rw", "fig9-spilled")
