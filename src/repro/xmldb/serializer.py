"""Serialise nodes back to XML text, with per-document memoization.

Serialisation is the marshalling workhorse: pass-by-value copies a
parameter node by serialising its subtree into the message, and the
message byte counts that drive the paper's bandwidth experiments
(Figure 7) are the lengths of these strings.

The serializer is *incremental* and *memoized*: the first full-document
serialisation records, for every node, the span its subtree occupies in
the text, so later subtree requests (bulk-RPC fragments, by-value
copies, shard bodies) are string slices instead of tree re-walks. The
spans also hand the planner's :class:`~repro.planner.stats.StatsCatalog`
exact per-subtree byte figures for free. Caches ride on the
:class:`~repro.xmldb.document.Document` object keyed by its cache
epoch — a ``Peer.store`` swaps the document object and any in-place
mutation must call ``Document.invalidate_caches``, so stale text is
never served.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.xmldb.document import Document
from repro.xmldb.node import Node, NodeKind


def escape_text(value: str) -> str:
    """Escape character data content. ``\\r`` is written as a character
    reference: a conformant reader turns a raw one into ``\\n``."""
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#13;"))


def escape_attribute(value: str) -> str:
    """Escape an attribute value (double-quote delimited). Tab, newline
    and carriage return are written as character references, which
    survive the attribute-value normalization of a conformant reader."""
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace('"', "&quot;").replace("\n", "&#10;")
            .replace("\t", "&#9;").replace("\r", "&#13;"))


class SerializedTree:
    """Memoized serialisation state of one document.

    ``full``/``starts``/``ends`` hold the whole-document text and the
    per-pre subtree spans (attribute spans cover the escaped value
    between its quotes, matching ``serialize_node`` on an attribute);
    ``memo`` caches subtree strings requested before (or independent
    of) a full serialisation, LRU-bounded by the document's
    ``memo_cache_cap`` so span-less fragment churn stays bounded.
    """

    __slots__ = ("epoch", "full", "starts", "ends", "memo",
                 "memo_lock", "byte_length")

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.full: str | None = None
        self.starts: list[int] | None = None
        self.ends: list[int] | None = None
        self.memo: OrderedDict[int, str] = OrderedDict()
        # Documents are shared across concurrent queries; the LRU's
        # structural mutations (move_to_end / eviction) need the lock.
        self.memo_lock = threading.Lock()
        self.byte_length: int | None = None


def _tree(doc: Document) -> SerializedTree:
    cache = doc._ser_cache
    if cache is None or cache.epoch != doc.epoch:
        cache = SerializedTree(doc.epoch)
        doc._ser_cache = cache
    return cache


def serialize(doc: Document) -> str:
    """Serialise a whole document (or fragment) to a string.

    The text and every node's span in it are memoized on the document;
    repeated calls (statistics, shipping, fragment slicing) are free.
    """
    cache = _tree(doc)
    if cache.full is None:
        _build_full(doc, cache)
    assert cache.full is not None
    return cache.full


def serialize_node(node: Node) -> str:
    """Serialise one node (and its subtree) to a string.

    Attribute nodes serialise to their *value* (standalone attributes
    have no XML syntax; XRPC wraps them separately in the message
    layer). Served as a slice of the memoized document text when one
    exists (slices are cheap enough not to be worth pinning a second
    copy of the document in the memo), from the subtree memo otherwise.
    """
    doc = node.doc
    pre = node.pre
    if pre == 0:
        return serialize(doc)
    cache = _tree(doc)
    if cache.full is not None:
        assert cache.starts is not None and cache.ends is not None
        return cache.full[cache.starts[pre]:cache.ends[pre]]
    with cache.memo_lock:
        cached = cache.memo.get(pre)
        if cached is not None:
            cache.memo.move_to_end(pre)
            return cached
    out: list[str] = []
    _serialize_into(doc, pre, out)
    text = "".join(out)
    with cache.memo_lock:
        cache.memo[pre] = text
        cap = max(1, doc.memo_cache_cap)
        while len(cache.memo) > cap:
            cache.memo.popitem(last=False)
    return text


def cached_serialization(doc: Document) -> str | None:
    """The memoized full text if a current one exists, else None —
    a lock-free fast path for callers that serialise under a lock."""
    cache = doc._ser_cache
    if cache is None or cache.epoch != doc.epoch:
        return None
    return cache.full


def serialized_byte_length(doc: Document) -> int:
    """UTF-8 length of the serialised document, memoized with it."""
    cache = _tree(doc)
    if cache.byte_length is None:
        cache.byte_length = len(serialize(doc).encode())
    return cache.byte_length


def subtree_spans(doc: Document) -> tuple[list[int], list[int]] | None:
    """Per-pre ``(starts, ends)`` character spans of the memoized full
    serialisation, or None when no full serialisation happened yet.
    ``ends[p] - starts[p]`` is the exact serialised subtree length —
    the statistics catalog reads these instead of re-walking."""
    cache = doc._ser_cache
    if cache is None or cache.epoch != doc.epoch or cache.full is None:
        return None
    assert cache.starts is not None and cache.ends is not None
    return cache.starts, cache.ends


# ---------------------------------------------------------------------------
# The document-order walk
# ---------------------------------------------------------------------------


def _build_full(doc: Document, cache: SerializedTree) -> None:
    starts = [0] * doc.count
    ends = [0] * doc.count
    parts: list[str] = []
    _serialize_into(doc, 0, parts, starts, ends)
    cache.full = "".join(parts)
    cache.starts = starts
    cache.ends = ends


def _serialize_into(doc: Document, root: int, parts: list[str],
                    starts: list[int] | None = None,
                    ends: list[int] | None = None) -> None:
    """Append the text of ``root``'s subtree to ``parts``.

    One scan over the subtree's pre ranks with an explicit stack of
    open elements, so nesting depth is bounded by memory, not by the
    interpreter's recursion limit. With ``starts``/``ends`` given, also
    record every node's character span; an attribute's span covers
    its escaped value between the quotes, so a slice equals
    ``serialize_node`` on the attribute.
    """
    kinds = doc.kinds
    names = doc.names
    values = doc.values
    sizes = doc.sizes
    if kinds[root] == NodeKind.ATTRIBUTE:
        parts.append(escape_attribute(values[root]))
        return
    record = starts is not None and ends is not None
    append = parts.append
    length = 0
    # (pre, last pre of its subtree, end tag) of every open element.
    open_nodes: list[tuple[int, int, str]] = []
    pre = root
    stop = root + sizes[root]
    while True:
        while open_nodes and open_nodes[-1][1] < pre:
            owner, _last, tag = open_nodes.pop()
            append(tag)
            length += len(tag)
            if record:
                ends[owner] = length
        if pre > stop:
            return
        if record:
            starts[pre] = length
        kind = kinds[pre]
        if kind == NodeKind.ELEMENT:
            element = pre
            name = names[pre]
            last = pre + sizes[pre]
            text = "<" + name
            append(text)
            length += len(text)
            pre += 1
            while pre <= last and kinds[pre] == NodeKind.ATTRIBUTE:
                text = f' {names[pre]}="'
                append(text)
                length += len(text)
                if record:
                    starts[pre] = length
                text = escape_attribute(values[pre])
                append(text)
                length += len(text)
                if record:
                    ends[pre] = length
                append('"')
                length += 1
                pre += 1
            if pre > last:
                append("/>")
                length += 2
                if record:
                    ends[element] = length
            else:
                append(">")
                length += 1
                open_nodes.append((element, last, f"</{name}>"))
            continue
        if kind == NodeKind.DOCUMENT:
            open_nodes.append((pre, stop, ""))
            pre += 1
            continue
        if kind == NodeKind.TEXT:
            text = escape_text(values[pre])
        elif kind == NodeKind.COMMENT:
            text = f"<!--{values[pre]}-->"
        else:  # processing instruction
            text = f"<?{names[pre]} {values[pre]}?>"
        append(text)
        length += len(text)
        if record:
            ends[pre] = length
        pre += 1
