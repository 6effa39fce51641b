"""XML storage substrate: a pre/size/level encoded node store.

This package implements the XML data model layer the paper's host
system (MonetDB/XQuery) provides natively: documents stored as arrays
in document order with O(1) node identity, document-order comparison
and ancestry tests, the 13 XPath axes, a parser that shreds and
indexes in one pass over stdlib ``expat`` events (C, no dependency), a
serialiser, XQuery ``deep-equal``, and the paper's runtime XML
projection (Algorithm 1).

Public entry points:

* :class:`~repro.xmldb.document.Document` — an immutable shredded
  document (or parentless fragment).
* :class:`~repro.xmldb.node.Node` — a lightweight node handle.
* :func:`~repro.xmldb.parser.parse_document` /
  :func:`~repro.xmldb.parser.parse_fragment` — text to store, with
  the :class:`~repro.xmldb.index.StructuralIndex` filled in the same
  pass (other documents build it lazily on first use). An XRPC
  message is parsed once; its fragments are copied out of the parsed
  envelope with :func:`~repro.xmldb.document.build_fragment_from_nodes`
  (single-shred receive), never serialised and parsed again.
* :func:`~repro.xmldb.serializer.serialize` — store to text.
* :mod:`~repro.xmldb.axes` — axis navigation.
* :func:`~repro.xmldb.compare.deep_equal` — XQuery fn:deep-equal.
* :func:`~repro.xmldb.projection.project` — Algorithm 1.
* :class:`~repro.xmldb.columns.ColumnSet` /
  :mod:`~repro.xmldb.kernels` — the typed columnar core and its batch
  kernels.
* :func:`~repro.xmldb.pool.freeze_to` /
  :class:`~repro.xmldb.pool.ColumnStore` /
  :func:`~repro.xmldb.pool.open_document` — the mmap spill format and
  buffer pool (larger-than-memory serving).
"""

from repro.xmldb.node import Node, NodeKind
from repro.xmldb.columns import ColumnSet, NameTable
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.pool import (
    BufferPool, ColumnStore, freeze_to, open_document,
)
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize, serialize_node
from repro.xmldb.compare import deep_equal, document_order_key, is_same_node
from repro.xmldb.projection import project, ProjectionResult
from repro.xmldb.values import ValueIndex, value_index

__all__ = [
    "Node",
    "NodeKind",
    "ColumnSet",
    "NameTable",
    "BufferPool",
    "ColumnStore",
    "freeze_to",
    "open_document",
    "Document",
    "DocumentBuilder",
    "parse_document",
    "parse_fragment",
    "serialize",
    "serialize_node",
    "deep_equal",
    "document_order_key",
    "is_same_node",
    "project",
    "ProjectionResult",
    "ValueIndex",
    "value_index",
]
