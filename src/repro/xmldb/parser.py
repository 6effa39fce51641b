"""XML text to store: one ``expat`` pass shreds and indexes.

Expat (C, bundled with CPython) checks well-formedness and decodes
entities, character references and CDATA. Its handlers append straight
to the six pre/size/level columns *and* to the
:class:`~repro.xmldb.index.StructuralIndex` arrays (tag and kind pre
lists, non-attribute ranks, path summary), so a parsed document arrives
with its index installed — the single shred-and-index pass of the
paper's host system. Documents built any other way get the same index
lazily from :func:`~repro.xmldb.index.structural_index`.

Namespace prefixes are kept as part of the QName (no URI resolution),
matching the paper's prefix-level treatment of names. Comments and
processing instructions outside the root element are dropped; adjacent
text merges into one node. A DTD is read but never applied: its
attribute defaults are ignored and entity declarations are refused, so
text from a peer can never expand entities. Error offsets are UTF-8
byte offsets.
"""

from __future__ import annotations

from array import array
from sys import intern
from xml.parsers import expat

from repro.errors import XmlParseError
from repro.xmldb.columns import KIND_TYPECODE, ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.index import StructuralIndex
from repro.xmldb.kernels import pre_array
from repro.xmldb.node import NodeKind

# Plain ints for the per-node appends of the three hot kinds.
_ELEMENT = int(NodeKind.ELEMENT)
_ATTRIBUTE = int(NodeKind.ATTRIBUTE)
_TEXT = int(NodeKind.TEXT)


def _refuse_entities(*_args) -> None:
    raise XmlParseError("entity declarations and undeclared entity "
                        "references are not supported")


def _shred(text: str, uri: str, with_document_node: bool) -> Document:
    kinds = array(KIND_TYPECODE)
    names: list[str] = []
    values: list[str] = []
    sizes = pre_array()
    levels = pre_array()
    parents = pre_array()
    tag_pres: dict[str, array] = {}
    element_pres = pre_array()
    non_attr_pres = pre_array()
    text_pres = pre_array()
    comment_pres = pre_array()
    non_attr_rank = pre_array()
    path_of = pre_array()
    # (parent path id, name) -> (path id, interned name, append to the
    # path's pre list, append to the tag's pre list): one dict probe
    # per element places it in the columns, tag index and path summary.
    path_key: dict[tuple[int, str], tuple] = {}
    path_parent: list[int] = []
    path_tag: list[str] = []
    path_pres: list[array] = []

    # Bound appends: one C call per column per node.
    add_kind = kinds.append
    add_name = names.append
    add_value = values.append
    add_size = sizes.append
    add_level = levels.append
    add_parent = parents.append
    add_element = element_pres.append
    add_non_attr = non_attr_pres.append
    add_text = text_pres.append
    add_rank = non_attr_rank.append
    add_path = path_of.append

    # ``parent`` is the pre of the open node (-1 above a fragment
    # root), ``depth`` the level of its children, ``path`` its
    # path-summary id, ``top`` the depth outside the root element and
    # ``open_text`` the pre of a text node the next text event merges
    # into (-1 when some other event came in between).
    parent = -1
    depth = 0
    path = -1
    open_text = -1

    def leaf(kind: NodeKind, name: str, value: str) -> int:
        pre = len(kinds)
        add_kind(kind)
        add_name(name)
        add_value(value)
        add_size(0)
        add_level(depth)
        add_parent(parent)
        add_non_attr(pre)
        add_rank(len(non_attr_pres))
        add_path(-1)
        return pre

    if with_document_node:
        parent = leaf(NodeKind.DOCUMENT, "", "")
        depth = 1
    top = depth

    def new_path(key: tuple[int, str]) -> tuple:
        parent_path, name = key
        # Interned names make name tests identity comparisons and let
        # every document / tag-index key share one string per tag.
        name = intern(name)
        bucket = tag_pres.get(name)
        if bucket is None:
            tag_pres[name] = bucket = pre_array()
        path_id = len(path_parent)
        path_parent.append(parent_path)
        path_tag.append(name)
        pres = pre_array()
        path_pres.append(pres)
        entry = path_key[key] = (path_id, name, pres.append, bucket.append)
        return entry

    def start(name: str, attributes: list[str]) -> None:
        nonlocal parent, depth, path, open_text
        pre = len(kinds)
        key = (path, name)
        entry = path_key.get(key)
        if entry is None:
            entry = new_path(key)
        path_id, name, add_to_path, add_to_tag = entry
        add_to_path(pre)
        add_to_tag(pre)
        add_kind(_ELEMENT)
        add_name(name)
        add_value("")
        add_size(0)
        add_level(depth)
        add_parent(parent)
        add_element(pre)
        add_non_attr(pre)
        rank = len(non_attr_pres)
        add_rank(rank)
        add_path(path_id)
        parent = pre
        path = path_id
        depth += 1
        open_text = -1
        if attributes:
            pairs = iter(attributes)
            for attribute, value in zip(pairs, pairs):
                add_kind(_ATTRIBUTE)
                add_name(intern(attribute))
                add_value(value)
                add_size(0)
                add_level(depth)
                add_parent(pre)
                add_rank(rank)
                add_path(-1)

    def end(_name: str) -> None:
        nonlocal parent, depth, path, open_text
        sizes[parent] = len(kinds) - parent - 1
        parent = parents[parent]
        path = path_parent[path]
        depth -= 1
        open_text = -1

    def characters(data: str) -> None:
        nonlocal open_text
        if open_text >= 0:
            values[open_text] += data
            return
        # ``leaf`` inlined: text is the most frequent node kind.
        open_text = pre = len(kinds)
        add_kind(_TEXT)
        add_name("")
        add_value(data)
        add_size(0)
        add_level(depth)
        add_parent(parent)
        add_text(pre)
        add_non_attr(pre)
        add_rank(len(non_attr_pres))
        add_path(-1)

    def comment(data: str) -> None:
        nonlocal open_text
        if depth > top:
            open_text = -1
            comment_pres.append(leaf(NodeKind.COMMENT, "", data))

    def processing_instruction(target: str, data: str) -> None:
        nonlocal open_text
        if depth > top:
            open_text = -1
            leaf(NodeKind.PROCESSING_INSTRUCTION, intern(target),
                 data.strip())

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.specified_attributes = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = characters
    parser.CommentHandler = comment
    parser.ProcessingInstructionHandler = processing_instruction
    parser.EntityDeclHandler = _refuse_entities
    parser.SkippedEntityHandler = _refuse_entities
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        offset = parser.ErrorByteIndex
        raise XmlParseError(
            f"{expat.ErrorString(exc.code)} at offset {offset}",
            offset) from None
    except XmlParseError as exc:
        offset = parser.CurrentByteIndex
        raise XmlParseError(f"{exc} at offset {offset}", offset) from None
    if with_document_node:
        sizes[0] = len(kinds) - 1

    document = Document.from_columns(
        uri, ColumnSet(kinds, names, values, sizes, levels, parents))
    document._structural_index = StructuralIndex.from_arrays(
        document, tag_pres, element_pres, non_attr_pres, text_pres,
        comment_pres, non_attr_rank, path_of, path_parent, path_tag,
        path_pres)
    return document


def parse_document(text: str, uri: str = "") -> Document:
    """Parse a full XML document (with document node at ``pre == 0``),
    structural index included."""
    return _shred(text, uri, True)


def parse_fragment(text: str, uri: str = "") -> Document:
    """Parse one element as a parentless fragment document,
    structural index included."""
    return _shred(text, uri, False)
