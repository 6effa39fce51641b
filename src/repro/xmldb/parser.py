"""XML text to store: stdlib ``expat`` events driving :class:`DocumentBuilder`.

Expat (C, bundled with CPython) checks well-formedness and decodes
entities, character references and CDATA; this module only forwards
its events. Namespace prefixes are kept as part of the QName (no URI
resolution), matching the paper's prefix-level treatment of names.
Comments and processing instructions outside the root element are
dropped. A DTD is read but never applied: its attribute defaults are
ignored and entity declarations are refused, so text from a peer can
never expand entities. Error offsets are UTF-8 byte offsets.
"""

from __future__ import annotations

from xml.parsers import expat

from repro.errors import XmlParseError
from repro.xmldb.document import Document, DocumentBuilder


def _refuse_entities(*_args) -> None:
    raise XmlParseError("entity declarations and undeclared entity "
                        "references are not supported")


def _parse(text: str, builder: DocumentBuilder) -> None:
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.specified_attributes = True
    start_element = builder.start_element
    attribute = builder.attribute
    end_element = builder.end_element
    depth = 0

    def start(name: str, attributes: list[str]) -> None:
        nonlocal depth
        depth += 1
        start_element(name)
        for index in range(0, len(attributes), 2):
            attribute(attributes[index], attributes[index + 1])

    def end(_name: str) -> None:
        nonlocal depth
        depth -= 1
        end_element()

    def comment(data: str) -> None:
        if depth:
            builder.comment(data)

    def processing_instruction(target: str, data: str) -> None:
        if depth:
            builder.processing_instruction(target, data.strip())

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = builder.text
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


def parse_document(text: str, uri: str = "") -> Document:
    """Parse a full XML document (with document node at ``pre == 0``)."""
    builder = DocumentBuilder(uri)
    builder.start_document()
    _parse(text, builder)
    builder.end_document()
    return builder.finish()


def parse_fragment(text: str, uri: str = "") -> Document:
    """Parse one element as a parentless fragment document."""
    builder = DocumentBuilder(uri)
    _parse(text, builder)
    return builder.finish()
