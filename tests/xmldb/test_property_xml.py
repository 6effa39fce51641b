"""Property-based tests on the XML store (hypothesis).

Invariants checked on randomly generated trees:

* parse(serialize(doc)) is deep-equal to doc (round-trip);
* the pre/size/level encoding is self-consistent;
* parent/child are inverse axes;
* ancestor interval containment matches the axis walk;
* following/preceding/ancestor-or-self/descendant-or-self partition
  the non-attribute nodes of a document;
* the structural index the parser fills in its one pass equals the
  lazy build from the columns, also after ``invalidate_caches()``.
"""

from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmark import generate_pair
from repro.xmldb import axes
from repro.xmldb.compare import deep_equal, sort_document_order
from repro.xmldb.document import DocumentBuilder
from repro.xmldb.index import StructuralIndex, structural_index
from repro.xmldb.node import NodeKind
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize, serialize_node

_names = st.sampled_from(["a", "b", "c", "data", "x1", "n-s.t"])
_texts = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" <>&\"'\n\t\r"),
    min_size=1, max_size=12)


@st.composite
def xml_trees(draw, depth=3):
    """Build a random fragment document directly with the builder."""
    builder = DocumentBuilder("prop.xml")

    def element(level: int) -> None:
        builder.start_element(draw(_names))
        for index in range(draw(st.integers(0, 2))):
            builder.attribute(f"at{index}", draw(_texts))
        for _ in range(draw(st.integers(0, 3 if level < depth else 0))):
            if draw(st.booleans()):
                element(level + 1)
            else:
                builder.text(draw(_texts))

        builder.end_element()

    element(0)
    return builder.finish()


@given(xml_trees())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_roundtrip(doc):
    text = serialize_node(doc.root)
    reparsed = parse_fragment(text)
    assert deep_equal(doc.root, reparsed.root)
    assert serialize_node(reparsed.root) == text


@given(xml_trees())
@settings(max_examples=60, deadline=None)
def test_pre_size_level_consistency(doc):
    for pre in range(len(doc)):
        parent = doc.parents[pre]
        if parent < 0:
            assert doc.levels[pre] == 0
        else:
            assert doc.levels[pre] == doc.levels[parent] + 1
            assert parent < pre <= parent + doc.sizes[parent]
        # size covers exactly the contiguous subtree
        end = pre + doc.sizes[pre]
        assert end < len(doc)
        if end + 1 < len(doc):
            assert doc.levels[end + 1] <= doc.levels[pre]


@given(xml_trees())
@settings(max_examples=60, deadline=None)
def test_parent_child_inverse(doc):
    for node in doc.nodes():
        for child in axes.child(node):
            assert child.parent() == node
        for attr in axes.attribute(node):
            assert attr.parent() == node


@given(xml_trees())
@settings(max_examples=60, deadline=None)
def test_ancestor_matches_interval_test(doc):
    nodes = list(doc.nodes())
    for node in nodes:
        ancestors_by_axis = set(axes.ancestor(node))
        for other in nodes:
            if other.kind == NodeKind.ATTRIBUTE:
                continue
            expected = other.is_ancestor_of(node)
            assert (other in ancestors_by_axis) == expected


@given(xml_trees())
@settings(max_examples=40, deadline=None)
def test_axes_partition_document(doc):
    """self + ancestors + descendants + preceding + following covers
    every non-attribute node exactly once."""
    all_nodes = [n for n in doc.nodes() if n.kind != NodeKind.ATTRIBUTE]
    for node in all_nodes:
        if node.kind == NodeKind.ATTRIBUTE:
            continue
        parts = (
            [node]
            + list(axes.ancestor(node))
            + list(axes.descendant(node))
            + list(axes.preceding(node))
            + list(axes.following(node))
        )
        assert sorted(parts, key=lambda n: n.pre) == all_nodes


@given(xml_trees(), xml_trees())
@settings(max_examples=40, deadline=None)
def test_document_order_total(left, right):
    nodes = list(left.nodes()) + list(right.nodes())
    ordered = sort_document_order(nodes)
    keys = [n.order_key() for n in ordered]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# -- one-pass index == lazy build ---------------------------------------------

#: Free of ``-``, ``?`` and ``]`` so it can sit in comments, PIs and
#: CDATA sections verbatim.
_words = st.text(alphabet="ab <>&\"'\n\t\r", min_size=1, max_size=6)


@st.composite
def _misc(draw):
    """A comment or processing instruction."""
    if draw(st.booleans()):
        return f"<!--{draw(_words)}-->"
    return f"<?pi {draw(_words)}?>"


@st.composite
def _content(draw, depth):
    """One piece of element content. Consecutive text pieces (plain,
    CDATA, character references) merge into one text node."""
    choice = draw(st.integers(0, 5 if depth < 3 else 4))
    word = draw(_words)
    if choice == 0:
        return escape(word)
    if choice == 1:
        return f"<![CDATA[{word}]]>"
    if choice == 2:
        return "&#65;&amp;"
    if choice in (3, 4):
        return draw(_misc())
    return draw(_elements(depth + 1))


@st.composite
def _elements(draw, depth=0):
    name = draw(_names)
    attributes = "".join(
        f" at{index}={quoteattr(draw(_words))}"
        for index in range(draw(st.integers(0, 2))))
    content = "".join(draw(st.lists(_content(depth), max_size=4)))
    return f"<{name}{attributes}>{content}</{name}>"


@st.composite
def xml_texts(draw):
    """Markup with comments and PIs inside and outside the root."""
    before = "".join(draw(st.lists(_misc(), max_size=2)))
    after = "".join(draw(st.lists(_misc(), max_size=2)))
    return before + draw(_elements()) + after


_INDEX_FIELDS = tuple(field for field in StructuralIndex.__slots__
                      if field not in ("doc", "epoch"))


def _assert_same_index(index, expected):
    for field in _INDEX_FIELDS:
        assert getattr(index, field) == getattr(expected, field), field
    assert list(index.tag_pres) == list(expected.tag_pres)


def _assert_parsed_index_equals_lazy_build(doc):
    installed = doc._structural_index
    assert installed is not None and installed.doc is doc
    assert structural_index(doc) is installed
    _assert_same_index(installed, StructuralIndex(doc))
    doc.invalidate_caches()
    rebuilt = structural_index(doc)
    assert rebuilt is not installed and rebuilt.epoch == doc.epoch
    _assert_same_index(rebuilt, installed)


@given(xml_texts())
@settings(max_examples=150, deadline=None)
def test_parsed_index_equals_lazy_build(text):
    _assert_parsed_index_equals_lazy_build(parse_document(text))
    _assert_parsed_index_equals_lazy_build(parse_fragment(text))


@pytest.fixture(scope="module")
def xmark_texts():
    return [serialize(doc) for doc in generate_pair(0.08)]


def test_parsed_index_equals_lazy_build_on_xmark(xmark_texts):
    for text in xmark_texts:
        document = parse_document(text)
        root = serialize_node(document.node(1))  # the root element
        _assert_parsed_index_equals_lazy_build(document)
        _assert_parsed_index_equals_lazy_build(parse_fragment(root))
