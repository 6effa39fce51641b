"""Each XRPC message is parsed exactly once on its way in.

The receiver shreds the envelope once and copies fragments and element
copies out of it; nothing in ``repro.xrpc`` re-serialises a received
subtree or parses one again.
"""

import sys

import pytest

import repro.xmldb.parser as parser_mod
import repro.xmldb.serializer as serializer_mod
from repro.decompose import Strategy
from repro.system.federation import Federation

#: One round trip with nodes in both directions: the request ships
#: $bc and $abc, the response ships one of them back.
EARLIER = ("declare function earlier($l as node(), $r as node()) "
           "as node() { if ($l << $r) then $l else $r };\n"
           "let $abc := <a><b><c/></b></a> "
           "let $bc := $abc/child::b "
           'return execute at {"remote"} { earlier($bc, $abc) }')

RECEIVED = {"xrpc:request", "xrpc:response"}


def _rebind(monkeypatch, original, replacement, prefix="repro"):
    """Replace every module-level binding of ``original`` under
    ``prefix`` (callers import the entry points by name)."""
    for name, module in list(sys.modules.items()):
        if name != prefix and not name.startswith(prefix + "."):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attribute, replacement)


@pytest.fixture
def calls(monkeypatch):
    log = {"parse": [], "serialize_received": []}

    def counting(fn):
        def wrapper(text, uri=""):
            log["parse"].append((fn.__name__, uri))
            return fn(text, uri)
        return wrapper

    for fn in (parser_mod.parse_document, parser_mod.parse_fragment):
        _rebind(monkeypatch, fn, counting(fn))

    serialize_node = serializer_mod.serialize_node

    def watched(node):
        if node.doc.uri in RECEIVED:
            log["serialize_received"].append(node)
        return serialize_node(node)

    _rebind(monkeypatch, serialize_node, watched, prefix="repro.xrpc")
    return log


@pytest.mark.parametrize("strategy, carrier", [
    (Strategy.BY_FRAGMENT, "<xrpc:fragment>"),
    (Strategy.BY_VALUE, "<xrpc:element><"),
])
def test_one_parse_per_message(calls, strategy, carrier):
    fed = Federation()
    fed.add_peer("remote")
    fed.add_peer("local")
    result = fed.run(EARLIER, at="local", strategy=strategy,
                     keep_message_xml=True)
    assert len(result.items) == 1
    (log,) = result.messages
    assert carrier in log.request_xml and carrier in log.response_xml
    assert calls["parse"] == [("parse_document", "xrpc:request"),
                              ("parse_document", "xrpc:response")]
    assert calls["serialize_received"] == []
