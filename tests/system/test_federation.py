"""Federation API: peers, data shipping, transport accounting."""

import pytest

from repro.decompose import Strategy
from repro.errors import NetworkError
from repro.system import federation as federation_module
from repro.system.federation import Federation
from repro.workloads import BENCHMARK_QUERY, build_federation
from repro.xmldb.index import StructuralIndex
from repro.xquery.xdm import serialize_sequence


@pytest.fixture
def fed():
    federation = Federation()
    federation.add_peer("p1").store("d.xml", "<a><b>x</b><b>y</b></a>")
    federation.add_peer("p2").store("e.xml", "<r><s/></r>")
    federation.add_peer("local").store("mine.xml", "<m><n/></m>")
    return federation


class TestPeers:
    def test_duplicate_peer_rejected(self, fed):
        with pytest.raises(NetworkError):
            fed.add_peer("p1")

    def test_unknown_peer_rejected(self, fed):
        with pytest.raises(NetworkError):
            fed.peer("nope")

    def test_unknown_document_rejected(self, fed):
        with pytest.raises(NetworkError):
            fed.peer("p1").document("nope.xml")

    def test_store_is_chainable_and_parses(self, fed):
        doc = fed.peer("p1").document("d.xml")
        assert doc.uri == "xrpc://p1/d.xml"


class TestLocalResolution:
    def test_relative_uri_resolves_at_originator(self, fed):
        result = fed.run('doc("mine.xml")/child::m/child::n', at="local",
                         strategy=Strategy.DATA_SHIPPING)
        assert serialize_sequence(result.items) == "<n/>"
        assert result.stats.total_transferred_bytes == 0

    def test_own_xrpc_uri_is_local(self, fed):
        result = fed.run('doc("xrpc://local/mine.xml")/child::m',
                         at="local", strategy=Strategy.DATA_SHIPPING)
        assert result.stats.documents_shipped == 0


class TestDataShipping:
    def test_remote_doc_shipped_and_counted(self, fed):
        result = fed.run('doc("xrpc://p1/d.xml")//b', at="local",
                         strategy=Strategy.DATA_SHIPPING)
        assert len(result.items) == 2
        stats = result.stats
        assert stats.documents_shipped == 1
        assert stats.document_bytes == len("<a><b>x</b><b>y</b></a>")
        assert stats.times.shred > 0

    def test_document_cached_within_run(self, fed):
        query = ('(doc("xrpc://p1/d.xml")//b, '
                 'doc("xrpc://p1/d.xml")//b)')
        result = fed.run(query, at="local",
                         strategy=Strategy.DATA_SHIPPING)
        assert result.stats.documents_shipped == 1

    def test_two_peers_both_shipped(self, fed):
        query = ('(doc("xrpc://p1/d.xml")//b, '
                 'doc("xrpc://p2/e.xml")//s)')
        result = fed.run(query, at="local",
                         strategy=Strategy.DATA_SHIPPING)
        assert result.stats.documents_shipped == 2


class TestShippedDocumentsArriveIndexed:
    def test_warm_data_shipping_builds_no_lazy_index_on_them(
            self, monkeypatch):
        federation = build_federation(0.0025)
        warm = federation.run(BENCHMARK_QUERY, at="local",
                              strategy=Strategy.DATA_SHIPPING)
        parsed, lazily_indexed = [], []
        parse = federation_module.parse_document
        build = StructuralIndex.__init__

        def recording_parse(text, uri=""):
            document = parse(text, uri)
            parsed.append(document)
            return document

        def recording_build(index, document):
            lazily_indexed.append(document)
            build(index, document)

        monkeypatch.setattr(federation_module, "parse_document",
                            recording_parse)
        monkeypatch.setattr(StructuralIndex, "__init__", recording_build)
        result = federation.run(BENCHMARK_QUERY, at="local",
                                strategy=Strategy.DATA_SHIPPING)
        assert (serialize_sequence(result.items)
                == serialize_sequence(warm.items))
        assert result.stats.documents_shipped == len(parsed) == 2
        for document in parsed:
            # The query's path steps ran on the index the parser filled.
            assert document._structural_index is not None
            assert all(document is not other for other in lazily_indexed)


class TestFunctionShipping:
    def test_messages_counted(self, fed):
        result = fed.run('doc("xrpc://p1/d.xml")/child::a/child::b',
                         at="local", strategy=Strategy.BY_FRAGMENT)
        assert result.stats.messages == 2  # request + response
        assert result.stats.rpc_calls == 1
        assert result.stats.documents_shipped == 0

    def test_message_log(self, fed):
        result = fed.run('doc("xrpc://p1/d.xml")/child::a/child::b',
                         at="local", strategy=Strategy.BY_FRAGMENT,
                         keep_message_xml=True)
        (log,) = result.messages
        assert log.dest == "p1"
        assert log.request_bytes == len(log.request_xml.encode())
        assert "<xrpc:query>" in log.request_xml

    def test_remote_and_local_exec_tracked_separately(self, fed):
        result = fed.run('doc("xrpc://p1/d.xml")/child::a/child::b',
                         at="local", strategy=Strategy.BY_FRAGMENT)
        assert result.stats.times.remote_exec > 0
        assert result.stats.times.local_exec > 0

    def test_execute_reuses_decomposition(self, fed):
        from repro.decompose import decompose
        from repro.xquery.parser import parse_query

        decomposition = decompose(
            parse_query('doc("xrpc://p1/d.xml")/child::a/child::b'),
            Strategy.BY_FRAGMENT, local_host="local")
        first = fed.execute(decomposition, at="local")
        second = fed.execute(decomposition, at="local")
        assert serialize_sequence(first.items) == \
            serialize_sequence(second.items)

    def test_unknown_destination_peer_raises(self, fed):
        with pytest.raises(NetworkError):
            fed.run('declare function f() as item()* { 1 };'
                    'execute at {"ghost"} { f() }',
                    at="local", strategy=Strategy.BY_VALUE)


class TestRemoteDataShipping:
    def test_remote_peer_can_fetch_third_party_doc(self, fed):
        # A function executed at p1 opens p2's document: p1 data-ships
        # it from p2 (counted), then evaluates locally.
        query = ('declare function f() as item()* '
                 '{ count(doc("xrpc://p2/e.xml")/child::r/child::s) };'
                 'execute at {"p1"} { f() }')
        result = fed.run(query, at="local", strategy=Strategy.BY_VALUE)
        assert result.items == [1]
        assert result.stats.documents_shipped == 1
