"""DNS message and EDNS option tests."""

import copy

import pytest

from repro.dnscore.edns import (
    ClientAttribution,
    EdnsOption,
    OptionCode,
    find_option,
    remove_options,
)
from repro.dnscore.errors import WireDecodeError
from repro.dnscore.message import Flags, Message, Question
from repro.dnscore.name import Name
from repro.dnscore.rdata import AData, NSData, Opcode, RCode, RRType
from repro.dnscore.rrset import ResourceRecord, RRSet

QNAME = Name.from_text("www.example.com.")


class TestMessage:
    def test_query_construction(self):
        q = Message.query(QNAME, RRType.A)
        assert q.is_query
        assert not q.is_response
        assert q.flags & Flags.RD
        assert q.question == Question(QNAME, RRType.A)

    def test_query_without_rd(self):
        q = Message.query(QNAME, RRType.A, recursion_desired=False)
        assert not (q.flags & Flags.RD)

    def test_unique_ids(self):
        ids = {Message.query(QNAME, RRType.A).id for _ in range(100)}
        assert len(ids) == 100

    def test_make_response_echoes_id_and_question(self):
        q = Message.query(QNAME, RRType.A)
        r = q.make_response(RCode.NXDOMAIN)
        assert r.id == q.id
        assert r.question == q.question
        assert r.is_response
        assert r.rcode == RCode.NXDOMAIN
        assert r.flags & Flags.RA  # RD was set, RA reflected

    def test_referral_classification(self):
        q = Message.query(QNAME, RRType.A)
        r = q.make_response()
        ns = RRSet.of(ResourceRecord(Name.from_text("example.com."), 300,
                                     NSData(Name.from_text("ns1.example.com."))))
        r.authority.append(ns)
        assert r.is_referral
        assert not r.is_nodata

    def test_nodata_classification(self):
        r = Message.query(QNAME, RRType.AAAA).make_response()
        assert r.is_nodata
        assert not r.is_referral

    def test_answer_not_nodata(self):
        r = Message.query(QNAME, RRType.A).make_response()
        r.answers.append(RRSet.of(ResourceRecord(QNAME, 60, AData("1.2.3.4"))))
        assert not r.is_nodata
        assert r.answer_rrset().rrtype == RRType.A
        assert r.answer_rrset(RRType.NS) is None

    def test_wire_length_grows_with_content(self):
        q = Message.query(QNAME, RRType.A)
        base = q.wire_length()
        q.answers.append(RRSet.of(ResourceRecord(QNAME, 60, AData("1.2.3.4"))))
        assert q.wire_length() > base


class TestClientAttribution:
    def test_roundtrip(self):
        attr = ClientAttribution(client="10.1.2.3", port=5353, request_id=987654)
        decoded = ClientAttribution.decode(attr.encode())
        assert decoded == attr
        assert decoded.key == ("10.1.2.3", 5353, 987654)

    def test_large_request_id(self):
        """Simulation IDs are 31-bit; the option must carry them."""
        attr = ClientAttribution(client="10.0.0.1", port=0, request_id=2**30 + 5)
        assert ClientAttribution.decode(attr.encode()).request_id == 2**30 + 5

    def test_truncated_payload_rejected(self):
        with pytest.raises(WireDecodeError):
            ClientAttribution.decode(EdnsOption(OptionCode.CLIENT_ATTRIBUTION, b"\x00\x01"))

    def test_truncated_address_rejected(self):
        attr = ClientAttribution(client="10.1.2.3", port=1, request_id=2)
        option = attr.encode()
        with pytest.raises(WireDecodeError):
            ClientAttribution.decode(EdnsOption(option.code, option.payload[:-2]))


class TestOptionHelpers:
    def test_find_option(self):
        options = [EdnsOption(1, b"a"), EdnsOption(2, b"b")]
        assert find_option(options, 2).payload == b"b"
        assert find_option(options, 3) is None

    def test_remove_options(self):
        options = [EdnsOption(1, b"a"), EdnsOption(2, b"b"), EdnsOption(1, b"c")]
        remaining = remove_options(options, 1)
        assert [o.code for o in remaining] == [2]

    def test_message_find_edns(self):
        q = Message.query(QNAME, RRType.A)
        q.edns_options.append(EdnsOption(9, b"zz"))
        assert q.find_edns(9).payload == b"zz"
        assert q.find_edns(10) is None


def _reference_wire_length(msg):
    """The section-sum formula Message.wire_length must keep matching."""
    size = 12 + msg.question.wire_length()
    for section in (msg.answers, msg.authority, msg.additional):
        size += sum(rrset.wire_length() for rrset in section)
    if msg.edns_options:
        size += 11 + sum(opt.wire_length() for opt in msg.edns_options)
    return size


def _full_response():
    r = Message.query(QNAME, RRType.A).make_response()
    r.answers.append(RRSet.of(ResourceRecord(QNAME, 60, AData("1.2.3.4")),
                              ResourceRecord(QNAME, 60, AData("1.2.3.5"))))
    ns_name = Name.from_text("ns1.example.com.")
    r.authority.append(RRSet.of(ResourceRecord(Name.from_text("example.com."), 300, NSData(ns_name))))
    r.additional.append(RRSet.of(ResourceRecord(ns_name, 300, AData("10.0.0.53"))))
    r.edns_options.append(ClientAttribution(client="10.1.2.3", port=5353, request_id=7).encode())
    r.edns_options.append(EdnsOption(9, b"zz"))
    return r


class TestWireLength:
    def test_bare_query(self):
        q = Message.query(QNAME, RRType.A)
        assert q.wire_length() == _reference_wire_length(q) == 12 + 17 + 4

    def test_every_section_and_edns(self):
        r = _full_response()
        assert r.answers and r.authority and r.additional and r.edns_options
        assert r.wire_length() == _reference_wire_length(r)

    def test_each_section_alone(self):
        full = _full_response()
        for section in ("answers", "authority", "additional", "edns_options"):
            msg = Message.query(Name.from_text("a.b.example.com."), RRType.NS).make_response()
            getattr(msg, section).extend(getattr(full, section))
            assert msg.wire_length() == _reference_wire_length(msg), section


class TestSlottedRecords:
    def test_message_has_no_instance_dict(self):
        assert not hasattr(Message.query(QNAME, RRType.A), "__dict__")
        assert not hasattr(Question(QNAME, RRType.A), "__dict__")

    def test_message_equality_is_field_wise(self):
        a = Message.query(QNAME, RRType.A, msg_id=11)
        b = Message.query(Name.from_text("WWW.example.com"), RRType.A, msg_id=11)
        assert a == b
        b.answers.append(RRSet.of(ResourceRecord(QNAME, 60, AData("1.2.3.4"))))
        assert a != b
        assert Message.query(QNAME, RRType.A, msg_id=12) != a
        assert Message.query(QNAME, RRType.A, msg_id=11, recursion_desired=False) != a
        assert a != "not a message"

    def test_message_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(Message.query(QNAME, RRType.A))

    def test_keyword_construction_as_the_wire_decoder_does(self):
        msg = Message(
            question=Question(QNAME, RRType.A),
            id=77,
            opcode=Opcode.QUERY,
            flags=Flags(Flags.QR | Flags.AA),
            rcode=RCode.NXDOMAIN,
        )
        assert (msg.id, msg.rcode, msg.via_tcp) == (77, RCode.NXDOMAIN, False)
        assert msg.is_response and not msg.is_truncated
        assert msg.answers == msg.authority == msg.additional == msg.edns_options == []
        other = Message(question=msg.question)
        other.answers.append(RRSet.of(ResourceRecord(QNAME, 60, AData("1.2.3.4"))))
        assert msg.answers == []  # section lists are never shared
        assert other.id != msg.id and other.flags == Flags(0)

    def test_message_repr_lists_every_field(self):
        msg = Message.query(QNAME, RRType.AAAA, msg_id=5).make_response()
        assert repr(msg) == (
            "Message(question=Question(name=Name('www.example.com.'), rrtype=<RRType.AAAA: 28>), "
            "id=5, opcode=<Opcode.QUERY: 0>, flags=<Flags.QR|RD|RA: 33152>, "
            "rcode=<RCode.NOERROR: 0>, answers=[], authority=[], additional=[], "
            "edns_options=[], via_tcp=False)"
        )

    def test_make_response_flags(self):
        rd = Message.query(QNAME, RRType.A).make_response()
        assert rd.flags == Flags.QR | Flags.RD | Flags.RA
        assert type(rd.flags) is Flags
        no_rd = Message.query(QNAME, RRType.A, recursion_desired=False).make_response()
        assert no_rd.flags == Flags.QR
        assert no_rd.is_response and not no_rd.is_truncated
        assert no_rd.truncate().is_truncated

    def test_question_is_a_dict_key(self):
        table = {Question(QNAME, RRType.A): "a"}
        same = Question(Name.from_text("www.EXAMPLE.com."), RRType.A)
        assert table[same] == "a"
        assert Question(QNAME, RRType.AAAA) not in table
        assert hash(same) == hash((QNAME, RRType.A))

    def test_question_text_is_unchanged(self):
        question = Question(QNAME, RRType.AAAA)
        assert str(question) == "www.example.com. AAAA"
        assert repr(question) == "Question(name=Name('www.example.com.'), rrtype=<RRType.AAAA: 28>)"

    def test_question_is_immutable(self):
        question = Question(QNAME, RRType.A)
        with pytest.raises(AttributeError):
            question.rrtype = RRType.AAAA
        with pytest.raises(AttributeError):
            del question.name
        assert question.rrtype == RRType.A
        assert copy.copy(question) == question
