"""DNS messages.

A :class:`Message` models the RFC 1035 message: header (ID, flags,
rcode), one question, and answer/authority/additional sections of
:class:`~repro.dnscore.rrset.RRSet`.  EDNS options ride in
``msg.edns_options`` (conceptually the OPT pseudo-record in the
additional section; the wire codec serialises them as such).

Messages are mutable while being built and treated as immutable once
sent; helpers construct the response shapes the servers need (answers,
referrals, negative answers, error responses).
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import FrozenInstanceError
from typing import List, Optional, cast

from repro.dnscore.edns import EdnsOption, find_option
from repro.dnscore.name import Name
from repro.dnscore.rdata import Opcode, RCode, RRType
from repro.dnscore.rrset import RRSet

_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Monotone message IDs; deterministic across runs.

    Simulation-internal IDs use a 31-bit space so that in-flight-table
    keys never collide even in very long runs; the wire codec truncates
    to the protocol's 16 bits on encode.
    """
    return next(_message_ids) & 0x7FFFFFFF


class Flags(enum.IntFlag):
    """Header flag bits (QR/AA/TC/RD/RA in their RFC 1035 positions)."""

    QR = 0x8000
    AA = 0x0400
    TC = 0x0200
    RD = 0x0100
    RA = 0x0080


#: integer masks and flag sets for the hot-path header tests below
_QR = int(Flags.QR)
_TC = int(Flags.TC)
_RD = int(Flags.RD)
_NO_FLAGS = Flags(0)
_QR_RD_RA = Flags.QR | Flags.RD | Flags.RA

_set = object.__setattr__

#: Message's fields in constructor order (equality and repr follow it)
_MESSAGE_FIELDS = (
    "question", "id", "opcode", "flags", "rcode", "answers", "authority",
    "additional", "edns_options", "via_tcp",
)
_message_values = operator.attrgetter(*_MESSAGE_FIELDS)


class Question:
    """The question section entry: (QNAME, QTYPE); IN class implied.

    Immutable and hashable (it keys caches and in-flight tables), with
    the hash computed once.
    """

    __slots__ = ("name", "rrtype", "_hash")

    name: Name
    rrtype: RRType

    def __init__(self, name: Name, rrtype: RRType) -> None:
        _set(self, "name", name)
        _set(self, "rrtype", rrtype)
        _set(self, "_hash", hash((name, rrtype)))

    def __setattr__(self, attr: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        other = cast(Question, other)
        return self.name == other.name and self.rrtype == other.rrtype

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Question, (self.name, self.rrtype))

    def __repr__(self) -> str:
        return f"Question(name={self.name!r}, rrtype={self.rrtype!r})"

    def __str__(self) -> str:
        return f"{self.name} {self.rrtype}"

    def wire_length(self) -> int:
        return self.name.wire_length() + 4


class Message:
    """A DNS query or response."""

    __slots__ = _MESSAGE_FIELDS

    #: unhashable: messages are mutable while being built
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        question: Question,
        id: Optional[int] = None,
        opcode: Opcode = Opcode.QUERY,
        flags: Flags = _NO_FLAGS,
        rcode: RCode = RCode.NOERROR,
        answers: Optional[List[RRSet]] = None,
        authority: Optional[List[RRSet]] = None,
        additional: Optional[List[RRSet]] = None,
        edns_options: Optional[List[EdnsOption]] = None,
        via_tcp: bool = False,
    ) -> None:
        self.question = question
        self.id: int = next_message_id() if id is None else id
        self.opcode = opcode
        self.flags = flags
        self.rcode = rcode
        self.answers: List[RRSet] = [] if answers is None else answers
        self.authority: List[RRSet] = [] if authority is None else authority
        self.additional: List[RRSet] = [] if additional is None else additional
        self.edns_options: List[EdnsOption] = [] if edns_options is None else edns_options
        #: transport marker: True = sent over a reliable stream (no size
        #: limit); False = datagram, subject to EDNS-size truncation
        self.via_tcp = via_tcp

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _message_values(self) == _message_values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _MESSAGE_FIELDS)
        return f"Message({fields})"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def query(
        cls,
        name: Name,
        rrtype: RRType,
        recursion_desired: bool = True,
        msg_id: Optional[int] = None,
    ) -> "Message":
        flags = Flags.RD if recursion_desired else _NO_FLAGS
        return cls(Question(name, rrtype), msg_id, flags=flags)

    def make_response(self, rcode: RCode = RCode.NOERROR) -> "Message":
        """A response skeleton echoing this query's ID and question."""
        flags = _QR_RD_RA if int(self.flags) & _RD else Flags.QR
        return Message(self.question, self.id, flags=flags, rcode=rcode)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def is_response(self) -> bool:
        return bool(int(self.flags) & _QR)

    @property
    def is_query(self) -> bool:
        return not self.is_response

    @property
    def is_truncated(self) -> bool:
        return bool(int(self.flags) & _TC)

    def truncate(self) -> "Message":
        """A TC-flagged copy with all record sections dropped, as a UDP
        responder sends when the full answer exceeds the payload size
        (RFC 1035 / RFC 6891); the client retries over TCP."""
        return Message(
            question=self.question,
            id=self.id,
            opcode=self.opcode,
            flags=self.flags | Flags.TC,
            rcode=self.rcode,
            edns_options=list(self.edns_options),
        )

    @property
    def is_referral(self) -> bool:
        """A NOERROR response with no answer but NS records in authority
        (a delegation pointing the resolver at a child zone)."""
        return (
            self.is_response
            and self.rcode == RCode.NOERROR
            and not self.answers
            and any(rrset.rrtype == RRType.NS for rrset in self.authority)
        )

    @property
    def is_nodata(self) -> bool:
        """NOERROR, empty answer, no delegation: the name exists but has
        no records of the queried type."""
        return (
            self.is_response
            and self.rcode == RCode.NOERROR
            and not self.answers
            and not self.is_referral
        )

    def answer_rrset(self, rrtype: Optional[RRType] = None) -> Optional[RRSet]:
        """First answer RRset, optionally filtered by type."""
        for rrset in self.answers:
            if rrtype is None or rrset.rrtype == rrtype:
                return rrset
        return None

    def find_edns(self, code: int) -> Optional[EdnsOption]:
        return find_option(self.edns_options, code)

    def wire_length(self) -> int:
        """Approximate uncompressed message size (for transport stats)."""
        # 12-octet header, QNAME, then QTYPE and QCLASS
        size = 16 + self.question.name.wire_length()
        if self.answers:
            size += sum(rrset.wire_length() for rrset in self.answers)
        if self.authority:
            size += sum(rrset.wire_length() for rrset in self.authority)
        if self.additional:
            size += sum(rrset.wire_length() for rrset in self.additional)
        if self.edns_options:
            size += 11 + sum(opt.wire_length() for opt in self.edns_options)
        return size

    def section_counts(self) -> str:
        return (
            f"an={len(self.answers)} au={len(self.authority)} ad={len(self.additional)}"
        )

    def __str__(self) -> str:
        kind = "response" if self.is_response else "query"
        return f"<{kind} id={self.id} {self.question} {self.rcode} {self.section_counts()}>"
