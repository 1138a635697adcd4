"""RDF terms: IRIs, blank nodes, literals and query variables."""

from __future__ import annotations

import itertools
import re
from datetime import datetime
from typing import Any, Optional

_XSD = "http://www.w3.org/2001/XMLSchema#"

_INTEGER_TYPES = frozenset(
    _XSD + name for name in ("integer", "int", "long", "short", "nonNegativeInteger")
)
_DECIMAL_TYPES = frozenset(_XSD + name for name in ("double", "float", "decimal"))
_NUMERIC_TYPES = _INTEGER_TYPES | _DECIMAL_TYPES
_TEMPORAL_TYPES = frozenset((_XSD + "dateTime", _XSD + "date"))
_BOOLEAN_TYPE = _XSD + "boolean"

_IRI_FORBIDDEN = re.compile(r'[<>"{}|^`\\\x00-\x20]')


class TermError(ValueError):
    """Raised for malformed RDF terms."""


class RDFTerm:
    """Base class of every RDF term."""

    __slots__ = ()

    def n3(self) -> str:
        """N-Triples / SPARQL surface syntax for the term."""
        raise NotImplementedError


class URIRef(RDFTerm, str):
    """An IRI reference.

    Subclasses :class:`str`, so it can be used wherever a plain IRI string
    is expected; equality and hashing are inherited.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "URIRef":
        if _IRI_FORBIDDEN.search(value):
            raise TermError(f"invalid character in IRI: {value!r}")
        return str.__new__(cls, value)

    def n3(self) -> str:
        return f"<{self}>"

    def __eq__(self, other: object) -> bool:
        # Strict typing: a URIRef never equals a BNode/Literal/plain str
        # with the same characters (they are different RDF terms).
        if type(other) is not URIRef:
            return NotImplemented if not isinstance(other, str) else False
        return str.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((URIRef, str(self)))

    def __repr__(self) -> str:
        return f"URIRef({str(self)!r})"

    @property
    def local_name(self) -> str:
        """The fragment/last path segment — handy for display."""
        for sep in ("#", "/", ":"):
            if sep in self:
                return self.rsplit(sep, 1)[1]
        return str(self)


class BNode(RDFTerm, str):
    """A blank node with a process-unique label."""

    __slots__ = ()
    _counter = itertools.count()

    def __new__(cls, label: Optional[str] = None) -> "BNode":
        if label is None:
            label = f"b{next(cls._counter)}"
        if not re.fullmatch(r"[A-Za-z0-9_.\-]+", label):
            raise TermError(f"invalid blank node label: {label!r}")
        return str.__new__(cls, label)

    def n3(self) -> str:
        return f"_:{self}"

    def __eq__(self, other: object) -> bool:
        if type(other) is not BNode:
            return NotImplemented if not isinstance(other, str) else False
        return str.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((BNode, str(self)))

    def __repr__(self) -> str:
        return f"BNode({str(self)!r})"


class Literal(RDFTerm):
    """An RDF literal with optional datatype or language tag.

    Python values may be passed directly; the datatype is inferred
    (``int`` → ``xsd:integer``, ``float`` → ``xsd:double``, ``bool`` →
    ``xsd:boolean``, ``datetime`` → ``xsd:dateTime``).
    """

    __slots__ = ("lexical", "datatype", "language", "_value")

    def __init__(
        self,
        value: Any,
        datatype: Optional[str] = None,
        language: Optional[str] = None,
    ):
        if datatype is not None and language is not None:
            raise TermError("a literal cannot have both datatype and language")
        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or _XSD + "boolean"
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or _XSD + "integer"
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or _XSD + "double"
        elif isinstance(value, datetime):
            lexical = value.isoformat()
            datatype = datatype or _XSD + "dateTime"
        else:
            lexical = str(value)
        self.lexical = lexical
        self.datatype = URIRef(datatype) if datatype else None
        self.language = language.lower() if language else None
        self._value = None

    def to_python(self) -> Any:
        """Best-effort conversion to a native Python value, decoded on
        the first call and kept.  An ill-typed numeric lexical form
        (``"hello"^^xsd:integer``) raises ``ValueError`` on every call
        and caches nothing."""
        value = self._value
        if value is None:  # no lexical form decodes to None
            value = self._value = _decode(self)
        return value

    @property
    def is_numeric(self) -> bool:
        # Compare as a plain string: URIRef equality is strictly typed.
        return self.datatype is not None and str(self.datatype) in _NUMERIC_TYPES

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        # Escape remaining control characters (and Unicode line/paragraph
        # separators) so line-oriented formats stay line-oriented.
        escaped = "".join(
            f"\\u{ord(ch):04X}"
            if ord(ch) < 0x20 or ch in "\x85  "
            else ch
            for ch in escaped
        )
        body = f'"{escaped}"'
        if self.language:
            return f"{body}@{self.language}"
        if self.datatype:
            return f"{body}^^<{self.datatype}>"
        return body

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return (
            self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return hash((self.lexical, self.datatype, self.language))

    def __lt__(self, other: "Literal") -> bool:
        if isinstance(other, Literal) and self.is_numeric and other.is_numeric:
            return self.to_python() < other.to_python()
        if isinstance(other, Literal):
            return self.lexical < other.lexical
        return NotImplemented

    def __repr__(self) -> str:
        if self.datatype:
            return f"Literal({self.lexical!r}, datatype={str(self.datatype)!r})"
        if self.language:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        return f"Literal({self.lexical!r})"

    def __str__(self) -> str:
        return self.lexical


def _decode(literal: Literal) -> Any:
    """The native value of ``literal``'s lexical form under its datatype."""
    if literal.datatype is None:
        return literal.lexical
    dt = str(literal.datatype)
    if dt in _INTEGER_TYPES:
        return int(literal.lexical)
    if dt in _DECIMAL_TYPES:
        return float(literal.lexical)
    if dt == _BOOLEAN_TYPE:
        return literal.lexical.strip().lower() in ("true", "1")
    if dt in _TEMPORAL_TYPES:
        try:
            return datetime.fromisoformat(literal.lexical)
        except ValueError:
            return literal.lexical
    return literal.lexical


class Variable(RDFTerm, str):
    """A SPARQL query variable (``?name``)."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Variable":
        name = name.lstrip("?$")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise TermError(f"invalid variable name: {name!r}")
        return str.__new__(cls, name)

    def n3(self) -> str:
        return f"?{self}"

    def __eq__(self, other: object) -> bool:
        if type(other) is not Variable:
            return NotImplemented if not isinstance(other, str) else False
        return str.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((Variable, str(self)))

    def __repr__(self) -> str:
        return f"Variable({str(self)!r})"
