"""Recursive-descent stSPARQL parser (queries and updates)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdf.namespace import RDF, WELL_KNOWN_PREFIXES
from repro.rdf.term import BNode, Literal, URIRef, Variable
from repro.strabon.stsparql import algebra as alg
from repro.strabon.stsparql.errors import StSPARQLSyntaxError
from repro.strabon.stsparql.lexer import Token, tokenize

_XSD = "http://www.w3.org/2001/XMLSchema#"


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0
        self.prefixes: Dict[str, str] = {
            k: str(v) for k, v in WELL_KNOWN_PREFIXES.items()
        }
        self.base = ""
        self._bnode_count = 0

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value in words

    def accept_keyword(self, *words: str) -> Optional[str]:
        if self.at_keyword(*words):
            return self.next().value
        return None

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "keyword" or tok.value != word:
            raise StSPARQLSyntaxError(
                f"expected {word}, got {tok.value!r}"
            )

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in ops

    def accept_op(self, *ops: str) -> Optional[str]:
        if self.at_op(*ops):
            return self.next().value
        return None

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise StSPARQLSyntaxError(f"expected {op!r}, got {tok.value!r}")

    # -- entry points -----------------------------------------------------------

    def parse_query(self) -> alg.Query:
        self._prologue()
        if self.at_keyword("SELECT"):
            query = self._select_query()
        elif self.at_keyword("ASK"):
            query = self._ask_query()
        elif self.at_keyword("CONSTRUCT"):
            query = self._construct_query()
        elif self.at_keyword("DESCRIBE"):
            query = self._describe_query()
        else:
            raise StSPARQLSyntaxError(
                f"expected SELECT/ASK/CONSTRUCT/DESCRIBE, "
                f"got {self.peek().value!r}"
            )
        self._expect_eof()
        return query

    def parse_update(self) -> List[alg.UpdateOp]:
        self._prologue()
        ops: List[alg.UpdateOp] = []
        while self.peek().kind != "eof":
            ops.append(self._update_op())
            self.accept_op(";")
            self._prologue()
        if not ops:
            raise StSPARQLSyntaxError("empty update request")
        return ops

    def _expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise StSPARQLSyntaxError(
                f"trailing input after query: {tok.value!r}"
            )

    def _prologue(self) -> None:
        while True:
            if self.accept_keyword("PREFIX"):
                tok = self.next()
                if tok.kind != "pname" or not tok.value.endswith(":"):
                    raise StSPARQLSyntaxError(
                        f"bad prefix name {tok.value!r}"
                    )
                iri = self.next()
                if iri.kind != "iri":
                    raise StSPARQLSyntaxError("PREFIX needs an IRI")
                self.prefixes[tok.value[:-1]] = self._resolve(iri.value)
                continue
            if self.accept_keyword("BASE"):
                iri = self.next()
                if iri.kind != "iri":
                    raise StSPARQLSyntaxError("BASE needs an IRI")
                self.base = iri.value
                continue
            return

    def _resolve(self, iri: str) -> str:
        import re

        if self.base and not re.match(r"^[A-Za-z][A-Za-z0-9+.\-]*:", iri):
            return self.base + iri
        return iri

    # -- queries -----------------------------------------------------------------

    def _select_query(self) -> alg.SelectQuery:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        self.accept_keyword("REDUCED")
        projections: List[alg.Projection] = []
        star = False
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.next()
                star = True
                break
            if tok.kind == "var":
                self.next()
                projections.append(alg.Projection(tok.value))
                continue
            if tok.kind == "op" and tok.value == "(":
                self.next()
                expr = self._expression()
                self.expect_keyword("AS")
                var = self.next()
                if var.kind != "var":
                    raise StSPARQLSyntaxError("expected ?var after AS")
                self.expect_op(")")
                projections.append(alg.Projection(var.value, expr))
                continue
            break
        if not star and not projections:
            raise StSPARQLSyntaxError("empty SELECT clause")
        self.accept_keyword("WHERE")
        where = self._group_graph_pattern()
        group_by: List[alg.Expr] = []
        having: List[alg.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            while True:
                tok = self.peek()
                if tok.kind == "var":
                    self.next()
                    group_by.append(alg.EVar(tok.value))
                elif tok.kind == "op" and tok.value == "(":
                    self.next()
                    group_by.append(self._expression())
                    self.expect_op(")")
                else:
                    break
            if not group_by:
                raise StSPARQLSyntaxError("empty GROUP BY")
        if self.accept_keyword("HAVING"):
            while self.at_op("("):
                self.next()
                having.append(self._expression())
                self.expect_op(")")
            if not having:
                raise StSPARQLSyntaxError("HAVING needs (expr)")
        order_by: List[alg.OrderCondition] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                if self.accept_keyword("ASC"):
                    self.expect_op("(")
                    order_by.append(
                        alg.OrderCondition(self._expression(), False)
                    )
                    self.expect_op(")")
                elif self.accept_keyword("DESC"):
                    self.expect_op("(")
                    order_by.append(
                        alg.OrderCondition(self._expression(), True)
                    )
                    self.expect_op(")")
                elif self.peek().kind == "var":
                    order_by.append(
                        alg.OrderCondition(alg.EVar(self.next().value))
                    )
                elif self.at_op("("):
                    self.next()
                    order_by.append(alg.OrderCondition(self._expression()))
                    self.expect_op(")")
                else:
                    break
            if not order_by:
                raise StSPARQLSyntaxError("empty ORDER BY")
        limit = offset = None
        # LIMIT/OFFSET in either order.
        for _ in range(2):
            if self.accept_keyword("LIMIT"):
                limit = self._integer()
            elif self.accept_keyword("OFFSET"):
                offset = self._integer()
        return alg.SelectQuery(
            projections=tuple(projections),
            where=where,
            distinct=distinct,
            group_by=tuple(group_by),
            having=tuple(having),
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
        )

    def _integer(self) -> int:
        tok = self.next()
        if tok.kind != "number" or "." in tok.value:
            raise StSPARQLSyntaxError(f"expected integer, got {tok.value!r}")
        return int(tok.value)

    def _ask_query(self) -> alg.AskQuery:
        self.expect_keyword("ASK")
        self.accept_keyword("WHERE")
        return alg.AskQuery(self._group_graph_pattern())

    def _describe_query(self) -> alg.DescribeQuery:
        self.expect_keyword("DESCRIBE")
        terms = []
        while True:
            tok = self.peek()
            if tok.kind == "var":
                self.next()
                terms.append(Variable(tok.value))
            elif tok.kind == "iri":
                self.next()
                terms.append(URIRef(self._resolve(tok.value)))
            elif tok.kind == "pname":
                self.next()
                terms.append(self._pname(tok.value))
            else:
                break
        if not terms:
            raise StSPARQLSyntaxError("DESCRIBE needs IRIs or variables")
        where = None
        if self.accept_keyword("WHERE") or self.at_op("{"):
            where = self._group_graph_pattern()
        if any(isinstance(t, Variable) for t in terms) and where is None:
            raise StSPARQLSyntaxError(
                "DESCRIBE with variables needs a WHERE clause"
            )
        return alg.DescribeQuery(tuple(terms), where)

    def _construct_query(self) -> alg.ConstructQuery:
        self.expect_keyword("CONSTRUCT")
        template = self._triples_template()
        self.expect_keyword("WHERE")
        return alg.ConstructQuery(
            tuple(template), self._group_graph_pattern()
        )

    # -- updates ----------------------------------------------------------------

    def _update_op(self) -> alg.UpdateOp:
        if self.accept_keyword("INSERT"):
            if self.accept_keyword("DATA"):
                return alg.InsertData(tuple(self._ground_triples()))
            template = self._triples_template()
            self.expect_keyword("WHERE")
            return alg.Modify((), tuple(template), self._group_graph_pattern())
        if self.accept_keyword("DELETE"):
            if self.accept_keyword("DATA"):
                return alg.DeleteData(tuple(self._ground_triples()))
            if self.at_keyword("WHERE"):
                # DELETE WHERE { pattern }: template == pattern.
                self.expect_keyword("WHERE")
                pattern = self._group_graph_pattern()
                template = _pattern_triples(pattern)
                return alg.Modify(tuple(template), (), pattern)
            delete_template = self._triples_template()
            insert_template: List[alg.TriplePattern] = []
            if self.accept_keyword("INSERT"):
                insert_template = self._triples_template()
            self.expect_keyword("WHERE")
            return alg.Modify(
                tuple(delete_template),
                tuple(insert_template),
                self._group_graph_pattern(),
            )
        raise StSPARQLSyntaxError(
            f"expected INSERT or DELETE, got {self.peek().value!r}"
        )

    def _ground_triples(self):
        triples = self._triples_template()
        for t in triples:
            if any(isinstance(term, Variable) for term in (t.s, t.p, t.o)):
                raise StSPARQLSyntaxError(
                    "variables are not allowed in INSERT/DELETE DATA"
                )
            if not isinstance(t.s, (URIRef, BNode)) or not isinstance(t.p, URIRef):
                raise StSPARQLSyntaxError(f"not an RDF triple in DATA: {t!r}")
        return [(t.s, t.p, t.o) for t in triples]

    def _triples_template(self) -> List[alg.TriplePattern]:
        self.expect_op("{")
        triples = self._triples_block(stop_ops=("}",))
        self.expect_op("}")
        return triples

    # -- graph patterns ------------------------------------------------------------

    def _group_graph_pattern(self) -> alg.Pattern:
        self.expect_op("{")
        parts: List[alg.Pattern] = []
        filters: List[alg.Expr] = []
        while not self.at_op("}"):
            if self.accept_keyword("FILTER"):
                filters.append(self._filter_expression())
                self.accept_op(".")
                continue
            if self.accept_keyword("OPTIONAL"):
                parts.append(
                    alg.OptionalPattern(self._group_graph_pattern())
                )
                self.accept_op(".")
                continue
            if self.accept_keyword("BIND"):
                self.expect_op("(")
                expr = self._expression()
                self.expect_keyword("AS")
                var = self.next()
                if var.kind != "var":
                    raise StSPARQLSyntaxError("expected ?var after AS")
                self.expect_op(")")
                parts.append(alg.BindPattern(expr, var.value))
                self.accept_op(".")
                continue
            if self.accept_keyword("VALUES"):
                parts.append(self._values_clause())
                self.accept_op(".")
                continue
            if self.at_op("{"):
                sub = self._group_graph_pattern()
                while self.accept_keyword("UNION"):
                    right = self._group_graph_pattern()
                    sub = alg.UnionPattern(sub, right)
                parts.append(sub)
                self.accept_op(".")
                continue
            triples = self._triples_block(stop_ops=("}",), in_pattern=True)
            if triples:
                parts.append(alg.BGP(tuple(triples)))
            else:
                raise StSPARQLSyntaxError(
                    f"unexpected token {self.peek().value!r} in group"
                )
        self.expect_op("}")
        return alg.GroupPattern(tuple(parts), tuple(filters))

    def _values_clause(self) -> alg.ValuesPattern:
        var = self.next()
        if var.kind != "var":
            raise StSPARQLSyntaxError("VALUES supports a single variable")
        self.expect_op("{")
        values = []
        while not self.at_op("}"):
            if self.accept_keyword("UNDEF"):
                values.append(None)
            else:
                values.append(self._term(in_pattern=False))
        self.expect_op("}")
        return alg.ValuesPattern(var.value, tuple(values))

    def _filter_expression(self) -> alg.Expr:
        # FILTER(expr) or FILTER func(args)
        if self.at_op("("):
            self.next()
            expr = self._expression()
            self.expect_op(")")
            return expr
        return self._primary_expression()

    def _triples_block(
        self, stop_ops: Tuple[str, ...], in_pattern: bool = True
    ) -> List[alg.TriplePattern]:
        triples: List[alg.TriplePattern] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "op" and tok.value in stop_ops:
                break
            if tok.kind == "keyword" and tok.value in (
                "FILTER", "OPTIONAL", "BIND", "UNION", "VALUES",
            ):
                break
            if tok.kind == "op" and tok.value == "{":
                break
            subject = self._term(in_pattern)
            self._predicate_object_list(subject, triples, in_pattern)
            if not self.accept_op("."):
                break
        return triples

    def _predicate_object_list(
        self, subject, triples: List[alg.TriplePattern], in_pattern: bool
    ) -> None:
        while True:
            predicate = self._verb(in_pattern)
            while True:
                obj = self._term(in_pattern)
                triples.append(alg.TriplePattern(subject, predicate, obj))
                if not self.accept_op(","):
                    break
            if self.accept_op(";"):
                if self.at_op(".", "}", ";") or self.peek().kind == "eof":
                    # tolerate trailing semicolon
                    while self.accept_op(";"):
                        pass
                    return
                continue
            return

    def _verb(self, in_pattern: bool):
        if in_pattern:
            return self._path()
        if self.accept_keyword("A"):
            return URIRef(str(RDF) + "type")
        term = self._term(in_pattern)
        if isinstance(term, Literal):
            raise StSPARQLSyntaxError("a literal cannot be a predicate")
        return term

    # -- property paths (SPARQL 1.1 §9, subset) ---------------------------------

    def _path(self):
        """path := seq ('|' seq)*"""
        options = [self._path_sequence()]
        while self.accept_op("|"):
            options.append(self._path_sequence())
        if len(options) == 1:
            return options[0]
        return alg.PathAlt(tuple(options))

    def _path_sequence(self):
        steps = [self._path_elt()]
        while self.accept_op("/"):
            steps.append(self._path_elt())
        if len(steps) == 1:
            return steps[0]
        return alg.PathSeq(tuple(steps))

    def _path_elt(self):
        inverse = bool(self.accept_op("^"))
        primary = self._path_primary()
        if self.accept_op("+"):
            primary = alg.PathClosure(primary, min_hops=1)
        elif self.accept_op("*"):
            primary = alg.PathClosure(primary, min_hops=0)
        elif self.accept_op("?"):
            primary = alg.PathClosure(primary, min_hops=0, max_one=True)
        if inverse:
            return alg.PathInv(primary)
        return primary

    def _path_primary(self):
        if self.accept_keyword("A"):
            return URIRef(str(RDF) + "type")
        tok = self.peek()
        if tok.kind == "op" and tok.value == "(":
            self.next()
            inner = self._path()
            self.expect_op(")")
            return inner
        if tok.kind == "var":
            self.next()
            return Variable(tok.value)
        if tok.kind == "iri":
            self.next()
            return URIRef(self._resolve(tok.value))
        if tok.kind == "pname":
            self.next()
            return self._pname(tok.value)
        raise StSPARQLSyntaxError(
            f"expected a predicate or path, got {tok.value!r}"
        )

    def _term(self, in_pattern: bool):
        tok = self.next()
        if tok.kind == "var":
            if not in_pattern:
                raise StSPARQLSyntaxError(
                    "variables are not allowed here"
                )
            return Variable(tok.value)
        if tok.kind == "iri":
            return URIRef(self._resolve(tok.value))
        if tok.kind == "pname":
            return self._pname(tok.value)
        if tok.kind == "bnode":
            return BNode(tok.value)
        if tok.kind == "string":
            return self._literal_tail(tok.value)
        if tok.kind == "number":
            return _number_literal(tok.value)
        if tok.kind == "op" and tok.value == "-":
            num = self.next()
            if num.kind != "number":
                raise StSPARQLSyntaxError("expected number after '-'")
            return _number_literal("-" + num.value)
        if tok.kind == "keyword" and tok.value in ("TRUE", "FALSE"):
            return Literal(tok.value == "TRUE")
        if tok.kind == "op" and tok.value == "[":
            self.expect_op("]")
            self._bnode_count += 1
            return BNode(f"anon{self._bnode_count}")
        raise StSPARQLSyntaxError(f"unexpected token {tok.value!r}")

    def _pname(self, pname: str) -> URIRef:
        prefix, _, local = pname.partition(":")
        if prefix not in self.prefixes:
            raise StSPARQLSyntaxError(f"undefined prefix {prefix!r}")
        return URIRef(self.prefixes[prefix] + local)

    def _literal_tail(self, lexical: str) -> Literal:
        tok = self.peek()
        if tok.kind == "langtag":
            self.next()
            return Literal(lexical, language=tok.value)
        if tok.kind == "dtype_marker":
            self.next()
            dtok = self.next()
            if dtok.kind == "iri":
                return Literal(lexical, datatype=self._resolve(dtok.value))
            if dtok.kind == "pname":
                return Literal(lexical, datatype=str(self._pname(dtok.value)))
            raise StSPARQLSyntaxError("datatype must be an IRI")
        return Literal(lexical)

    # -- expressions ----------------------------------------------------------------

    def _expression(self) -> alg.Expr:
        return self._or_expression()

    def _or_expression(self) -> alg.Expr:
        left = self._and_expression()
        while self.accept_op("||"):
            left = alg.EBinary("||", left, self._and_expression())
        return left

    def _and_expression(self) -> alg.Expr:
        left = self._relational()
        while self.accept_op("&&"):
            left = alg.EBinary("&&", left, self._relational())
        return left

    def _relational(self) -> alg.Expr:
        left = self._additive()
        op = self.accept_op("=", "!=", "<", "<=", ">", ">=")
        if op:
            return alg.EBinary(op, left, self._additive())
        if self.accept_keyword("IN"):
            return self._in_list(left, negated=False)
        if self.accept_keyword("NOT"):
            self.expect_keyword("IN")
            return self._in_list(left, negated=True)
        return left

    def _in_list(self, operand: alg.Expr, negated: bool) -> alg.Expr:
        self.expect_op("(")
        items = [self._expression()]
        while self.accept_op(","):
            items.append(self._expression())
        self.expect_op(")")
        expr: alg.Expr = alg.ECall("in", tuple([operand] + items))
        if negated:
            expr = alg.EUnary("!", expr)
        return expr

    def _additive(self) -> alg.Expr:
        left = self._multiplicative()
        while True:
            op = self.accept_op("+", "-")
            if not op:
                return left
            left = alg.EBinary(op, left, self._multiplicative())

    def _multiplicative(self) -> alg.Expr:
        left = self._unary()
        while True:
            op = self.accept_op("*", "/")
            if not op:
                return left
            left = alg.EBinary(op, left, self._unary())

    def _unary(self) -> alg.Expr:
        if self.accept_op("!"):
            return alg.EUnary("!", self._unary())
        if self.accept_op("-"):
            return alg.EUnary("-", self._unary())
        if self.accept_op("+"):
            return self._unary()
        return self._primary_expression()

    def _primary_expression(self) -> alg.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "(":
            self.next()
            expr = self._expression()
            self.expect_op(")")
            return expr
        if tok.kind == "var":
            self.next()
            return alg.EVar(tok.value)
        if tok.kind == "builtin":
            self.next()
            return self._call(tok.value)
        if tok.kind == "pname":
            self.next()
            iri = self._pname(tok.value)
            if self.at_op("("):
                return self._call(str(iri))
            return alg.ETerm(iri)
        if tok.kind == "iri":
            self.next()
            iri = URIRef(self._resolve(tok.value))
            if self.at_op("("):
                return self._call(str(iri))
            return alg.ETerm(iri)
        if tok.kind == "string":
            self.next()
            return alg.ETerm(self._literal_tail(tok.value))
        if tok.kind == "number":
            self.next()
            return alg.ETerm(_number_literal(tok.value))
        if tok.kind == "keyword" and tok.value in ("TRUE", "FALSE"):
            self.next()
            return alg.ETerm(Literal(tok.value == "TRUE"))
        raise StSPARQLSyntaxError(
            f"unexpected token {tok.value!r} in expression"
        )

    def _call(self, name: str) -> alg.Expr:
        self.expect_op("(")
        # COUNT(*) special form.
        if name == "count" and self.accept_op("*"):
            self.expect_op(")")
            return alg.ECall("count", ())
        args: List[alg.Expr] = []
        distinct = bool(self.accept_keyword("DISTINCT"))
        if not self.at_op(")"):
            args.append(self._expression())
            while self.accept_op(","):
                args.append(self._expression())
        self.expect_op(")")
        if distinct:
            return alg.ECall(name + "#distinct", tuple(args))
        return alg.ECall(name, tuple(args))


def _number_literal(text: str) -> Literal:
    if "." in text or "e" in text.lower():
        return Literal(text, datatype=_XSD + "double")
    return Literal(text, datatype=_XSD + "integer")


def _pattern_triples(pattern: alg.Pattern) -> List[alg.TriplePattern]:
    if isinstance(pattern, alg.BGP):
        return list(pattern.triples)
    if isinstance(pattern, alg.GroupPattern):
        out: List[alg.TriplePattern] = []
        for part in pattern.parts:
            out.extend(_pattern_triples(part))
        return out
    return []


def parse_query(text: str) -> alg.Query:
    """Parse an stSPARQL SELECT/ASK/CONSTRUCT query."""
    return _Parser(text).parse_query()


def parse_update(text: str) -> List[alg.UpdateOp]:
    """Parse one or more ';'-separated stSPARQL update operations."""
    return _Parser(text).parse_update()
