"""stSPARQL error types."""


class StSPARQLError(Exception):
    """Base error for query evaluation failures."""


class StSPARQLSyntaxError(StSPARQLError):
    """The query text could not be parsed."""


class ExprError(StSPARQLError):
    """An expression has no value for one solution (an unbound variable,
    a type error, an ill-typed literal): the FILTER rejects the row, the
    BIND or projection leaves its variable unbound."""
