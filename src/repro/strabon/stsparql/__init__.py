"""The stSPARQL query language implementation.

Modules: :mod:`lexer` (tokens), :mod:`algebra` (query/update structures),
:mod:`parser` (text → algebra), :mod:`functions` (builtins + strdf/geof
extension functions), :mod:`iterators` (the one join, its planner and
the resumable streaming operators), :mod:`evaluator` (the operators
around the join and every expression), :mod:`results` (result
containers).
"""

from repro.strabon.stsparql.errors import StSPARQLError, StSPARQLSyntaxError

__all__ = ["StSPARQLError", "StSPARQLSyntaxError"]
