"""Safe arithmetic expression language for models and spreadsheet cells.

PowerPlay lets users type model equations and parameter formulas into web
forms ("The user is prompted for names, equations, and documentation
information").  Evaluating those with :func:`eval` would hand the server
to any browser, so this module implements a small, safe expression
language:

* tokenizer + recursive-descent parser producing an immutable AST;
* an evaluator over a name environment (plain ``dict`` or any mapping);
* :func:`variables` — static dependency extraction, which is what the
  spreadsheet engine uses to build its recalculation graph;
* a curated set of math functions and constants.

Grammar (standard precedence, ``^`` is right-associative power)::

    expr        := ternary
    ternary     := or_expr ("?" expr ":" expr)?
    or_expr     := and_expr ("or" and_expr)*
    and_expr    := not_expr ("and" not_expr)*
    not_expr    := "not" not_expr | comparison
    comparison  := additive (("<"|"<="|">"|">="|"=="|"!=") additive)?
    additive    := term (("+"|"-") term)*
    term        := power (("*"|"/"|"%") power)*
    power       := unary ("^" power)?
    unary       := ("-"|"+") unary | postfix
    postfix     := atom
    atom        := NUMBER | NAME ("(" args ")")? | "(" expr ")"

Names may be dotted (``lut.words``) — the spreadsheet resolves those
against hierarchical scopes.  Numbers accept engineering suffixes
(``253f`` = 253e-15) in addition to ``e`` notation, mirroring the input
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..errors import EvaluationError, ParseError

# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TWO_CHAR_OPS = ("<=", ">=", "==", "!=")
_ONE_CHAR_OPS = "+-*/%^()<>?:,"

#: Engineering suffixes accepted on numeric literals (``253f`` -> 253e-15).
_ENG_SUFFIXES = {
    "a": 1e-18,
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "k": 1e3,
    "K": 1e3,
    "M": 1e6,
    "G": 1e9,
    "T": 1e12,
}


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    value: float
    position: int


def tokenize(source: str) -> List[Token]:
    """Split ``source`` into tokens.  Raises :class:`ParseError`."""
    tokens: List[Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            i, token = _read_number(source, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] in "_."):
                i += 1
            text = source[start:i]
            if text.endswith("."):
                raise ParseError("name cannot end with '.'", source, start)
            tokens.append(Token("name", text, 0.0, start))
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, 0.0, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, 0.0, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", source, i)
    tokens.append(Token("end", "", 0.0, n))
    return tokens


def _read_number(source: str, i: int) -> Tuple[int, Token]:
    start = i
    n = len(source)
    while i < n and (source[i].isdigit() or source[i] == "."):
        i += 1
    # exponent part
    if i < n and source[i] in "eE":
        j = i + 1
        if j < n and source[j] in "+-":
            j += 1
        if j < n and source[j].isdigit():
            i = j
            while i < n and source[i].isdigit():
                i += 1
    text = source[start:i]
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", source, start) from None
    # engineering suffix: only when NOT followed by more letters (so the
    # name "freq" after "2 " stays a name, and "2f" is 2e-15 but "2fF"
    # is rejected — units belong in the surrounding form, not formulas).
    if i < n and source[i] in _ENG_SUFFIXES:
        after = source[i + 1] if i + 1 < n else ""
        if not (after.isalnum() or after == "_" or after == "."):
            value *= _ENG_SUFFIXES[source[i]]
            i += 1
            text = source[start:i]
    return i, Token("num", text, value, start)


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    identifier: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    function: str
    args: Tuple["Node", ...]


@dataclass(frozen=True)
class Ternary:
    condition: "Node"
    if_true: "Node"
    if_false: "Node"


Node = Union[Num, Name, Unary, Binary, Call, Ternary]


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.current
        if token.kind != "op" or token.text != text:
            raise ParseError(
                f"expected {text!r}, found {token.text or 'end of input'!r}",
                self.source,
                token.position,
            )
        return self.advance()

    def match(self, *texts: str) -> Optional[Token]:
        token = self.current
        if token.kind == "op" and token.text in texts:
            return self.advance()
        return None

    def match_name(self, *names: str) -> Optional[Token]:
        token = self.current
        if token.kind == "name" and token.text in names:
            return self.advance()
        return None

    # grammar rules -------------------------------------------------------

    def parse(self) -> Node:
        node = self.expr()
        token = self.current
        if token.kind != "end":
            raise ParseError(
                f"trailing input {token.text!r}", self.source, token.position
            )
        return node

    def expr(self) -> Node:
        return self.ternary()

    def ternary(self) -> Node:
        condition = self.or_expr()
        if self.match("?"):
            if_true = self.expr()
            self.expect(":")
            if_false = self.expr()
            return Ternary(condition, if_true, if_false)
        return condition

    def or_expr(self) -> Node:
        node = self.and_expr()
        while self.match_name("or"):
            node = Binary("or", node, self.and_expr())
        return node

    def and_expr(self) -> Node:
        node = self.not_expr()
        while self.match_name("and"):
            node = Binary("and", node, self.not_expr())
        return node

    def not_expr(self) -> Node:
        if self.match_name("not"):
            return Unary("not", self.not_expr())
        return self.comparison()

    def comparison(self) -> Node:
        node = self.additive()
        token = self.match("<", "<=", ">", ">=", "==", "!=")
        if token:
            node = Binary(token.text, node, self.additive())
        return node

    def additive(self) -> Node:
        node = self.term()
        while True:
            token = self.match("+", "-")
            if not token:
                return node
            node = Binary(token.text, node, self.term())

    def term(self) -> Node:
        node = self.power()
        while True:
            token = self.match("*", "/", "%")
            if not token:
                return node
            node = Binary(token.text, node, self.power())

    def power(self) -> Node:
        node = self.unary()
        if self.match("^"):
            return Binary("^", node, self.power())  # right-assoc
        return node

    def unary(self) -> Node:
        token = self.match("-", "+")
        if token:
            operand = self.unary()
            if token.text == "+":
                return operand
            return Unary("-", operand)
        return self.atom()

    def atom(self) -> Node:
        token = self.current
        if token.kind == "num":
            self.advance()
            return Num(token.value)
        if token.kind == "name":
            self.advance()
            if self.match("("):
                args: List[Node] = []
                if not (self.current.kind == "op" and self.current.text == ")"):
                    args.append(self.expr())
                    while self.match(","):
                        args.append(self.expr())
                self.expect(")")
                return Call(token.text, tuple(args))
            return Name(token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            f"unexpected {token.text or 'end of input'!r}",
            self.source,
            token.position,
        )


def parse(source: str) -> Node:
    """Parse ``source`` into an AST.  Raises :class:`ParseError`."""
    if not isinstance(source, str):
        raise ParseError(f"expected a string, got {type(source).__name__}")
    if not source.strip():
        raise ParseError("empty expression", source, 0)
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

#: Constants every expression environment sees.  ``k`` and ``q`` support
#: the paper's analog models (EQ 14-17); ``kT_over_q`` is the thermal
#: voltage at 300 K.
CONSTANTS: Dict[str, float] = {
    "pi": math.pi,
    "e": math.e,
    "k": 1.380649e-23,       # Boltzmann constant, J/K
    "q": 1.602176634e-19,    # elementary charge, C
    "T_room": 300.0,         # K
    "kT_over_q": 1.380649e-23 * 300.0 / 1.602176634e-19,
    "true": 1.0,
    "false": 0.0,
}


def _safe_sqrt(x: float) -> float:
    if x < 0:
        raise EvaluationError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _safe_log(x: float, base: Optional[float] = None) -> float:
    if x <= 0:
        raise EvaluationError(f"log of non-positive value {x}")
    if base is None:
        return math.log(x)
    return math.log(x, base)


FUNCTIONS: Dict[str, Callable[..., float]] = {
    "abs": abs,
    "sqrt": _safe_sqrt,
    "exp": math.exp,
    "ln": _safe_log,
    "log": _safe_log,
    "log2": lambda x: _safe_log(x, 2.0),
    "log10": lambda x: _safe_log(x, 10.0),
    "floor": math.floor,
    "ceil": math.ceil,
    "round": round,
    "min": min,
    "max": max,
    "pow": lambda x, y: x**y,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "sum": lambda *xs: sum(xs),
    "avg": lambda *xs: sum(xs) / len(xs) if xs else 0.0,
    "if": lambda c, a, b: a if c else b,
    "clamp": lambda x, lo, hi: max(lo, min(hi, x)),
}

_ARITY = {
    "abs": (1, 1), "sqrt": (1, 1), "exp": (1, 1), "ln": (1, 2),
    "log": (1, 2), "log2": (1, 1), "log10": (1, 1), "floor": (1, 1),
    "ceil": (1, 1), "round": (1, 2), "min": (1, None), "max": (1, None),
    "pow": (2, 2), "sin": (1, 1), "cos": (1, 1), "tan": (1, 1),
    "atan": (1, 1), "sum": (0, None), "avg": (1, None), "if": (3, 3),
    "clamp": (3, 3),
}


def evaluate(node: Node, env: Optional[Mapping[str, float]] = None) -> float:
    """Evaluate an AST against a name environment.

    ``env`` maps names (possibly dotted) to floats or to zero-argument
    callables (lazy values — the design hierarchy uses these for
    inter-model references such as "power of the load of this DC-DC
    converter").  Unknown names raise :class:`EvaluationError`.
    """
    if env is None:
        env = {}
    return _eval(node, env)


def _lookup(identifier: str, env: Mapping[str, float]) -> float:
    if identifier in env:
        value = env[identifier]
    elif identifier in CONSTANTS:
        value = CONSTANTS[identifier]
    else:
        raise EvaluationError(f"unknown name {identifier!r}")
    if callable(value):
        value = value()
    try:
        return float(value)
    except (TypeError, ValueError):
        raise EvaluationError(
            f"name {identifier!r} is not numeric: {value!r}"
        ) from None


def _eval(node: Node, env: Mapping[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        return _lookup(node.identifier, env)
    if isinstance(node, Unary):
        value = _eval(node.operand, env)
        if node.op == "-":
            return -value
        if node.op == "not":
            return 0.0 if value else 1.0
        raise EvaluationError(f"unknown unary operator {node.op!r}")
    if isinstance(node, Ternary):
        condition = _eval(node.condition, env)
        branch = node.if_true if condition else node.if_false
        return _eval(branch, env)
    if isinstance(node, Binary):
        return _eval_binary(node, env)
    if isinstance(node, Call):
        return _eval_call(node, env)
    raise EvaluationError(f"unknown node type {type(node).__name__}")


def _eval_binary(node: Binary, env: Mapping[str, float]) -> float:
    op = node.op
    if op == "and":
        left = _eval(node.left, env)
        if not left:
            return 0.0
        return 1.0 if _eval(node.right, env) else 0.0
    if op == "or":
        left = _eval(node.left, env)
        if left:
            return 1.0
        return 1.0 if _eval(node.right, env) else 0.0
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise EvaluationError("division by zero")
        return left / right
    if op == "%":
        if right == 0:
            raise EvaluationError("modulo by zero")
        return math.fmod(left, right)
    if op == "^":
        try:
            result = left**right
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise EvaluationError(f"power error: {left} ^ {right}") from exc
        if isinstance(result, complex):
            raise EvaluationError(f"complex result: {left} ^ {right}")
        return result
    if op == "<":
        return 1.0 if left < right else 0.0
    if op == "<=":
        return 1.0 if left <= right else 0.0
    if op == ">":
        return 1.0 if left > right else 0.0
    if op == ">=":
        return 1.0 if left >= right else 0.0
    if op == "==":
        return 1.0 if left == right else 0.0
    if op == "!=":
        return 1.0 if left != right else 0.0
    raise EvaluationError(f"unknown operator {op!r}")


def _eval_call(node: Call, env: Mapping[str, float]) -> float:
    func = FUNCTIONS.get(node.function)
    if func is None:
        raise EvaluationError(f"unknown function {node.function!r}")
    lo, hi = _ARITY[node.function]
    argc = len(node.args)
    if argc < lo or (hi is not None and argc > hi):
        expected = str(lo) if lo == hi else f"{lo}..{hi if hi is not None else 'many'}"
        raise EvaluationError(
            f"{node.function}() takes {expected} args, got {argc}"
        )
    args = [_eval(arg, env) for arg in node.args]
    try:
        return float(func(*args))
    except EvaluationError:
        raise
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise EvaluationError(f"{node.function}() failed: {exc}") from exc


# --------------------------------------------------------------------------
# Static analysis & compiled expressions
# --------------------------------------------------------------------------


def variables(node: Node) -> Set[str]:
    """Names referenced by an AST, excluding built-in constants.

    The spreadsheet uses this to build its dependency graph.
    """
    found: Set[str] = set()
    _collect(node, found)
    return {name for name in found if name not in CONSTANTS}


def _collect(node: Node, out: Set[str]) -> None:
    if isinstance(node, Name):
        out.add(node.identifier)
    elif isinstance(node, Unary):
        _collect(node.operand, out)
    elif isinstance(node, Binary):
        _collect(node.left, out)
        _collect(node.right, out)
    elif isinstance(node, Ternary):
        _collect(node.condition, out)
        _collect(node.if_true, out)
        _collect(node.if_false, out)
    elif isinstance(node, Call):
        for arg in node.args:
            _collect(arg, out)


def unparse(node: Node) -> str:
    """Render an AST back to (fully parenthesized) source text.

    ``parse(unparse(t))`` evaluates identically to ``t`` — used by the
    web UI to echo stored model equations, and by the property tests.
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Name):
        return node.identifier
    if isinstance(node, Unary):
        if node.op == "not":
            return f"(not {unparse(node.operand)})"
        return f"({node.op}{unparse(node.operand)})"
    if isinstance(node, Binary):
        if node.op in ("and", "or"):
            return f"({unparse(node.left)} {node.op} {unparse(node.right)})"
        return f"({unparse(node.left)} {node.op} {unparse(node.right)})"
    if isinstance(node, Ternary):
        return (
            f"({unparse(node.condition)} ? {unparse(node.if_true)}"
            f" : {unparse(node.if_false)})"
        )
    if isinstance(node, Call):
        args = ", ".join(unparse(arg) for arg in node.args)
        return f"{node.function}({args})"
    raise EvaluationError(f"cannot unparse {type(node).__name__}")


class Expression:
    """A parsed, reusable expression.

    >>> Expression("bitwidth * c0").evaluate({"bitwidth": 8, "c0": 2e-15})
    1.6e-14
    """

    __slots__ = ("source", "ast", "names", "_variables")

    def __init__(self, source: str):
        self.source = source
        self.ast = parse(source)
        found: Set[str] = set()
        _collect(self.ast, found)
        #: every identifier, constants included: a scope value named
        #: like a constant (``k``) shadows the constant
        self.names = frozenset(found)
        self._variables = self.names.difference(CONSTANTS)

    @property
    def variables(self) -> frozenset:
        """Free variables (constants excluded)."""
        return self._variables

    def evaluate(self, env: Optional[Mapping[str, float]] = None) -> float:
        return evaluate(self.ast, env)

    def __call__(self, **env: float) -> float:
        return evaluate(self.ast, env)

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Expression) and other.ast == self.ast

    def __hash__(self) -> int:
        return hash(self.ast)


def compile_expression(source: Union[str, Expression]) -> Expression:
    """Coerce a string (or pass through an Expression) to Expression."""
    if isinstance(source, Expression):
        return source
    return Expression(source)
