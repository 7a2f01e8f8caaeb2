"""Parser and evaluator for scalar expressions in one variable.

Grammar (EBNF, also shipped in docs/grammar.ebnf):

    expr    = term , { ( "+" | "-" ) , term } ;
    term    = unary , { ( "*" | "/" ) , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;
    atom    = number | "x" | "pi" | "e"
            | function , "(" , expr , ")"
            | "(" , expr , ")" ;
    function = "exp" | "log" | "sin" | "cos" | "tan" | "sqrt" ;

"^" is right-associative and binds tighter than unary minus, so
``-x^2`` means ``-(x^2)``.  Whitespace is insignificant; identifiers are
case-sensitive.  Parse errors carry the byte offset of the offending
token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import EvaluationError, ParseError

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Union[Num, Var, Const, Neg, BinOp, Call]


# -- tokenizer ---------------------------------------------------------------

_OPERATORS = "+-*/^"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "op", "lparen", "rparen", "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token("op", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
        elif ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            # exponent part only when it is unambiguously numeric
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(_Token("num", text[start:i], start))
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
        else:
            raise ParseError(f"unexpected character {ch!r}", i, text)
    tokens.append(_Token("end", "", n))
    return tokens


# -- recursive-descent parser ------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.current
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos, self.text)
        return self.advance()

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expression:
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            # right-associative; the exponent may carry its own sign
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expression:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text in CONSTANTS:
                return Const(tok.text)
            if tok.text in FUNCTIONS:
                self.expect("lparen", f"'(' after function {tok.text!r}")
                arg = self.parse_expr()
                self.expect("rparen", "')'")
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos, self.text)
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        raise ParseError("expected an expression", tok.pos, self.text)


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.current
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos, text)
    return node


# -- printer -----------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3  # between '*' and '^'


def _prec(node: Expression) -> int:
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return _NEG_PRECEDENCE
    return 9


def to_string(node: Expression) -> str:
    """Render a tree back to text; reparsing yields an equal tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _prec(node.arg) < _NEG_PRECEDENCE:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        p = _PRECEDENCE[node.op]
        left, right = to_string(node.left), to_string(node.right)
        if node.op == "^":
            # right-associative: parenthesize any non-atomic base
            if _prec(node.left) <= p:
                left = f"({left})"
            if _prec(node.right) < p:
                right = f"({right})"
        else:
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation --------------------------------------------------------------


def _pow_value(base: float, expo: float, x: float) -> float:
    if expo == int(expo) and abs(expo) <= 2**31:
        n = int(expo)
        if base == 0.0 and n < 0:
            raise EvaluationError("zero raised to a negative power", x)
        return base**n
    if base <= 0.0:
        raise EvaluationError(
            f"non-integer power of a non-positive base {base!r}", x
        )
    return math.exp(expo * math.log(base))


def evaluate(node: Expression, x: float) -> float:
    """Evaluate the tree at ``x`` in binary64, with domain checks."""
    try:
        return _evaluate(node, x)
    except OverflowError:
        raise EvaluationError("overflow during evaluation", x) from None


def _evaluate(node: Expression, x: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.arg, x)
    if isinstance(node, BinOp):
        left = _evaluate(node.left, x)
        right = _evaluate(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0.0:
                raise EvaluationError("division by zero", x)
            return left / right
        return _pow_value(left, right, x)
    if isinstance(node, Call):
        arg = _evaluate(node.arg, x)
        if node.fn == "exp":
            return math.exp(arg)
        if node.fn == "log":
            if arg <= 0.0:
                raise EvaluationError(f"log of non-positive value {arg!r}", x)
            return math.log(arg)
        if node.fn == "sin":
            return math.sin(arg)
        if node.fn == "cos":
            return math.cos(arg)
        if node.fn == "tan":
            return math.tan(arg)
        if node.fn == "sqrt":
            if arg < 0.0:
                raise EvaluationError(f"sqrt of negative value {arg!r}", x)
            return math.sqrt(arg)
    raise TypeError(f"not an expression node: {node!r}")


# -- compilation -------------------------------------------------------------
#
# The tree is emitted as the source of one Python function, in which every
# node other than a leaf assigns one local, in the order ``_evaluate``
# visits the nodes, followed by its domain check where it has one.  So the
# function performs the same binary64 operations in the same order and
# raises the same errors with the same messages, and its results are
# bitwise identical.  Like ``evaluate``, one handler turns OverflowError
# into an EvaluationError.  Constants enter as names bound to their exact
# values, and no user text reaches the source.

_CALL_CHECKS = {
    "log": "if {a} <= 0.0: raise EvaluationError(f'log of non-positive value {{{a}!r}}', x)",
    "sqrt": "if {a} < 0.0: raise EvaluationError(f'sqrt of negative value {{{a}!r}}', x)",
}


def compile_expression(node: Expression) -> Callable[[float], float]:
    """Compile the tree once into a function of ``x``.

    The function returns exactly what :func:`evaluate` returns and raises
    the same exceptions with the same messages and abscissae, at a
    fraction of the cost per point.  Compiling a well-formed tree never
    raises: an error belongs to the evaluation at its abscissa.
    """
    lines: list[str] = []
    scope: dict = {
        "EvaluationError": EvaluationError,
        "pow_value": _pow_value,
        **{fn: getattr(math, fn) for fn in FUNCTIONS},
    }
    result = _emit(node, lines, scope)
    body = "".join(f"        {line}\n" for line in lines)
    source = (
        "def compiled(x):\n"
        "    try:\n"
        f"{body}"
        f"        return {result}\n"
        "    except OverflowError:\n"
        "        raise EvaluationError('overflow during evaluation', x) from None\n"
    )
    exec(compile(source, "<msquad expression>", "exec"), scope)
    return scope["compiled"]


def _constant(value: float, scope: dict) -> str:
    name = f"k{len(scope)}"
    scope[name] = value
    return name


def _is_integer_exponent(expo: float) -> bool:
    """The exponents ``_pow_value`` raises by repeated multiplication."""
    return math.isfinite(expo) and expo == int(expo) and abs(expo) <= 2**31


def _emit(node: Expression, lines: list[str], scope: dict) -> str:
    """Append the statements for ``node``; return the name of its value."""
    if isinstance(node, Num):
        return _constant(node.value, scope)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return _constant(CONSTANTS[node.name], scope)
    if isinstance(node, Neg):
        arg = _emit(node.arg, lines, scope)
        if arg in scope:  # a constant: negation is exact, so do it once
            return _constant(-scope[arg], scope)
        expr = f"-{arg}"
    elif isinstance(node, BinOp) and node.op in _PRECEDENCE:
        left = _emit(node.left, lines, scope)
        right = _emit(node.right, lines, scope)
        if node.op == "/":
            lines.append(f"if {right} == 0.0: raise EvaluationError('division by zero', x)")
            expr = f"{left} / {right}"
        elif node.op != "^":
            expr = f"{left} {node.op} {right}"
        elif right in scope and _is_integer_exponent(scope[right]):
            n = int(scope[right])
            if n < 0:
                lines.append(
                    f"if {left} == 0.0: "
                    "raise EvaluationError('zero raised to a negative power', x)"
                )
            expr = f"{left} ** {n}"
        else:
            expr = f"pow_value({left}, {right}, x)"
    elif isinstance(node, Call) and node.fn in FUNCTIONS:
        arg = _emit(node.arg, lines, scope)
        if node.fn in _CALL_CHECKS:
            lines.append(_CALL_CHECKS[node.fn].format(a=arg))
        expr = f"{node.fn}({arg})"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    name = f"t{len(lines)}"
    lines.append(f"{name} = {expr}")
    return name
