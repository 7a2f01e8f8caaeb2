"""Parser, evaluator and compiler for scalar expressions in one variable.

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
case-sensitive.  Parse errors carry the character offset of the offending
token.  Only ASCII is accepted, nested at most 100 levels deep.

A tree is visited by one walker, ``_value``, written against a small
arithmetic that has three implementations.  On ``Binary64`` (floats) it is
:func:`evaluate`, the reference, with the domain checks.  On ``Tracer``
(source text) it writes the same binary64 operations in the same order as
one straight-line function, :func:`compile_expression`, or inlined at every
node of a composite pair loop, :func:`compile_pair_terms`.
On the Taylor arithmetic of :mod:`msquad.jets`, built over either of the
two, a value is a jet of Taylor coefficients and its checks read
coefficient 0.

Generated code is only a fast path, and it has no checks: on floats each
checked operation raises by itself (``/ 0.0``, ``log`` and ``sqrt`` outside
their domains, ``0.0 ** -n``), and wherever a line raises, the walker on
``Binary64`` decides the point.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from typing import Callable, NamedTuple, Union

from .errors import EvaluationError, ParseError

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    pass


class Const(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expression"


class BinOp(NamedTuple):
    op: str
    left: "Expression"
    right: "Expression"


class Call(NamedTuple):
    fn: str
    arg: "Expression"


Expression = Union[Num, Var, Const, Neg, BinOp, Call]


# -- tokenizer ---------------------------------------------------------------

# The token rules of docs/grammar.ebnf, in ASCII.  A number takes an exponent
# only when digits follow its marker, so "2e-3" is one number and "2*e" is
# not; whitespace is the ASCII that str.isspace accepts; any other character
# is ``bad``.
_TOKEN = re.compile(r"""
    (?P<num> (?: [0-9]+ (?: \.[0-9]* )? | \.[0-9]+ ) (?: [eE][-+]?[0-9]+ )? )
  | (?P<ident> [A-Za-z_][A-Za-z0-9_]* )
  | (?P<punct> [-+*/^()] )
  | (?P<space> [\t-\r\x1c-\x1f ]+ )
  | (?P<end> \Z )
  | (?P<bad> . )
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> list[re.Match]:
    """The tokens of ``text``, each the match of its rule, the last ``end``."""
    tokens = [tok for tok in _TOKEN.finditer(text) if tok.lastgroup != "space"]
    for tok in tokens:
        if tok.lastgroup == "bad":
            raise ParseError(f"unexpected character {tok[0]!r}", tok.start(), text)
    return tokens


# -- parser ------------------------------------------------------------------

# How tightly each operator binds.  The parser reads the levels below unary
# minus as left-associative; "^" is right-associative and takes a signed
# exponent (see parse_unary).
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3
# Each operator, call or pair of parentheses nests its operands one level
# deeper.  A walk of a tree recurses one to three times per level and the
# parser up to five, so 100 levels stay well inside the default limit.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # levels open here, but for '+-*/' (nest counts those)
        self.depth: dict[int, int] = {}  # id of a parsed subtree -> its depth

    @property
    def current(self) -> re.Match:
        return self.tokens[self.i]

    def advance(self) -> re.Match:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, text: str, what: str) -> None:
        if self.current[0] != text:
            raise ParseError(f"expected {what}", self.current.start(), self.text)
        self.advance()

    def bound(self, tok: re.Match, depth: int) -> None:
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels",
                             tok.start(), self.text)

    def nest(self, tok: re.Match, node: Expression, *kids: Expression) -> Expression:
        """``node``, one level deeper than the deepest of ``kids``; ``tok`` opened it."""
        depth = 1 + max(self.depth.get(id(kid), 0) for kid in kids)
        self.bound(tok, depth)
        self.depth[id(node)] = depth
        return node

    def parse_expr(self, level: int = 1) -> Expression:
        """Binary operators from precedence ``level`` up to unary minus."""
        node = self.parse_unary()
        while level <= _PRECEDENCE.get((tok := self.current)[0], 0) < _NEG_PRECEDENCE:
            self.advance()
            right = self.parse_expr(_PRECEDENCE[tok[0]] + 1)
            node = self.nest(tok, BinOp(tok[0], node, right), node, right)
        return node

    def parse_unary(self) -> Expression:
        """unary = "-" , unary | atom , [ "^" , unary ] ;"""
        tok = self.current
        self.bound(tok, self.open)
        self.open += 1
        if tok[0] == "-":
            self.advance()
            arg = self.parse_unary()
            node = self.nest(tok, Neg(arg), arg)
        else:
            node = self.parse_atom()
            if (tok := self.current)[0] == "^":
                self.advance()
                expo = self.parse_unary()
                node = self.nest(tok, BinOp("^", node, expo), node, expo)
        self.open -= 1
        return node

    def parse_atom(self) -> Expression:
        tok = self.advance()
        if tok.lastgroup == "num":
            return Num(float(tok[0]))
        if tok[0] == "x":
            return Var()
        if tok[0] in CONSTANTS:
            return Const(tok[0])
        if tok[0] in FUNCTIONS:
            self.expect("(", f"'(' after function {tok[0]!r}")
            arg = self.parse_expr()
            self.expect(")", "')'")
            return self.nest(tok, Call(tok[0], arg), arg)
        if tok.lastgroup == "ident":
            raise ParseError(f"unknown identifier {tok[0]!r}", tok.start(), self.text)
        if tok[0] == "(":
            node = self.parse_expr()
            self.expect(")", "')'")
            return self.nest(tok, node, node)  # the parentheses are a level
        raise ParseError("expected an expression", tok.start(), self.text)


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.current
    if tok.lastgroup != "end":
        raise ParseError(f"unexpected trailing input {tok[0]!r}", tok.start(), text)
    return node


# -- evaluation and compilation ----------------------------------------------

_OVERFLOW = "overflow during evaluation"
_DIVISION_BY_ZERO = "division by zero"
_LOG_DOMAIN = "log of non-positive value {!r}"
_SQRT_DOMAIN = ("<", "sqrt of negative value {!r}")  # the test and message of sqrt's check
_TESTS = {"==": operator.eq, "<=": operator.le, "<": operator.lt}
_INFIX = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


class Binary64:
    """The reference arithmetic: values are floats, all known now, and ``let``
    is the identity.  ``x`` is the abscissa that a failed check reports."""

    def __init__(self, x: float):
        self.x = x

    const = known = let = staticmethod(lambda v: v)
    neg, add, sub, mul, div, pow = (
        operator.neg, operator.add, operator.sub, operator.mul, operator.truediv, operator.pow
    )
    fsum = math.fsum
    exp, log, sin, cos, tan, sqrt = (getattr(math, fn) for fn in FUNCTIONS)
    sqrt_domain = _SQRT_DOMAIN

    @staticmethod
    def sum2(p: float, q: float) -> float:
        """The two-term sum: ``p + q + 0.0`` where that is finite, else
        ``math.fsum((p, q))``, which raises on overflow and on inf - inf."""
        s = p + q + 0.0
        return s if math.isfinite(s) else math.fsum((p, q))

    def check(self, v: float, test: str, message: str) -> None:
        """Raise ``message``, its ``{!r}`` filled with ``v``, if ``v test 0.0``."""
        if _TESTS[test](v, 0.0):
            raise EvaluationError(message.format(v), self.x)


class _Expr(str):
    """Source of an operator expression: it is parenthesised as an operand."""


def _src(v) -> str:
    """Source of a value; numbers are the walker's own literals."""
    if isinstance(v, tuple):
        return f"({', '.join(map(_src, v))},)"
    return repr(v) if isinstance(v, (int, float)) else v


def _operand(v) -> str:
    return f"({v})" if isinstance(v, _Expr) else _src(v)


def _infix(op: str, fold: Callable):
    """``op`` of the tracer; ``fold`` computes it on constants (see :class:`Tracer`)."""
    def apply(self, a, b):
        if folded := self.fold(fold, a, b):
            return folded
        x, y = self.known(a), self.known(b)
        if op in "*/" and y == 1.0 or op == "-" and y == 0.0 and math.copysign(1.0, y) > 0:
            return a
        return b if op == "*" and x == 1.0 else _Expr(f"{_operand(a)} {op} {_operand(b)}")
    return apply


# A traced temporary (no other name in traced source ends in "t" and digits),
# and source that may move to where it is used: + - * (binary or unary) and
# parentheses on names and number literals, so no name before a "(" (a call)
# and no "**".
_TEMP = re.compile(r"t[0-9]+\b")
_ARITHMETIC = re.compile(r"(?:[\w.]+(?![\w.(])|\*(?!\*)|[ ()+-])*")


def _call(fn: str):
    return lambda self, a: self.fold(getattr(math, fn), a) or f"{fn}({_src(a)})"


class Tracer:
    """The compiling arithmetic: values are source text and ops append lines.

    A value is a local or constant name, a number literal of the walker's,
    or an expression that ``let`` binds to a local.  Constants enter as
    names bound to their exact values, so no user text reaches the source;
    equal constants share a name (keyed on ``repr``, which tells -0.0 from
    0.0).  An expression already bound is not bound again: the lines are
    straight-line, each name is assigned once and every operation is
    deterministic, so the first line holds the value that a repeat would.
    A check renders nothing (see the module docstring).

    Only identities true of every binary64 value (signed zeros, infinities,
    NaN) simplify, and what remains keeps its order.  ``neg``, ``+``, ``-``,
    ``*``, ``/``, ``**`` and the six calls of constants, infinite ones too,
    happen now, as the same operations on the same floats.  One that raises
    (``0.0 ** -1``, ``log(0)``, ``exp(1000)``, ``sin(inf)``) stays in the
    lines, to raise at run time.  NaN is never a constant: names are keyed
    on ``repr``, which hides a NaN's sign.  ``1 * t``, ``t * 1``, ``t / 1``
    and ``t - 0.0`` are ``t`` for every ``t``, -0.0 too.  ``t + 0.0``
    stays, as ``-0.0 + 0.0`` is ``0.0``, and ``0.0 * t``, as it is NaN for
    ``t`` = inf.

    ``sum2`` binds ``p + q + 0.0`` to a temporary that ``sums`` records, and
    :meth:`guarded` returns the lines' result only where the recorded sums
    add up to a finite value.

    When the lines become a function, a temporary used once whose definition
    only adds, subtracts, multiplies or negates is inlined at its use (see
    ``_block``), and the scope's constants and functions are its locals.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.bound: dict[str, str] = {}  # source text -> the local bound to it
        self.named: dict[str, str] = {}  # repr of a constant -> its name
        self.constants: dict[str, float] = {}
        self.sums: dict[str, None] = {}  # the temporaries of two-term sums, in order
        self.scope: dict = {"fsum": math.fsum, "isfinite": math.isfinite,
                            **{fn: getattr(math, fn) for fn in FUNCTIONS}}

    def const(self, value: float) -> str:
        key = repr(value)
        if key not in self.named:
            self.named[key] = name = f"k{len(self.named)}"
            self.constants[name] = self.scope[name] = value
        return self.named[key]

    def known(self, v):
        """The value of ``v`` if it is a constant, else None.  Every exponent
        without ``x`` is one, unless it is NaN or raises at run time."""
        return v if isinstance(v, (int, float)) else self.constants.get(v)

    def fold(self, fn: Callable, *args):
        """The constant ``fn(*args)`` if every argument is a constant and it
        neither raises nor is NaN, else None."""
        values = [self.known(a) for a in args]
        try:
            value = None if None in values else fn(*values)
        except (ArithmeticError, ValueError):
            value = None
        return None if value is None or math.isnan(value) else self.const(value)

    def let(self, v):
        if not isinstance(v, str) or v.isidentifier():
            return v
        if v not in self.bound:
            self.bound[v] = f"t{len(self.lines)}"
            self.lines.append(f"{self.bound[v]} = {v}")
        return self.bound[v]

    def neg(self, a):
        return self.fold(operator.neg, a) or _Expr(f"-{_operand(a)}")

    add, sub, mul, div = (_infix(op, getattr(Binary64, name)) for op, name in _INFIX.items())
    pow = _infix("**", Binary64.pow)
    exp, log, sin, cos, tan, sqrt = (_call(fn) for fn in FUNCTIONS)
    sqrt_domain = ()
    check = staticmethod(lambda v, *test_and_message: None)  # renders nothing

    def fsum(self, terms):
        return f"fsum({_src(tuple(terms))})" if terms else 0.0  # fsum(()) is 0.0

    def sum2(self, p, q):
        name = self.let(_Expr(f"{_operand(p)} + {_operand(q)} + 0.0"))
        self.sums[name] = None
        return name

    def _block(self, indent: int, last: str) -> str:
        """The lines, then ``last``, indented.  A temporary used once whose
        definition only adds, subtracts, multiplies or negates is inlined,
        parenthesised, where it is used: on floats none of these raises,
        and the same operations run in the same order."""
        lines = (*self.lines, last)
        uses = Counter(_TEMP.findall("\n".join(lines)))  # a definition is one
        inline: dict[str, str] = {}  # defined, not yet used
        out = []
        for line in lines:
            if inline:
                line = _TEMP.sub(lambda m: inline.pop(m[0], m[0]), line)
            name, _, src = line.partition(" = ")
            if uses[name] == 2 and _ARITHMETIC.fullmatch(src):
                inline[name] = f"({src})"
            else:
                out.append(f"{' ' * indent}{line}\n")
        return "".join(out)

    def _define(self, params: str, body: str, filename: str) -> Callable:
        """The function ``f(params)`` running ``body``.  Each name of the
        scope that ``body`` contains is a default argument, so the body reads
        it as a local rather than a global."""
        header = ", ".join([params, *(f"{n}={n}" for n in self.scope if n in body)])
        exec(compile(f"def f({header}):\n{body}", filename, "exec"), self.scope)
        return self.scope["f"]

    def guarded(self, result, reference: Callable, filename: str) -> Callable:
        """A function of ``x`` running the lines that returns ``result`` if
        the recorded sums add up to a finite value, the one test for all of
        them, and ``reference(x)`` where they do not or a line raises: any
        error, as ``reference`` raises what the point raises."""
        self.scope["reference"] = reference
        last = f"return {_src(result)}"
        if self.sums:
            last = f"if isfinite({' + '.join(self.sums)}): {last}"
        return self._define("x", f"    try:\n{self._block(8, last)}"
                            "    except Exception:\n"
                            "        pass\n"
                            "    return reference(x)\n", filename)

    def pair_terms(self, result) -> Callable:
        """A generator ``f(a, b, h, m, c, we, wm)`` of ``c * (we*fa + wm*fm +
        we*fb)`` over the pairs of subintervals of the ``m`` (even) steps of
        width ``h`` from ``a`` to ``b``, the lines inlined at each node.  Node
        ``j`` is ``a`` for ``j = 0``, ``a + j * h`` for ``0 < j < m`` and ``b``
        for ``j = m``, exactly as :meth:`~msquad.integrand.UniformGrid.nodes`
        places them.  It wraps no error: the caller replays any error
        through the checked ``f``."""
        def at(indent, name):
            return self._block(indent, f"{name} = {_src(result)}")

        return self._define("a, b, h, m, c, we, wm", f"    x = a\n{at(4, 'fa')}"
                            "    for j in range(2, m + 1, 2):\n"
                            f"        x = a + (j - 1) * h\n{at(8, 'fm')}"
                            f"        x = a + j * h if j < m else b\n{at(8, 'fb')}"
                            "        yield c * (we * fa + wm * fm + we * fb)\n"
                            "        fa = fb\n", "<msquad pair terms>")


def evaluate(node: Expression, x: float) -> float:
    """Evaluate the tree at ``x`` in binary64, with domain checks."""
    try:
        return _value(Binary64(x), node, x)
    except OverflowError:
        raise EvaluationError(_OVERFLOW, x) from None


def compile_expression(node: Expression) -> Callable[[float], float]:
    """Compile the tree once into a function of ``x`` that returns and
    raises what :func:`evaluate` does, at a fraction of the cost per point:
    one line per operation, but single-use arithmetic inlined into the line
    that uses it (see :class:`Tracer`), and where a line raises,
    ``evaluate(node, x)``.  Compiling never raises: an error belongs to the
    point that makes it."""
    tracer = Tracer()
    return tracer.guarded(_value(tracer, node, "x"), lambda x: evaluate(node, x),
                          "<msquad expression>")


def compile_pair_terms(node: Expression) -> Callable:
    """Compile the tree once into the generator ``f(a, b, h, m, c, we, wm)``
    of composite pair terms that :mod:`msquad.rules` sums, placing the grid's
    nodes itself (see :meth:`Tracer.pair_terms`)."""
    tracer = Tracer()
    return tracer.pair_terms(_value(tracer, node, "x"))


def _value(A, node: Expression, x):
    """The value of ``node`` in arithmetic ``A``, where ``x`` is the variable."""
    if isinstance(node, Num):
        return A.const(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return A.const(CONSTANTS[node.name])
    if isinstance(node, Neg):
        return A.let(A.neg(_value(A, node.arg, x)))
    if isinstance(node, BinOp):
        left, right = _value(A, node.left, x), _value(A, node.right, x)
        if node.op not in _INFIX:
            return _power(A, left, right, node.right)
        if node.op == "/":
            A.check(right, "==", _DIVISION_BY_ZERO)
        return A.let(getattr(A, _INFIX[node.op])(left, right))
    if isinstance(node, Call) and node.fn in FUNCTIONS:
        arg = _value(A, node.arg, x)
        if node.fn == "log":
            A.check(arg, "<=", _LOG_DOMAIN)
        elif node.fn == "sqrt":
            A.check(arg, *A.sqrt_domain)
        return A.let(getattr(A, node.fn)(arg))
    raise TypeError(f"not an expression node: {node!r}")


def _varies(node: Expression) -> bool:
    """Whether ``x`` occurs in ``node``."""
    return isinstance(node, Var) or any(isinstance(kid, tuple) and _varies(kid) for kid in node)


def _exponent(A, base, expo, node: Expression):
    """The integer ``n`` of ``base ** expo`` after its domain check, or None
    after the non-integer one.  Only an exponent tree ``node`` without ``x``
    makes one, if its value is integral and at most 2**31 in magnitude (±inf
    and NaN fail that test before ``int()``)."""
    e = None if _varies(node) else A.known(expo)
    if e is not None and abs(e) <= 2**31 and e == int(e):
        if e < 0:
            A.check(base, "==", "zero raised to a negative power")
        return int(e)
    A.check(base, "<=", "non-integer power of a non-positive base {!r}")
    return None


def _power(A, base, expo, node: Expression):
    n = _exponent(A, base, expo, node)
    if n is None:
        return A.let(A.exp(A.mul(expo, A.log(base))))
    # b ** 0 is 1.0 for every float b, NaN too.  One product is correctly
    # rounded where pow may be off by an ulp; a longer chain rounds more often
    return A.const(1.0) if n == 0 else A.let(A.mul(base, base) if n == 2 else A.pow(base, n))
