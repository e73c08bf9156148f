"""A tiny closed-form expression language for chart functions.

Grammar (precedence climbing; '^' binds tightest, then unary minus, then
'*' '/', then '+' '-'; binary '+', '-', '*', '/' are left-associative and
'^' is right-associative):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    exponent := a power-level expression that constant-folds to an integer
    atom     := NUMBER | 'pi' | VARIABLE | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := 'sin' | 'cos' | 'exp' | 'atan' | 'sqrt'
    VARIABLE := 'x' DIGITS          -- x1 is the first coordinate (axis 0)
    NUMBER   := digits with optional fraction and exponent part, e.g. 2, 0.5, 1e-3

Syntax errors carry the byte offset into the source; a literal that
overflows the float range is one. Evaluation faults (division by zero,
sqrt of a negative, a non-finite function argument) raise ExprDomainError
naming the offending subexpression. ``evaluate`` takes an (n, dim) array
of points, which it evaluates with one numpy operation per node; powers
and functions use the same libm routines as Python's float arithmetic, so
each point gets the value a scalar evaluation gives.

The AST is closed under differentiation: ``differentiate`` returns another
AST built through folding constructors. Only constant folding is performed;
note that dropping terms multiplied by a literal zero can extend the domain
of a derivative at points where the original expression is undefined.

``to_text`` pretty-prints with minimal parentheses such that
``parse(to_text(e))`` is structurally identical to ``e``.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError
from .geometry import DEFAULT_SCHEME, SYMBOLIC, TensorField, jacobian

FUNCTIONS = ("sin", "cos", "exp", "atan", "sqrt")


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    """A non-negative numeric literal (signs live in Neg nodes)."""

    value: float
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Pi(Expr):
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Expr):
    """Coordinate variable; axis is 0-based, printed as x{axis+1}."""

    axis: int
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Pow(Expr):
    """Integer power of a subexpression."""

    base: Expr
    power: int
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr
    offset: int = field(default=-1, compare=False, repr=False)


# ---------------------------------------------------------------------------
# folding constructors (used by differentiate and programmatic builders; the
# parser builds raw nodes so that printing round-trips exactly)

_ZERO_VALUES = (0.0,)


def lit(value) -> Expr:
    v = float(value)
    if v < 0.0:
        return Neg(Lit(-v))
    return Lit(v + 0.0)  # -0.0 + 0.0 is 0.0, which prints as it parses


def varx(axis: int) -> Expr:
    if axis < 0:
        raise ValueError("variable axis must be >= 0")
    return Var(axis)


def _as_const(e: Expr):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Neg):
        c = _as_const(e.operand)
        return None if c is None else -c
    return None


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Lit) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Lit) and e.value == 1.0


def neg(a: Expr) -> Expr:
    if _is_zero(a):
        return a
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _as_const(a), _as_const(b)
    if ca is not None and cb is not None and math.isfinite(ca + cb):
        return lit(ca + cb)
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _as_const(a), _as_const(b)
    if ca is not None and cb is not None and math.isfinite(ca - cb):
        return lit(ca - cb)
    if _is_zero(b):
        return a
    if _is_zero(a):
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _as_const(a), _as_const(b)
    if ca is not None and cb is not None and math.isfinite(ca * cb):
        return lit(ca * cb)
    if _is_zero(a) or _is_zero(b):
        return Lit(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = _as_const(a), _as_const(b)
    if (ca is not None and cb is not None and cb != 0.0
            and math.isfinite(ca / cb)):
        return lit(ca / cb)
    if _is_zero(a) and cb is not None and cb != 0.0:
        return Lit(0.0)
    if _is_one(b):
        return a
    return BinOp("/", a, b)


def powi(base: Expr, power: int) -> Expr:
    n = int(power)
    if n == 0:
        return Lit(1.0)
    if n == 1:
        return base
    folded = _const_power(_as_const(base), n)
    if folded is not None:
        return lit(folded)
    return Pow(base, n)


def _const_power(c, n: int):
    """c ** n when c is a constant and the result is a finite float, else None.

    An overflowing power stays a ``Pow`` node, so folding never raises where
    ``evaluate`` would report the same overflow as an ExprDomainError.
    """
    if c is None or (c == 0.0 and n < 0):
        return None
    try:
        value = float(c) ** n
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def call(func: str, arg: Expr) -> Expr:
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    return Call(func, arg)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            at = pos + len(source[pos:]) - len(source[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character {source[at]!r}", at)
        if m.group("number") is not None:
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


_BIN_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self) -> Expr:
        e = self.parse_bp(0)
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
        return e

    def parse_bp(self, min_bp: int) -> Expr:
        lhs = self.parse_prefix()
        while True:
            kind, value, offset = self.peek()
            if kind != "op" or value not in _BIN_BP:
                break
            bp = _BIN_BP[value]
            if bp < min_bp:
                break
            self.advance()
            if value == "^":
                lhs = Pow(lhs, self.parse_exponent(offset), offset=offset)
            else:
                rhs = self.parse_bp(bp + 1)
                lhs = BinOp(value, lhs, rhs, offset=offset)
        return lhs

    def parse_exponent(self, caret_offset: int) -> int:
        start = self.peek()[2]
        raw = self.parse_bp(_BIN_BP["^"])  # right-associative chain
        folded = fold(raw)
        c = _as_const(folded)
        if c is None or c != int(c):
            raise ExprSyntaxError("exponent must fold to an integer literal", start)
        return int(c)

    def parse_prefix(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "op" and value == "-":
            return Neg(self.parse_bp(_UNARY_BP), offset=offset)
        if kind == "op" and value == "(":
            inner = self.parse_bp(0)
            self.expect_op(")")
            return inner
        if kind == "number":
            if not math.isfinite(float(value)):
                raise ExprSyntaxError("numeric literal overflows the float range", offset)
            return Lit(float(value), offset=offset)
        if kind == "ident":
            if value == "pi":
                return Pi(offset=offset)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_bp(0)
                self.expect_op(")")
                return Call(value, arg, offset=offset)
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                index = int(m.group(1))
                if index < 1:
                    raise ExprSyntaxError("variables are named x1, x2, ...", offset)
                return Var(index - 1, offset=offset)
            raise ExprSyntaxError(f"unknown identifier {value!r}", offset)
        raise ExprSyntaxError("expected an expression", offset)


def parse(source: str) -> Expr:
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, coords) -> np.ndarray:
    """Evaluate at every row of an (n, dim) array, giving an (n,) array."""
    with np.errstate(all="ignore"):
        value = _eval(e, coords)
    if not np.isfinite(value).all():
        raise ExprDomainError("expression value is not finite", where=to_text(e))
    if np.ndim(value) == 0:
        return np.full(len(coords), float(value))
    return np.array(value, dtype=float)


def _libm(fn, arg):
    """fn applied elementwise through Python's math module.

    numpy's vectorized exp and atan can differ from libm in the last bit,
    and nested stencils amplify such a bit by step^-2, so the batch path
    keeps the values a scalar evaluation gives.
    """
    if np.ndim(arg) == 0:
        return fn(float(arg))
    return np.fromiter(map(fn, arg.tolist()), dtype=float, count=arg.size)


_CALLS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "atan": math.atan}


def _eval(e: Expr, coords):
    """Value of e at every row of coords: an (n,) array, or a scalar when
    e is constant."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        if e.axis >= coords.shape[1]:
            raise ExprDomainError(
                f"variable x{e.axis + 1} exceeds chart dimension {coords.shape[1]}",
                where=to_text(e), offset=e.offset)
        return coords[:, e.axis]
    if isinstance(e, Neg):
        return -_eval(e.operand, coords)
    if isinstance(e, BinOp):
        a = _eval(e.left, coords)
        b = _eval(e.right, coords)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if np.equal(b, 0.0).any():
            raise ExprDomainError("division by zero", where=to_text(e), offset=e.offset)
        return a / b
    if isinstance(e, Pow):
        base = _eval(e.base, coords)
        if e.power < 0 and np.equal(base, 0.0).any():
            raise ExprDomainError("zero raised to a negative power",
                                  where=to_text(e), offset=e.offset)
        # float_power calls libm pow, as Python's float ** int does
        value = np.float_power(base, e.power)
        overflow = np.isinf(value)
        if overflow.any() and (overflow & np.isfinite(base)).any():
            raise ExprDomainError("overflow in power", where=to_text(e), offset=e.offset)
        return value
    if isinstance(e, Call):
        arg = _eval(e.arg, coords)
        if not np.isfinite(arg).all():
            raise ExprDomainError(f"non-finite argument to {e.func}",
                                  where=to_text(e), offset=e.offset)
        if e.func == "sqrt":
            if np.less(arg, 0.0).any():
                raise ExprDomainError("sqrt of a negative value",
                                      where=to_text(e), offset=e.offset)
            return np.sqrt(arg)
        try:
            return _libm(_CALLS[e.func], arg)
        except OverflowError:
            raise ExprDomainError(f"overflow in {e.func}", where=to_text(e),
                                  offset=e.offset) from None
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation and folding

def differentiate(e: Expr, axis: int) -> Expr:
    """Exact partial derivative with respect to coordinate ``axis`` (0-based)."""
    if isinstance(e, (Lit, Pi)):
        return Lit(0.0)
    if isinstance(e, Var):
        return Lit(1.0) if e.axis == axis else Lit(0.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.operand, axis))
    if isinstance(e, BinOp):
        da = differentiate(e.left, axis)
        db = differentiate(e.right, axis)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        return div(sub(mul(da, e.right), mul(e.left, db)), powi(e.right, 2))
    if isinstance(e, Pow):
        da = differentiate(e.base, axis)
        return mul(mul(lit(e.power), powi(e.base, e.power - 1)), da)
    if isinstance(e, Call):
        da = differentiate(e.arg, axis)
        if e.func == "sin":
            return mul(Call("cos", e.arg), da)
        if e.func == "cos":
            return neg(mul(Call("sin", e.arg), da))
        if e.func == "exp":
            return mul(Call("exp", e.arg), da)
        if e.func == "atan":
            return div(da, add(Lit(1.0), powi(e.arg, 2)))
        return div(da, mul(Lit(2.0), Call("sqrt", e.arg)))
    raise TypeError(f"not an expression node: {e!r}")


def fold(e: Expr) -> Expr:
    """Bottom-up constant folding; leaves non-constant structure untouched."""
    if isinstance(e, (Lit, Pi, Var)):
        return e
    if isinstance(e, Neg):
        return neg(fold(e.operand))
    if isinstance(e, BinOp):
        a, b = fold(e.left), fold(e.right)
        op = {"+": add, "-": sub, "*": mul, "/": div}[e.op]
        folded = op(a, b)
        # folding constructors also strip identities; only accept pure
        # constant results, otherwise keep the original operator shape
        if _as_const(folded) is not None:
            return folded
        return BinOp(e.op, a, b)
    if isinstance(e, Pow):
        base = fold(e.base)
        folded = _const_power(_as_const(base), e.power)
        if folded is not None:
            return lit(folded)
        return Pow(base, e.power)
    if isinstance(e, Call):
        arg = fold(e.arg)
        c = _as_const(arg)
        if c is not None:
            try:
                return lit(evaluate(Call(e.func, lit(c)), np.zeros((1, 0)))[0])
            except ExprDomainError:
                pass
        return Call(e.func, arg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# printing

_ATOM_PREC = 100


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _BIN_BP[e.op]
    if isinstance(e, Neg):
        return _UNARY_BP
    if isinstance(e, Pow):
        return _BIN_BP["^"]
    return _ATOM_PREC


def to_text(e: Expr) -> str:
    """Minimal-parenthesis rendering; reparsing yields an identical AST."""
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return f"x{e.axis + 1}"
    if isinstance(e, Neg):
        inner = to_text(e.operand)
        if _prec(e.operand) < _UNARY_BP:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        bp = _BIN_BP[e.op]
        left = to_text(e.left)
        if _prec(e.left) < bp:
            left = f"({left})"
        right = to_text(e.right)
        if _prec(e.right) <= bp:
            right = f"({right})"
        return f"{left}{e.op}{right}"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _prec(e.base) <= _BIN_BP["^"]:
            base = f"({base})"
        return f"{base}^{e.power}"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def variables_used(e: Expr) -> set:
    """Set of 0-based axes referenced by the expression."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.axis)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return out


# ---------------------------------------------------------------------------
# tensor fields backed by expressions

class ExprTensorField(TensorField):
    """TensorField whose components are expressions; keeps the ASTs around."""

    __slots__ = ("exprs",)


def _coerce_exprs(entries):
    arr = np.array(entries, dtype=object)
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        item = arr[idx]
        if isinstance(item, str):
            item = parse(item)
        if not isinstance(item, Expr):
            raise TypeError(f"component {idx} is not an expression or source text")
        out[idx] = item
    return out


def expr_field(dim: int, variance: str, entries) -> ExprTensorField:
    """Build a TensorField whose components are expressions (or source text).

    The field carries exact derivatives: partials differentiate each
    component symbolically. Its ``reads`` are the variables of its entries.
    Component shape must be (dim,)*len(variance).
    """
    exprs = _coerce_exprs(entries)
    expected = (dim,) * len(variance)
    if exprs.shape != expected:
        raise ValueError(f"component array has shape {exprs.shape}, want {expected}")
    reads = set()
    for idx in np.ndindex(expected):
        used = variables_used(exprs[idx])
        if used and max(used) >= dim:
            raise ValueError(
                f"component {idx} references x{max(used) + 1} beyond dimension {dim}")
        reads |= used

    derivative_cache = {}

    @functools.cache
    def plan():
        # literal components are filled in from one array; the others are
        # evaluated, one slice per component. Built on first evaluation, so
        # loading a scenario does not pay for it.
        literals = np.zeros(expected)
        slots = []
        for idx in np.ndindex(expected):
            c = _as_const(exprs[idx])
            if c is not None and math.isfinite(c):
                literals[idx] = c
            else:
                slots.append((exprs[idx], (slice(None),) + idx))
        return literals, slots

    def evaluate_at(coords):
        literals, slots = plan()
        out = np.empty((len(coords),) + expected, dtype=float)
        out[...] = literals
        for expr, slot in slots:
            out[slot] = evaluate(expr, coords)
        return out

    def partial_builder(axis: int) -> TensorField:
        if axis not in derivative_cache:
            diff = np.empty(expected, dtype=object)
            for idx in np.ndindex(expected):
                diff[idx] = differentiate(exprs[idx], axis)
            derivative_cache[axis] = expr_field(dim, variance, diff)
        return derivative_cache[axis]

    fieldobj = ExprTensorField(dim, variance, evaluate_at, partial=partial_builder)
    fieldobj.exprs = exprs
    fieldobj._reads = frozenset(reads)
    return fieldobj


def scalar_field(source, dim: int) -> TensorField:
    return expr_field(dim, "", source)


def gradient_field(scalar: TensorField, scheme=None) -> TensorField:
    """One-form field of partial derivatives of a scalar field.

    Expression-backed scalars yield an expression-backed gradient (exact,
    differentiable again); anything else is evaluated with the supplied
    finite-difference scheme (defaults to the package default).
    """
    if scalar.variance != "":
        raise ValueError("gradient_field expects a scalar field")
    dim = scalar.dim
    used_scheme = scheme or DEFAULT_SCHEME

    if isinstance(scalar, ExprTensorField) and used_scheme.kind == SYMBOLIC:
        e = scalar.exprs[()]
        return expr_field(dim, "l", [differentiate(e, a) for a in range(dim)])

    return TensorField(dim, "l", lambda q: jacobian(scalar, q, used_scheme))
