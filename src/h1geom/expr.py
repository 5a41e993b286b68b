"""Arithmetic-expression parser with forward-mode dual-number differentiation.

Grammar (standard precedence, ^ right-associative and tighter than unary minus):

    expr    := term  (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Tokens (the pattern _TOKEN) may be separated by whitespace (str.isspace).
NUMBER is decimal digits, an optional '.' and digits, and an exponent [eE][+-]?
only where digits follow it.  IDENT starts with a letter, '_' or other numeral
(Unicode No, Nl: '²', '½'), and goes on with those or decimal digits.
Identifiers are the variables u, v, t, the constants pi and e, and the
function names sin cos tan sinh cosh tanh sqrt exp ln abs atan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .batch import elementwise, power

__all__ = [
    "Expr",
    "Dual2",
    "ParseError",
    "EvalError",
    "ExprDomainError",
    "parse",
    "pretty",
    "eval_dual",
    "eval_hyperdual",
    "FUNCTIONS",
    "MAX_DEPTH",
    "VARIABLES",
    "CONSTANTS",
]

VARIABLES = ("u", "v", "t")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "sqrt", "exp", "ln", "abs", "atan")

SQRT_CLAMP = 1e-12  # arguments in [-SQRT_CLAMP, 0] are clamped to 0 before the domain check
# Deepest nesting (parentheses, calls, signs, exponents) and deepest tree the
# parser accepts; parsing and evaluation recurse once per level.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    pass


class ExprDomainError(EvalError):
    """Function argument outside its domain; carries the offending subexpression."""

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{pretty(subexpr)}'")
        self.subexpr = subexpr


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Const:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Unary:
    operand: "Expr"
    pos: int = 0


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"
    pos: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    pos: int = 0


Expr = Union[Num, Var, Const, Unary, Bin, Call]


# ---------------------------------------------------------------------------
# Tokenizer / parser


# One token named by its kind, or none at the end or at a character no token starts with
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\)))?"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'lparen' | 'rparen' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens, m = [], _TOKEN.match(text)
    while m.lastgroup:
        tokens.append(_Token(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
        m = _TOKEN.match(text, m.end())
    if m.end() < len(text):
        raise ParseError(f"unexpected character {text[m.end()]!r}", m.end())
    return tokens + [_Token("end", "", m.end())]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            found = tok.text or "end of input"
            raise ParseError(f"expected {want!r}, found {found!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        _check_height(node)
        return node

    def nested(self, parse, pos: int) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        node = parse()
        self.depth -= 1
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            node = Bin(op.text, node, self.term(), op.pos)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            node = Bin(op.text, node, self.unary(), op.pos)
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary(self.nested(self.unary, tok.pos), tok.pos)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right operand at unary level gives right associativity and 2^-3
            node = Bin("^", node, self.nested(self.unary, tok.pos), tok.pos)
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), tok.pos)
        if tok.kind == "lparen":
            self.advance()
            node = self.nested(self.expr, tok.pos)
            self.expect("rparen")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                self.expect("lparen", "(")
                arg = self.nested(self.expr, tok.pos)
                self.expect("rparen")
                return Call(name, arg, tok.pos)
            if name in VARIABLES:
                return Var(name, tok.pos)
            if name in CONSTANTS:
                return Const(name, tok.pos)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        found = tok.text or "end of input"
        raise ParseError(f"expected a value, found {found!r}", tok.pos)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


def _check_height(tree: Expr) -> None:
    """ParseError if a node lies more than MAX_DEPTH edges below the root.

    Operator chains such as u+u+...+u grow the tree without nesting; the
    walk keeps its own stack.
    """
    stack = [(tree, 0)]
    while stack:
        node, height = stack.pop()
        if height > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", node.pos)
        for name in ("left", "right", "operand", "arg"):
            if hasattr(node, name):
                stack.append((getattr(node, name), height + 1))


# ---------------------------------------------------------------------------
# Pretty printer (fixed point of parse-then-print)

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, Bin):
        if e.op in "+-":
            return _LEVEL_ADD
        if e.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(e, Unary):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def pretty(e: Expr) -> str:
    if isinstance(e, Num):
        return f"{e.value:.17g}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({pretty(e.arg)})"
    if isinstance(e, Unary):
        inner = pretty(e.operand)
        if _level(e.operand) < _LEVEL_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        mine = _level(e)
        left, right = pretty(e.left), pretty(e.right)
        if e.op == "^":
            if _level(e.left) <= _LEVEL_POW:
                left = f"({left})"
            if _level(e.right) < _LEVEL_UNARY:
                right = f"({right})"
        else:
            if _level(e.left) < mine:
                left = f"({left})"
            if _level(e.right) <= mine:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Dual numbers


@dataclass(slots=True, unsafe_hash=True)
class Dual2:
    """Value with exact first partials with respect to two active variables.

    The parts are floats, or Dual2s with float parts: nested once, the value
    part holds (f, f_u, f_v) and the partial parts (f_u, f_uu, f_uv) and
    (f_v, f_vu, f_vv), a hyper-dual number carrying exact second partials
    (Fike & Alonso, AIAA 2011-886).  Float parts see exactly the arithmetic
    of the first-order rules, so a nested evaluation reproduces the value
    and first partials of a first-order one bit for bit.

    Not frozen, because a frozen dataclass constructs about twice as slowly;
    nothing assigns to a Dual2 after construction, so it hashes by value.

    The float parts may also be one-dimensional arrays over a batch of
    points (see ``h1geom.batch``); the rules then hold point by point, and
    ``__array_ufunc__ = None`` makes ``array * dual`` use the dual rules.
    """

    value: float
    d_u: float = 0.0
    d_v: float = 0.0

    __array_ufunc__ = None

    def __add__(self, o):
        return Dual2(self.value + o.value, self.d_u + o.d_u, self.d_v + o.d_v)

    def __sub__(self, o):
        return Dual2(self.value - o.value, self.d_u - o.d_u, self.d_v - o.d_v)

    def __neg__(self):
        return Dual2(-self.value, -self.d_u, -self.d_v)

    def __mul__(self, o):
        return Dual2(
            self.value * o.value,
            self.value * o.d_u + self.d_u * o.value,
            self.value * o.d_v + self.d_v * o.value,
        )

    def __truediv__(self, o):
        val = ieee_div(self.value, o.value)
        den = o.value * o.value
        return Dual2(
            val,
            ieee_div(self.d_u * o.value - self.value * o.d_u, den),
            ieee_div(self.d_v * o.value - self.value * o.d_v, den),
        )

    def __pow__(self, p):
        """Constant real power; float parts use libm pow, as ``float ** p`` does."""
        slope = p * power(self.value, p - 1)
        return Dual2(power(self.value, p), slope * self.d_u, slope * self.d_v)

    # A plain number on the left acts as a constant.
    def __radd__(self, c):
        return Dual2(c + self.value, self.d_u, self.d_v)

    def __rsub__(self, c):
        return Dual2(c - self.value, -self.d_u, -self.d_v)

    def __rmul__(self, c):
        return Dual2(c * self.value, c * self.d_u, c * self.d_v)

    def __rtruediv__(self, c):
        return _const_like(self, c) / self

    def chain(self, value, slope) -> "Dual2":
        return Dual2(value, slope * self.d_u, slope * self.d_v)


_ZERO = Dual2(0.0)
_ONE = Dual2(1.0)


def _innermost(x) -> float:
    while type(x) is Dual2:
        x = x.value
    return x


def _const_like(x, c):
    """The constant c with the nesting of x."""
    if type(x) is Dual2:
        zero = _const_like(x.value, 0.0)
        return Dual2(_const_like(x.value, c), zero, zero)
    return c


def ieee_div(a, b):
    """a / b with IEEE results (inf, nan) where Python's float division raises."""
    try:
        return a / b  # Dual2 and numpy arrays divide by zero as IEEE does
    except ZeroDivisionError:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _safe_pow(b: float, p: float) -> float:
    if b == 0.0:
        if p > 0.0:
            return 0.0
        return 1.0 if p == 0.0 else math.inf
    try:
        return b ** p
    except OverflowError:
        even = p == float(int(p)) and int(p) % 2 == 0
        return math.inf if (b > 0.0 or even) else -math.inf


# Branches that depend on values are taken per point on a batch: where the
# points of a batch disagree on a branch, _split evaluates the function
# again on each group of points, so a branch never sees, or raises for, a
# point that takes the other one.


def _any(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def _first(x, mask) -> float:
    """The value of x at the first point where mask holds (x itself for a float)."""
    return float(x[np.flatnonzero(mask)[0]]) if isinstance(mask, np.ndarray) else x


def _uniform(cond):
    """cond as one bool, or None on a batch whose points disagree."""
    if isinstance(cond, np.ndarray):
        return True if cond.all() else (False if not cond.any() else None)
    return cond


def _take(x, idx):
    """The points idx of a batch value; float parts are shared by every point."""
    if type(x) is Dual2:
        return Dual2(_take(x.value, idx), _take(x.d_u, idx), _take(x.d_v, idx))
    return x[idx] if isinstance(x, np.ndarray) else x


def _merge(n: int, pieces):
    """Scatter (indices, value) pieces of one Dual2 nesting into arrays of n points."""
    if type(pieces[0][1]) is Dual2:
        return Dual2(
            *(_merge(n, [(idx, getattr(x, part)) for idx, x in pieces]) for part in ("value", "d_u", "d_v"))
        )
    out = np.empty(n)
    for idx, x in pieces:
        out[idx] = x
    return out


def _split(mask, f, *args):
    """f(*args) evaluated apart where the mask of a batch fails, then where it holds."""
    pieces = [(idx, f(*(_take(a, idx) for a in args))) for idx in (np.flatnonzero(~mask), np.flatnonzero(mask))]
    return _merge(len(mask), pieces)


def _pow(b, p: float, node: Expr):
    """b ** p for a constant exponent p and a float, array or Dual2 base b."""
    if type(b) is not Dual2:
        if type(b) is float:
            return _safe_pow(b, p)
        if isinstance(b, np.ndarray) and (p == 0.0 or p == 1.0):
            # _safe_pow's values exactly: 1 at p = 0, NaN included; b at p = 1, with +0.0 for -0.0
            return np.ones(b.shape) if p == 0.0 else b + 0.0
        return elementwise(_safe_pow, b, p)
    bv = _innermost(b)
    if not math.isfinite(p):
        raise ExprDomainError(f"non-finite exponent {p!r}", node)
    if p == float(int(p)) and abs(p) < 1e15:
        if p == 0.0:
            return _const_like(b, 1.0)
        regular, other_slope = p >= 1.0 or bv != 0.0, math.inf
    elif _any(bv < 0.0):
        raise ExprDomainError(f"negative base {_first(bv, bv < 0.0)!r} with non-integer exponent", node)
    else:
        regular, other_slope = bv > 0.0, (0.0 if p > 1.0 else math.inf)
    if type(regular) is not bool:  # a batch
        if _uniform(regular) is None:
            return _split(regular, lambda b: _pow(b, p, node), b)
        regular = _uniform(regular)
    slope = p * _pow(b.value, p - 1.0, node) if regular else other_slope
    return b.chain(_pow(b.value, p, node), slope)


def _constant(e: Expr) -> bool:
    """True iff no variable occurs in e; the walk keeps its own stack, as _check_height does."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            return False
        stack.extend(getattr(node, name) for name in ("left", "right", "operand", "arg") if hasattr(node, name))
    return True


def _dual_pow(base: Dual2, expo: Dual2, node: Expr) -> Dual2:
    b, p = base.value, expo.value
    # constant iff no variable occurs in the exponent, whatever values its partials take at a point,
    # so the first-order and hyper-dual passes take the same branch at every point
    if _constant(node.right):
        return _pow(base, _innermost(p), node)
    bv = _innermost(b)
    if _any(bv <= 0.0):
        raise ExprDomainError(f"non-positive base {_first(bv, bv <= 0.0)!r} with varying exponent", node)
    val = _dual_pow(b, p, node) if type(b) is Dual2 else elementwise(_safe_pow, b, p)
    log_b = _apply("ln", b, node)
    du = val * (expo.d_u * log_b + p * base.d_u / b)
    dv = val * (expo.d_v * log_b + p * base.d_v / b)
    return Dual2(val, du, dv)


def _safe(fn, x: float) -> float:
    try:
        return fn(x)
    except OverflowError:
        return math.copysign(math.inf, x) if fn in (math.sinh,) else math.inf


# fn -> (its value at a float, its slope from x and the value f; x and f
# are floats, arrays or Dual2s).  The domain limits (ln, sqrt, and sin, cos and
# tan at infinity) are checked in _dual_call, so the slopes evaluate cos, sin,
# cosh and sinh without a node.
_RULES = {
    "sin": (math.sin, lambda x, f: _apply("cos", x)),
    "cos": (math.cos, lambda x, f: -_apply("sin", x)),
    "tan": (math.tan, lambda x, f: 1.0 + f * f),
    "sinh": (lambda x: _safe(math.sinh, x), lambda x, f: _apply("cosh", x)),
    "cosh": (lambda x: _safe(math.cosh, x), lambda x, f: _apply("sinh", x)),
    "tanh": (math.tanh, lambda x, f: 1.0 - f * f),
    "exp": (lambda x: _safe(math.exp, x), lambda x, f: f),
    "ln": (math.log, lambda x, f: 1.0 / x),
    "sqrt": (math.sqrt, lambda x, f: 0.5 / f),
    "abs": (abs, lambda x, f: elementwise(_abs_slope, _innermost(x))),
    "atan": (math.atan, lambda x, f: 1.0 / (1.0 + x * x)),
}


def _abs_slope(x: float) -> float:
    return 0.0 if x == 0.0 else math.copysign(1.0, x)


def _apply(fn: str, x, node: Expr = None):
    """fn at a float or an array, or at a Dual2 through the dual rules."""
    if type(x) is Dual2:
        return _dual_call(fn, x, node)
    f = _RULES[fn][0]
    return f(x) if type(x) is float else elementwise(f, x)


def _zero_root_slope(d: float) -> float:
    # sqrt at a zero root: a partial vanishes where the argument's does, else it is infinite
    return 0.0 if d == 0.0 else math.copysign(math.inf, d)


def _zero_root_partial(d):
    if type(d) is Dual2:
        return Dual2(_zero_root_partial(d.value), _zero_root_partial(d.d_u), _zero_root_partial(d.d_v))
    return elementwise(_zero_root_slope, d)


def _dual_call(fn: str, arg: Dual2, node: Expr) -> Dual2:
    if fn not in _RULES:
        raise EvalError(f"unknown function {fn!r}")
    x = arg.value
    xv = _innermost(x)
    if fn in ("sin", "cos", "tan") and _any(abs(xv) == math.inf):
        raise ExprDomainError(f"{fn} of infinite value {_first(xv, abs(xv) == math.inf)!r}", node)
    if fn == "ln" and _any(xv <= 0.0):
        raise ExprDomainError(f"ln of non-positive value {_first(xv, xv <= 0.0)!r}", node)
    if fn == "sqrt" and _any(xv <= 0.0):
        if _any(xv < -SQRT_CLAMP):
            raise ExprDomainError(f"sqrt of negative value {_first(xv, xv < -SQRT_CLAMP)!r}", node)
        clamped = xv <= 0.0
        if _uniform(clamped) is None:
            return _split(clamped, lambda arg: _dual_call(fn, arg, node), arg)
        root = _dual_call("sqrt", x, node) if type(x) is Dual2 else 0.0  # clamped to 0
        return Dual2(root, _zero_root_partial(arg.d_u), _zero_root_partial(arg.d_v))
    f = _apply(fn, x, node)
    return arg.chain(f, _RULES[fn][1](x, f))


def _eval(e: Expr, bindings: dict, const=Dual2):
    if isinstance(e, Num):
        return const(e.value)
    if isinstance(e, Const):
        return const(CONSTANTS[e.name])
    if isinstance(e, Var):
        try:
            return bindings[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Unary):
        return -_eval(e.operand, bindings, const)
    if isinstance(e, Call):
        return _dual_call(e.fn, _eval(e.arg, bindings, const), e)
    if isinstance(e, Bin):
        left = _eval(e.left, bindings, const)
        right = _eval(e.right, bindings, const)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            return left / right
        if e.op == "^":
            return _dual_pow(left, right, e)
    raise TypeError(f"not an expression node: {e!r}")


def eval_dual(e: Expr, u: float, v: float) -> Dual2:
    """Value and first partials in u and v as a first-order Dual2.

    It equals the value part of eval_hyperdual bit for bit (see Dual2) and
    refuses the same points, at a fraction of the cost: both passes take
    an exponent as constant iff no variable occurs in it, so they take the
    same branch of every power.  u and v may be arrays over a batch of
    points; a domain error at any point raises.
    """
    u, v = as_coordinate(u), as_coordinate(v)
    return _eval(e, {"u": Dual2(u, 1.0, 0.0), "v": Dual2(v, 0.0, 1.0)})


def eval_hyperdual(e: Expr, u: float, v: float) -> Dual2:
    """Value, first and second partials in u and v as a nested Dual2.

    The value part is the first-order dual (f, f_u, f_v) of a first-order
    pass bit for bit (see Dual2); the d_u and d_v parts are the first-order
    duals of f_u and f_v.  u and v may be arrays over a batch of points; a
    domain error at any point raises.
    """
    u, v = as_coordinate(u), as_coordinate(v)
    seeds = {"u": Dual2(Dual2(u, 1.0, 0.0), _ONE, _ZERO), "v": Dual2(Dual2(v, 0.0, 1.0), _ZERO, _ONE)}
    return _eval(e, seeds, lambda c: Dual2(Dual2(c), _ZERO, _ZERO))


def as_coordinate(x):
    """A float, or a float array for a batch of points."""
    return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)


def _eval_dual_t(e: Expr, t: float) -> Dual2:
    """Value and d/dt (in the d_u slot) for a single-variable expression in t."""
    return _eval(e, {"t": Dual2(float(t), 1.0, 0.0)})
