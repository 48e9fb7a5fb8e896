"""Expression parsing, canonical printing, and ring-spec strings.

The expression grammar is deliberately strict: no implicit multiplication,
`^` takes a literal non-negative integer exponent and binds tighter than
unary minus.  Formatting is the exact inverse: parse(format(e)) == e for
every element the formatters emit.
"""

import re

from . import rings
from .errors import NonInvertibleError, ParseError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^();,\[\]]))"
)


def _tokenize(text):
    toks = []
    pos = 0
    text = text.rstrip()
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            # skip leading blanks to point at the offender
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError("unexpected character %r" % text[at], at + 1)
        if m.end() == m.start():
            break
        if m.lastgroup == "num":
            toks.append(("num", int(m.group("num")), m.start("num") + 1))
        elif m.lastgroup == "name":
            toks.append(("name", m.group("name"), m.start("name") + 1))
        else:
            toks.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    toks.append(("end", None, n + 1))
    return toks


class _Cursor:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, pos)
        return pos


# Expr nodes: ("int", v, pos) | ("sym", name, pos) | ("neg", e, pos)
# | ("add"|"sub"|"mul"|"div", l, r, pos) | ("pow", e, k, pos)


def parse_expr(text):
    """Text -> Expr tree; raises ParseError with a 1-based position."""
    cur = _Cursor(text)
    e = _expr(cur)
    kind, val, pos = cur.peek()
    if kind != "end":
        raise ParseError("unexpected %r" % (val,), pos)
    return e


# infix operators by precedence level, loosest first, with their node kinds
_INFIX = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})


def _expr(cur, level=0):
    """Left-associative chain of the level's infix operators; operands are
    chains of the next level, and unary expressions below the last."""
    if level == len(_INFIX):
        return _unary(cur)
    ops = _INFIX[level]
    e = _expr(cur, level + 1)
    while True:
        kind, val, pos = cur.peek()
        if kind != "op" or val not in ops:
            return e
        cur.next()
        e = (ops[val], e, _expr(cur, level + 1), pos)


def _unary(cur):
    kind, val, pos = cur.peek()
    if kind == "op" and val == "-":
        cur.next()
        return ("neg", _unary(cur), pos)
    return _power(cur)


def _power(cur):
    e = _atom(cur)
    kind, val, pos = cur.peek()
    if kind == "op" and val == "^":
        cur.next()
        ekind, ev, epos = cur.next()
        if ekind != "num":
            raise ParseError("exponent must be a non-negative integer literal", epos)
        return ("pow", e, ev, pos)
    return e


def _atom(cur):
    kind, val, pos = cur.next()
    if kind == "num":
        return ("int", val, pos)
    if kind == "name":
        return ("sym", val, pos)
    if kind == "op" and val == "(":
        e = _expr(cur)
        cur.expect_op(")")
        return e
    raise ParseError("expected a value", pos)


def eval_expr(expr, ring, symbols=None):
    """Evaluate an Expr tree with the ring's arithmetic."""
    if symbols is None:
        symbols = ring.symbols()
    op = expr[0]
    if op == "int":
        return ring.of(expr[1])
    if op == "sym":
        try:
            return symbols[expr[1]]
        except KeyError:
            raise ParseError("unknown symbol %r" % expr[1], expr[2]) from None
    if op == "neg":
        return ring.neg(eval_expr(expr[1], ring, symbols))
    if op == "pow":
        return ring.pow(eval_expr(expr[1], ring, symbols), expr[2])
    l = eval_expr(expr[1], ring, symbols)
    r = eval_expr(expr[2], ring, symbols)
    if op == "add":
        return ring.add(l, r)
    if op == "sub":
        return ring.sub(l, r)
    if op == "mul":
        return ring.mul(l, r)
    if ring.is_field:
        try:
            return ring.div(l, r)
        except (ZeroDivisionError, NonInvertibleError):
            raise ParseError("division by a non-invertible element", expr[3]) from None
    # outside fields only exact quotients exist, e.g. "(1/2)*x" over Q[x]
    try:
        return ring.exact_div(l, r)
    except (ArithmeticError, ValueError):
        raise ParseError("division is not exact in %s" % (ring,), expr[3]) from None


def parse_element(text, ring):
    return eval_expr(parse_expr(text), ring)


# ---------------------------------------------------------------- formatting

_BARE = re.compile(r"[A-Za-z0-9_]+\Z")


def _wrap(s):
    """Parenthesize anything that is not a bare literal or symbol."""
    return s if _BARE.match(s) else "(%s)" % s


def _neg_split(K, c):
    """(is_negative, |c|) where the coefficient ring has usable signs."""
    if isinstance(K, rings.IntegerRing):
        return (c < 0, -c) if c < 0 else (False, c)
    if K == rings.QQ:
        if c.num < 0:
            return True, rings.Rational(-c.num, c.den)
        return False, c
    return False, c


def _join_terms(parts):
    """parts: [(negative, rendered)] in emission order -> signed sum text."""
    out = []
    for i, (neg, body) in enumerate(parts):
        if i == 0:
            out.append("-" + body if neg else body)
        else:
            out.append(" - " + body if neg else " + " + body)
    return "".join(out)


def _mono_text(var, d):
    return var if d == 1 else "%s^%d" % (var, d)


def _coeff_term(K, c, mono):
    """Render coeff*mono with the sign pulled out; mono may be empty."""
    neg, mag = _neg_split(K, c)
    if not mono:
        return neg, _wrap(K.format(mag)) if neg else K.format(mag)
    if K.is_one(mag):
        return neg, mono
    return neg, "%s*%s" % (_wrap(K.format(mag)), mono)


def format_unipoly(R, a):
    """Ascending-degree rendering: "15 + 7*x + x^2"; zero -> "0"."""
    K = R.cring
    parts = []
    for d, c in enumerate(a.coeffs):
        if K.is_zero(c):
            continue
        mono = "" if d == 0 else _mono_text(R.var, d)
        parts.append(_coeff_term(K, c, mono))
    if not parts:
        return "0"
    return _join_terms(parts)


def format_multipoly(R, a):
    """Terms descending in the ring's monomial order."""
    K = R.cring
    key = R.order.key
    parts = []
    for e in sorted(a.terms, key=key, reverse=True):
        factors = [
            _mono_text(v, d) for v, d in zip(R.vars, e) if d > 0
        ]
        parts.append(_coeff_term(K, a.terms[e], "*".join(factors)))
    if not parts:
        return "0"
    return _join_terms(parts)


def format_fraction(field, a):
    """num/den with parentheses where reparsing would need them."""
    inner = field.inner
    if inner.is_one(a.den):
        return inner.format(a.num)
    return "%s/%s" % (_wrap(inner.format(a.num)), _wrap(inner.format(a.den)))


# --------------------------------------------------------------- ring specs


def parse_ring(text):
    """Ring-spec grammar:
    Z | Q | Zp[p] | Zm[m] | GF[p,k,name] | Frac(<ring>) | Poly(<ring>; vars; order)
    """
    cur = _Cursor(text)
    ring = _ring(cur)
    kind, val, pos = cur.peek()
    if kind != "end":
        raise ParseError("unexpected %r after ring spec" % (val,), pos)
    return ring


def _ring(cur):
    kind, name, pos = cur.next()
    if kind != "name":
        raise ParseError("expected a ring name", pos)
    if name == "Z":
        return rings.ZZ
    if name == "Q":
        return rings.QQ
    if name in ("Zp", "Zm"):
        cur.expect_op("[")
        m = _int(cur)
        cur.expect_op("]")
        return rings.ZpRing(m) if name == "Zp" else rings.ZmRing(m)
    if name == "GF":
        cur.expect_op("[")
        p = _int(cur)
        cur.expect_op(",")
        k = _int(cur)
        var = "t"
        kind, val, _ = cur.peek()
        if kind == "op" and val == ",":
            cur.next()
            nkind, var, npos = cur.next()
            if nkind != "name":
                raise ParseError("expected a generator name", npos)
        cur.expect_op("]")
        from .galois import GFRing

        return GFRing(p, k, var)
    if name == "Frac":
        cur.expect_op("(")
        inner = _ring(cur)
        cur.expect_op(")")
        return rings.FractionField(inner)
    if name == "Poly":
        cur.expect_op("(")
        inner = _ring(cur)
        cur.expect_op(";")
        names = [_name(cur)]
        while True:
            kind, val, _ = cur.peek()
            if kind == "op" and val == ",":
                cur.next()
                names.append(_name(cur))
            else:
                break
        order = "GREVLEX"
        kind, val, _ = cur.peek()
        if kind == "op" and val == ";":
            cur.next()
            okind, order, opos = cur.next()
            if okind != "name" or order not in ("LEX", "GRLEX", "GREVLEX"):
                raise ParseError("expected LEX, GRLEX or GREVLEX", opos)
        cur.expect_op(")")
        if len(names) == 1:
            from .unipoly import UniRing

            return UniRing(inner, names[0])
        from .multipoly import MultiRing

        return MultiRing(inner, names, order)
    raise ParseError("unknown ring %r" % name, pos)


def _int(cur):
    kind, val, pos = cur.next()
    if kind != "num":
        raise ParseError("expected an integer", pos)
    return val


def _name(cur):
    kind, val, pos = cur.next()
    if kind != "name":
        raise ParseError("expected a variable name", pos)
    return val
