"""The FBQP text format: a line-oriented QP container with an optional warmstart.

    FBQP 1
    n 2
    q 1
    H
    1.0 0.0
    0.0 1.0
    f
    -1.0 0.0
    A
    1.0 1.0
    b
    0.5
    x0            # optional, n+q floats
    0.5 0.0 0.25

Whitespace separates tokens, `#` starts a comment, floats may be decimal or
scientific, and each section keyword (H, f, A, b, x0) stands alone on its
line. Serialization uses shortest round-trip decimals, so
parse(serialize(p)) reproduces every value exactly.
"""

from __future__ import annotations

from .errors import DimensionMismatch, ParseError
from .problem import PrimalDualPoint, QpProblem, _check_dims, _check_type

MAGIC = "FBQP"
VERSION = "1"


def _content_lines(text: str):
    """(line_number, tokens) for every line that has content after comment
    stripping."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


class _Cursor:
    def __init__(self, text: str):
        self.lines = list(_content_lines(text))
        self.pos = 0
        self.last_line = self.lines[-1][0] if self.lines else 0

    def next(self):
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file", self.last_line)
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None


def _expect_keyword(cursor: _Cursor, keyword: str, form: str = ""):
    """(lineno, tokens) of the next line, which must read `form`: the keyword
    alone unless a form such as 'n <int>' is given."""
    form = form or keyword
    lineno, tokens = cursor.next()
    if tokens[0] != keyword:
        raise ParseError(f"expected {keyword!r}, got {tokens[0]!r}", lineno)
    if len(tokens) != len(form.split()):
        raise ParseError(f"{keyword} line must be '{form}'", lineno)
    return lineno, tokens


def _read_int(tokens, lineno, keyword) -> int:
    try:
        value = int(tokens[1])
    except ValueError:
        raise ParseError(f"{keyword} must be an integer, got {tokens[1]!r}", lineno) from None
    if value < 1:
        raise ParseError(f"{keyword} must be positive, got {value}", lineno)
    return value


def _read_row(cursor: _Cursor, count: int, what: str):
    lineno, tokens = cursor.next()
    if len(tokens) != count:
        raise DimensionMismatch(f"{what} needs {count} values, got {len(tokens)}", lineno)
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", lineno) from None


def parse_qp(text: str):
    """Parse FBQP text into (QpProblem, PrimalDualPoint or None)."""
    cursor = _Cursor(text)
    lineno, tokens = cursor.next()
    if tokens[:1] != [MAGIC] or len(tokens) != 2:
        raise ParseError(f"first line must be '{MAGIC} {VERSION}'", lineno)
    if tokens[1] != VERSION:
        raise ParseError(f"unsupported version {tokens[1]!r}", lineno)
    lineno, tokens = _expect_keyword(cursor, "n", "n <int>")
    n = _read_int(tokens, lineno, "n")
    lineno, tokens = _expect_keyword(cursor, "q", "q <int>")
    q = _read_int(tokens, lineno, "q")
    _expect_keyword(cursor, "H")
    H = [_read_row(cursor, n, f"H row {i + 1}") for i in range(n)]
    _expect_keyword(cursor, "f")
    f = _read_row(cursor, n, "f")
    _expect_keyword(cursor, "A")
    A = [_read_row(cursor, n, f"A row {i + 1}") for i in range(q)]
    _expect_keyword(cursor, "b")
    b = _read_row(cursor, q, "b")
    x0 = None
    if cursor.peek() is not None:
        lineno, tokens = _expect_keyword(cursor, "x0")
        values = _read_row(cursor, n + q, "x0")
        x0 = PrimalDualPoint(values[:n], values[n:])
    trailing = cursor.peek()
    if trailing is not None:
        raise ParseError(f"unexpected content {trailing[1][0]!r}", trailing[0])
    return QpProblem(H, f, A, b), x0


def _fmt_row(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def serialize_qp(p: QpProblem, x0: PrimalDualPoint | None = None) -> str:
    """Render a problem and an optional warmstart x0 (InvalidProblem unless it
    matches p's (n, q)) as FBQP text."""
    _check_type(p, QpProblem, "p")
    lines = [f"{MAGIC} {VERSION}", f"n {p.n}", f"q {p.q}", "H"]
    lines += [_fmt_row(row) for row in p.H]
    lines += ["f", _fmt_row(p.f), "A"]
    lines += [_fmt_row(row) for row in p.A]
    lines += ["b", _fmt_row(p.b)]
    if x0 is not None:
        _check_dims(x0, p.n, p.q, "x0")
        lines += ["x0", _fmt_row(x0.as_vector())]
    return "\n".join(lines) + "\n"
