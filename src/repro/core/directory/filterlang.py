"""RFC-2254-subset search filters.

Consumers discover sensors with LDAP search filters such as::

    (&(objectclass=sensor)(host=dpss1.lbl.gov))
    (|(sensortype=cpu)(sensortype=memory))
    (&(objectclass=sensor)(!(status=stopped))(sensor=vm*))

Supported: ``&`` ``|`` ``!`` composition, equality, presence (``=*``),
substring wildcards (``*``), and ``>=`` / ``<=`` numeric-or-lexical
comparison.  Matching is case-insensitive on attribute names (as in
LDAP) and case-sensitive on values.
"""

from __future__ import annotations

import fnmatch
import re
from functools import lru_cache

from .entry import Entry

__all__ = ["SearchFilter", "parse_filter", "parse_filter_cached",
           "FilterSyntaxError", "AndFilter", "OrFilter", "NotFilter",
           "CompareFilter", "PresenceFilter", "SubstringFilter",
           "EqualityFilter"]


class FilterSyntaxError(ValueError):
    """Malformed search filter."""


class SearchFilter:
    """Base class; subclasses implement :meth:`matches`."""

    def matches(self, entry: Entry) -> bool:
        raise NotImplementedError

    def __call__(self, entry: Entry) -> bool:
        return self.matches(entry)


class AndFilter(SearchFilter):
    def __init__(self, parts: list[SearchFilter]):
        self.parts = parts

    def matches(self, entry: Entry) -> bool:
        return all(p.matches(entry) for p in self.parts)

    def __repr__(self) -> str:
        return "(&" + "".join(map(repr, self.parts)) + ")"


class OrFilter(SearchFilter):
    def __init__(self, parts: list[SearchFilter]):
        self.parts = parts

    def matches(self, entry: Entry) -> bool:
        return any(p.matches(entry) for p in self.parts)

    def __repr__(self) -> str:
        return "(|" + "".join(map(repr, self.parts)) + ")"


class NotFilter(SearchFilter):
    def __init__(self, part: SearchFilter):
        self.part = part

    def matches(self, entry: Entry) -> bool:
        return not self.part.matches(entry)

    def __repr__(self) -> str:
        return f"(!{self.part!r})"


class PresenceFilter(SearchFilter):
    def __init__(self, attr: str):
        self.attr = attr.lower()

    def matches(self, entry: Entry) -> bool:
        return entry.has(self.attr)

    def __repr__(self) -> str:
        return f"({self.attr}=*)"


class EqualityFilter(SearchFilter):
    def __init__(self, attr: str, value: str):
        self.attr = attr.lower()
        self.value = value

    def matches(self, entry: Entry) -> bool:
        return self.value in entry.values(self.attr)

    def __repr__(self) -> str:
        return f"({self.attr}={self.value})"


class SubstringFilter(SearchFilter):
    def __init__(self, attr: str, pattern: str):
        self.attr = attr.lower()
        self.pattern = pattern

    def matches(self, entry: Entry) -> bool:
        return any(fnmatch.fnmatchcase(v, self.pattern)
                   for v in entry.values(self.attr))

    def __repr__(self) -> str:
        return f"({self.attr}={self.pattern})"


class CompareFilter(SearchFilter):
    """``>=`` / ``<=``: numeric when both sides parse as float, else
    lexicographic (LDAP's ordering matching rule, simplified)."""

    def __init__(self, attr: str, op: str, value: str):
        if op not in (">=", "<="):
            raise FilterSyntaxError(f"bad comparison op {op!r}")
        self.attr = attr.lower()
        self.op = op
        self.value = value

    def _cmp(self, have: str) -> bool:
        try:
            a, b = float(have), float(self.value)
        except ValueError:
            a, b = have, self.value  # type: ignore[assignment]
        return a >= b if self.op == ">=" else a <= b

    def matches(self, entry: Entry) -> bool:
        return any(self._cmp(v) for v in entry.values(self.attr))

    def __repr__(self) -> str:
        return f"({self.attr}{self.op}{self.value})"


# note: no ^ anchor — this pattern is used with .match(text, pos)
_ATTR_RE = re.compile(r"[A-Za-z][A-Za-z0-9.\-]*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, why: str) -> FilterSyntaxError:
        return FilterSyntaxError(f"{why} at column {self.pos} in {self.text!r}")

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> SearchFilter:
        node = self.parse_filter()
        if self.pos != len(self.text):
            raise self.fail("trailing characters")
        return node

    def parse_filter(self) -> SearchFilter:
        self.expect("(")
        if self.pos >= len(self.text):
            raise self.fail("unterminated filter")
        ch = self.text[self.pos]
        if ch == "&":
            self.pos += 1
            node: SearchFilter = AndFilter(self.parse_list())
        elif ch == "|":
            self.pos += 1
            node = OrFilter(self.parse_list())
        elif ch == "!":
            self.pos += 1
            node = NotFilter(self.parse_filter())
        else:
            node = self.parse_simple()
        self.expect(")")
        return node

    def parse_list(self) -> list[SearchFilter]:
        parts = []
        while self.pos < len(self.text) and self.text[self.pos] == "(":
            parts.append(self.parse_filter())
        if not parts:
            raise self.fail("empty composite filter")
        return parts

    def parse_simple(self) -> SearchFilter:
        m = _ATTR_RE.match(self.text, self.pos)
        if not m:
            raise self.fail("expected attribute name")
        attr = m.group(0)
        self.pos = m.end()
        # operator
        if self.text.startswith(">=", self.pos) or self.text.startswith("<=", self.pos):
            op = self.text[self.pos:self.pos + 2]
            self.pos += 2
            value = self.take_value()
            return CompareFilter(attr, op, value)
        self.expect("=")
        value = self.take_value()
        if value == "*":
            return PresenceFilter(attr)
        if "*" in value:
            return SubstringFilter(attr, value)
        return EqualityFilter(attr, value)

    def take_value(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "()":
            self.pos += 1
        value = self.text[start:self.pos]
        if value == "":
            raise self.fail("empty value")
        return value


def parse_filter(text: str) -> SearchFilter:
    """Parse an RFC-2254-style filter string."""
    if not text or not text.strip():
        raise FilterSyntaxError("empty filter")
    return _Parser(text.strip()).parse()


@lru_cache(maxsize=512)
def parse_filter_cached(text: str) -> SearchFilter:
    """:func:`parse_filter` behind a bounded LRU.

    Filter ASTs are immutable after construction and evaluation is
    stateless, so one shared AST can serve every caller issuing the
    same filter text — consumers poll the directory with a handful of
    distinct filters, so the text → AST step vanishes from the search
    hot path.  Syntax errors are not cached (``lru_cache`` does not
    memoize raising calls), so a bad filter fails every time.
    """
    return parse_filter(text)
