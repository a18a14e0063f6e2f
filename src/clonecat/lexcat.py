"""Java method lexing and token categorization.

A method body is lexed as free-standing text (no parsing) into a stream of
tokens, each assigned one of 15 syntactic categories. Whitespace and
comments never appear in the stream, so two methods differing only in
layout or comments lex to the same tokens.

Category mapping:
  Keyword    reserved words minus modifiers and basic types
  Modifier   public private protected static final abstract synchronized
             volatile transient native strictfp default
  BasicType  int long short byte float double boolean char
  Boolean    true false
  Separator  ( ) { } [ ] ; , . ... ::
  Operator   every Java operator, compound assignments included
  Annotation the '@' sigil alone (the following name is an Identifier)
  numeric literals split by radix/suffix into the six integer/float kinds
  Null       string/char literals and the null literal

``tokenize`` lexes with one compiled pattern, ``_TOKEN``, whose named
alternatives are tried in this order at each position:
  skip  whitespace, // and /* */ comments     dropped
  text  a closed string or char literal       Null
  open  a /*, " or ' that never closes        LexError "unterminated ..."
  hex   0x... or 0X...                        HexInteger, HexFloatingPoint
  bin   0b... or 0B...                        BinaryInteger
  dec   a digit, or a point and a digit       DecimalInteger, OctalInteger,
                                              DecimalFloatingPoint
  word  letters, digits, '_' and '$'          Keyword, Modifier, BasicType,
                                              Boolean, Null, Identifier
  at    @                                     Annotation
  sep   SEPARATORS                            Separator
  op    OPERATORS, longest first              Operator
  bad   any other character                   LexError "illegal character"

``_number`` rejects the malformed numeric shapes: ``0b`` without a binary
digit; ``0x`` followed by neither a hex digit nor a point; a hex exponent
``p`` with no decimal digit; a hex fraction without a ``p`` exponent; a
decimal float (point, exponent or f/d suffix) with an l suffix; and a
leading-zero (octal) integer holding an 8 or a 9. A word that starts with
a character other than a letter, '_' or '$' (a digit such as '²') is an
illegal character.

``categorize_source`` scans a method once with ``_LEXEME`` for its lexemes
and lexes each distinct lexeme alone. ``_LEXEME`` is a skip run, then
``_TOKEN``'s other alternatives unnamed or the end of the source, so each
match is one lexeme or the end's "". Lexing a lexeme alone (``_alone``) is
one ``_TOKEN`` match, categorized as ``tokenize`` does. That gives the same
category or error: with no anchor or lookaround, an alternative that fails
in context fails on the lexeme alone too. A lexeme that does not lex alone
to exactly itself sends the whole method through ``tokenize``, so a LexError
keeps its line and column.
A caller may pass a lexeme -> category memo that the calls over one corpus
share; ``data.load_methods`` makes one per call, so each distinct lexeme of a
corpus is lexed once and nothing is kept between calls. Only lexemes that lex
alone are stored.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import LexError

__all__ = [
    "NUM_CATEGORIES",
    "TokenCategory",
    "Token",
    "TokenStream",
    "CategorizedMethod",
    "tokenize",
    "categorize",
    "categorize_source",
    "category_order",
]


class TokenCategory(Enum):
    ANNOTATION = "Annotation"
    BASIC_TYPE = "BasicType"
    BINARY_INTEGER = "BinaryInteger"
    BOOLEAN = "Boolean"
    DECIMAL_FLOATING_POINT = "DecimalFloatingPoint"
    MODIFIER = "Modifier"
    OPERATOR = "Operator"
    DECIMAL_INTEGER = "DecimalInteger"
    HEX_FLOATING_POINT = "HexFloatingPoint"
    HEX_INTEGER = "HexInteger"
    IDENTIFIER = "Identifier"
    KEYWORD = "Keyword"
    OCTAL_INTEGER = "OctalInteger"
    SEPARATOR = "Separator"
    NULL = "Null"

    @property
    def index(self) -> int:
        return _CATEGORY_INDEX[self]


# Canonical ordering (definition order); every place a category index appears uses this.
_CATEGORY_ORDER: tuple[TokenCategory, ...] = tuple(TokenCategory)
_CATEGORY_INDEX = {cat: i for i, cat in enumerate(_CATEGORY_ORDER)}

NUM_CATEGORIES = len(_CATEGORY_ORDER)


def category_order() -> tuple[TokenCategory, ...]:
    """The canonical category ordering (index 0 is Annotation, 14 is Null)."""
    return _CATEGORY_ORDER


MODIFIERS = frozenset(
    "public private protected static final abstract synchronized "
    "volatile transient native strictfp default".split()
)

BASIC_TYPES = frozenset("int long short byte float double boolean char".split())

BOOLEAN_LITERALS = frozenset(("true", "false"))

# Reserved words that are neither modifiers nor basic types.
KEYWORDS = frozenset(
    "assert break case catch class const continue do else enum extends "
    "finally for goto if implements import instanceof interface new package "
    "return super switch this throw throws try void while".split()
)

SEPARATORS = ("...", "::", "(", ")", "{", "}", "[", "]", ";", ",", ".")

# Longest first for maximal munch.
OPERATORS = (
    ">>>=",
    ">>=", "<<=", ">>>",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "&=", "|=", "^=", "%=", "<<", ">>", "->",
    "=", ">", "<", "!", "~", "?", ":", "+", "-", "*", "/", "&", "|", "^", "%",
)


class Token(NamedTuple):
    lexeme: str
    category: TokenCategory


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[Token, ...]
    source_id: str = "<memory>"

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def lexemes(self) -> list[str]:
        return [t.lexeme for t in self.tokens]


@dataclass
class CategorizedMethod:
    """Per-category lexeme multisets; the lexical fingerprint of one method.

    Only non-empty categories are stored in ``counts``. ``sequence`` holds
    the lexemes in source order, which skip-gram training reads.
    """

    source_id: str
    counts: dict[TokenCategory, dict[str, int]] = field(default_factory=dict)
    sequence: tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def total_tokens(self) -> int:
        return len(self.sequence)

    def lexemes(self) -> list[str]:
        return list(self.sequence)

    def to_json_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "total_tokens": self.total_tokens,
            "categories": {
                cat.value: dict(sorted(lexemes.items()))
                for cat, lexemes in sorted(self.counts.items(), key=lambda kv: kv[0].index)
            },
        }


# The complete forms of comments and quoted literals come before their bare
# openers, so an opener matches only when the comment or literal never
# closes.  Separators come before operators so that "::" beats ":".  A word
# is re-checked in tokenize: \w also admits numeric characters such as '²'
# that cannot start a name.
_SKIP = r"[ \t\r\n\f\v]|//[^\n]*|/\*.*?\*/"
_LEXEMES = rf"""
    (?P<text>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
  | (?P<open>/\*|["'])
  | (?P<hex>0[xX][0-9a-fA-F_]*(?:\.[0-9a-fA-F_]*)?(?:[pP][+-]?(?:[0-9][0-9_]*[fFdD]?)?|[lL])?)
  | (?P<bin>0[bB](?:[01][01_]*[lL]?)?)
  | (?P<dec>(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)(?:[eE][+-]?[0-9][0-9_]*)?[fFdDlL]?)
  | (?P<word>[\w$]+)
  | (?P<at>@)
  | (?P<sep>{"|".join(map(re.escape, SEPARATORS))})
  | (?P<op>{"|".join(map(re.escape, OPERATORS))})
  | (?P<bad>.)
"""
_TOKEN = re.compile(rf"(?P<skip>(?:{_SKIP})+) | {_LEXEMES}", re.VERBOSE | re.DOTALL)

# A skip run, then one lexeme or the end of the source: findall gives every
# lexeme in order, then "" for the end (twice when the source ends in a skip
# run).  After a skip run a lexeme or the end always matches (``bad`` takes
# any character), so the run is never given back: with no ``\Z`` branch, a
# trailing newline would come back as a ``bad`` lexeme.
_LEXEME = re.compile(rf"(?:{_SKIP})* ({re.sub(r'[(][?]P<[a-z]+>', '(?:', _LEXEMES)} | \Z)",
                     re.VERBOSE | re.DOTALL)

_UNTERMINATED = {"/*": "block comment", '"': "string literal", "'": "char literal"}

_WORD_CATEGORY = {
    **dict.fromkeys(KEYWORDS, TokenCategory.KEYWORD),
    **dict.fromkeys(MODIFIERS, TokenCategory.MODIFIER),
    **dict.fromkeys(BASIC_TYPES, TokenCategory.BASIC_TYPE),
    **dict.fromkeys(BOOLEAN_LITERALS, TokenCategory.BOOLEAN),
    "null": TokenCategory.NULL,
}

_FIXED_CATEGORY = {
    "text": TokenCategory.NULL,
    "at": TokenCategory.ANNOTATION,
    "sep": TokenCategory.SEPARATOR,
    "op": TokenCategory.OPERATOR,
}


def _error(source: str, offset: int, reason: str) -> LexError:
    """The LexError at ``offset`` of ``source``, placed by 1-based line and column."""
    line = source.count("\n", 0, offset) + 1
    return LexError(line, offset - source.rfind("\n", 0, offset), reason)


def _number(m: re.Match) -> TokenCategory:
    """Categorize one numeric match, or raise at its first bad character."""
    lexeme, kind, source, start = m.group(), m.lastgroup, m.string, m.start()
    if kind == "bin":
        if len(lexeme) == 2:
            raise _error(source, start + 2, "malformed binary literal")
        return TokenCategory.BINARY_INTEGER
    if kind == "hex":
        if len(lexeme) == 2 or lexeme[2] in "pPlL":
            raise _error(source, start + 2, "malformed hex literal")
        if lexeme[-1] in "pP+-":
            raise _error(source, m.end(), "malformed hex float exponent")
        if "p" in lexeme or "P" in lexeme:
            return TokenCategory.HEX_FLOATING_POINT
        mantissa = lexeme.rstrip("lL")
        if "." in mantissa:
            raise _error(source, start + len(mantissa), "hex float requires a binary exponent")
        return TokenCategory.HEX_INTEGER
    is_float = lexeme[-1] in "fFdD" or any(ch in lexeme for ch in ".eE")
    if lexeme[-1] in "lL":
        if is_float:
            raise _error(source, m.end() - 1, "float literal cannot carry an integer suffix")
        digits = lexeme[:-1]
    elif is_float:
        return TokenCategory.DECIMAL_FLOATING_POINT
    else:
        digits = lexeme
    if digits.startswith("0") and len(digits.replace("_", "")) > 1:
        if "8" in digits or "9" in digits:
            raise _error(source, m.end(), "invalid digit in octal literal")
        return TokenCategory.OCTAL_INTEGER
    return TokenCategory.DECIMAL_INTEGER


def _category(m: re.Match) -> TokenCategory:
    """The category of one ``_TOKEN`` lexeme match; raise LexError if it is bad."""
    kind, lexeme = m.lastgroup, m.group()
    if kind == "word":
        if not (lexeme[0].isalpha() or lexeme[0] in "_$"):
            raise _error(m.string, m.start(), f"illegal character {lexeme[0]!r}")
        return _WORD_CATEGORY.get(lexeme, TokenCategory.IDENTIFIER)
    if kind in _FIXED_CATEGORY:
        return _FIXED_CATEGORY[kind]
    if kind == "open":
        raise _error(m.string, m.start(), f"unterminated {_UNTERMINATED[lexeme]}")
    if kind == "bad":
        raise _error(m.string, m.start(), f"illegal character {lexeme!r}")
    return _number(m)


def _lex(source: str):
    """Yield each Token of ``source`` in order; raise LexError at the first bad one."""
    for m in _TOKEN.finditer(source):
        if m.lastgroup != "skip":
            yield Token(m.group(), _category(m))


def tokenize(source: str, source_id: str = "<memory>") -> TokenStream:
    """Lex one Java method into its token stream.

    Comments and whitespace are discarded. Raises LexError at the first
    unterminated literal/comment, malformed number or illegal character.
    """
    return TokenStream(tuple(_lex(source)), source_id)


def categorize(ts: TokenStream) -> CategorizedMethod:
    """Aggregate a token stream into per-category lexeme counts, keeping its lexemes."""
    counts: dict[TokenCategory, dict[str, int]] = {}
    for tok in ts.tokens:
        per_cat = counts.setdefault(tok.category, {})
        per_cat[tok.lexeme] = per_cat.get(tok.lexeme, 0) + 1
    return CategorizedMethod(ts.source_id, counts, tuple(ts.lexemes()))


def _alone(lexeme: str) -> TokenCategory | None:
    """The category of a scanned lexeme lexed alone, or None unless it lexes to exactly
    itself. A scanned lexeme is never empty and never starts a skip run."""
    m = _TOKEN.match(lexeme)
    if m.end() != len(lexeme):
        return None
    try:
        return _category(m)
    except LexError:
        return None


def categorize_source(source: str, source_id: str = "<memory>",
                      memo: dict[str, TokenCategory] | None = None) -> CategorizedMethod:
    """``categorize(tokenize(source, source_id))``, from one scan and one lookup a lexeme.

    ``memo`` maps lexemes already lexed alone to their category; pass one dict
    to every call over a corpus so that each distinct lexeme is lexed once.
    """
    lexemes = list(filter(None, _LEXEME.findall(source)))
    memo = {} if memo is None else memo
    counts: dict[TokenCategory, dict[str, int]] = {}
    for lexeme, n in Counter(lexemes).items():
        category = memo.get(lexeme)
        if category is None:
            category = _alone(lexeme)
            if category is None:
                return categorize(tokenize(source, source_id))
            memo[lexeme] = category
        counts.setdefault(category, {})[lexeme] = n
    return CategorizedMethod(source_id, counts, tuple(lexemes))
