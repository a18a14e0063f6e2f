"""Java method lexing and token categorization.

A method body is lexed as free-standing text (no parsing) into a stream of
tokens, each assigned one of 15 syntactic categories. Whitespace and
comments never appear in the stream, so two methods differing only in
layout or comments produce identical streams.

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
  Null       string/char literals, the null literal, anything unmapped
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import LexError

__all__ = [
    "TokenCategory",
    "Token",
    "TokenStream",
    "CategorizedMethod",
    "tokenize",
    "categorize",
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


# Canonical ordering; every place a category index appears uses this.
_CATEGORY_ORDER: tuple[TokenCategory, ...] = (
    TokenCategory.ANNOTATION,
    TokenCategory.BASIC_TYPE,
    TokenCategory.BINARY_INTEGER,
    TokenCategory.BOOLEAN,
    TokenCategory.DECIMAL_FLOATING_POINT,
    TokenCategory.MODIFIER,
    TokenCategory.OPERATOR,
    TokenCategory.DECIMAL_INTEGER,
    TokenCategory.HEX_FLOATING_POINT,
    TokenCategory.HEX_INTEGER,
    TokenCategory.IDENTIFIER,
    TokenCategory.KEYWORD,
    TokenCategory.OCTAL_INTEGER,
    TokenCategory.SEPARATOR,
    TokenCategory.NULL,
)

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


@dataclass(frozen=True)
class Token:
    lexeme: str
    category: TokenCategory
    line: int
    column: int

    @property
    def position(self) -> tuple[int, int]:
        return (self.line, self.column)


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

    Only non-empty categories are stored in ``counts``.
    """

    source_id: str
    counts: dict[TokenCategory, dict[str, int]] = field(default_factory=dict)
    total_tokens: int = 0

    def to_json_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "total_tokens": self.total_tokens,
            "categories": {
                cat.value: dict(sorted(lexemes.items()))
                for cat, lexemes in sorted(self.counts.items(), key=lambda kv: kv[0].index)
            },
        }


def _is_ident_start(ch: str) -> bool:
    return ch == "_" or ch == "$" or ch.isalpha()


def _is_ident_part(ch: str) -> bool:
    return ch == "_" or ch == "$" or ch.isalnum()


def _is_digit_or_sep(ch: str) -> bool:
    return ch.isdigit() and ch.isascii() or ch == "_"


def _is_hex_or_sep(ch: str) -> bool:
    return ch != "" and ch in "0123456789abcdefABCDEF_"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, reason: str, line: int | None = None, col: int | None = None):
        raise LexError(self.line if line is None else line,
                       self.col if col is None else col, reason)

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def peek_in(self, chars: str, offset: int = 0) -> bool:
        # peek() returns "" at end of input and "" is a substring of any
        # string, so a bare `peek() in chars` would match there
        ch = self.peek(offset)
        return ch != "" and ch in chars

    def advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos >= len(self.text):
                return
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def match_at(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def take(self, n: int) -> str:
        s = self.text[self.pos : self.pos + n]
        self.advance(n)
        return s

    # --- sub-scanners -------------------------------------------------

    def skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.text):
            ch = self.peek()
            if ch in " \t\r\n\f\x0b":
                self.advance()
            elif ch == "/" and self.peek(1) == "/":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
            elif ch == "/" and self.peek(1) == "*":
                line, col = self.line, self.col
                self.advance(2)
                while self.pos < len(self.text) and not self.match_at("*/"):
                    self.advance()
                if self.pos >= len(self.text):
                    self.error("unterminated block comment", line, col)
                self.advance(2)
            else:
                return

    def scan_quoted(self, quote: str, what: str) -> str:
        line, col = self.line, self.col
        start = self.pos
        self.advance()  # opening quote
        while self.pos < len(self.text):
            ch = self.peek()
            if ch == "\\":
                self.advance(2)
                continue
            if ch == "\n":
                break
            if ch == quote:
                self.advance()
                return self.text[start : self.pos]
            self.advance()
        self.error(f"unterminated {what} literal", line, col)

    def scan_number(self) -> tuple[str, TokenCategory]:
        start = self.pos
        if self.peek() == "0" and self.peek_in("xX", 1):
            return self._scan_hex(start)
        if self.peek() == "0" and self.peek_in("bB", 1):
            self.advance(2)
            if not self.peek_in("01"):
                self.error("malformed binary literal")
            while self.peek_in("01_"):
                self.advance()
            if self.peek_in("lL"):
                self.advance()
            return self.text[start : self.pos], TokenCategory.BINARY_INTEGER
        return self._scan_decimal(start)

    def _scan_hex(self, start: int) -> tuple[str, TokenCategory]:
        self.advance(2)
        if not (_is_hex_or_sep(self.peek()) or self.peek() == "."):
            self.error("malformed hex literal")
        while _is_hex_or_sep(self.peek()):
            self.advance()
        is_float = False
        if self.peek() == ".":
            is_float = True
            self.advance()
            while _is_hex_or_sep(self.peek()):
                self.advance()
        if self.peek_in("pP"):
            is_float = True
            self.advance()
            if self.peek_in("+-"):
                self.advance()
            if not (self.peek().isdigit() and self.peek().isascii()):
                self.error("malformed hex float exponent")
            while _is_digit_or_sep(self.peek()):
                self.advance()
            if self.peek_in("fFdD"):
                self.advance()
            return self.text[start : self.pos], TokenCategory.HEX_FLOATING_POINT
        if is_float:
            # hex fraction without a binary exponent is not a valid literal
            self.error("hex float requires a binary exponent")
        if self.peek_in("lL"):
            self.advance()
        return self.text[start : self.pos], TokenCategory.HEX_INTEGER

    def _scan_decimal(self, start: int) -> tuple[str, TokenCategory]:
        is_float = False
        while _is_digit_or_sep(self.peek()):
            self.advance()
        if self.peek() == ".":
            is_float = True
            self.advance()
            while _is_digit_or_sep(self.peek()):
                self.advance()
        if self.peek_in("eE") and (
            (self.peek(1).isdigit() and self.peek(1).isascii())
            or (self.peek_in("+-", 1) and self.peek(2).isdigit() and self.peek(2).isascii())
        ):
            is_float = True
            self.advance()
            if self.peek_in("+-"):
                self.advance()
            while _is_digit_or_sep(self.peek()):
                self.advance()
        if self.peek_in("fFdD"):
            is_float = True
            self.advance()
        elif self.peek_in("lL"):
            if is_float:
                self.error("float literal cannot carry an integer suffix")
            self.advance()
        lexeme = self.text[start : self.pos]
        if is_float:
            return lexeme, TokenCategory.DECIMAL_FLOATING_POINT
        digits = lexeme.rstrip("lL")
        if digits.startswith("0") and len(digits.replace("_", "")) > 1:
            if any(d in "89" for d in digits):
                self.error("invalid digit in octal literal")
            return lexeme, TokenCategory.OCTAL_INTEGER
        return lexeme, TokenCategory.DECIMAL_INTEGER


def tokenize(source: str, source_id: str = "<memory>") -> TokenStream:
    """Lex one Java method into its token stream.

    Comments and whitespace are discarded. Raises LexError at the first
    unterminated literal/comment or illegal character.
    """
    sc = _Scanner(source)
    tokens: list[Token] = []
    while True:
        sc.skip_whitespace_and_comments()
        if sc.pos >= len(sc.text):
            break
        line, col = sc.line, sc.col
        ch = sc.peek()

        if ch == '"':
            lexeme = sc.scan_quoted('"', "string")
            tokens.append(Token(lexeme, TokenCategory.NULL, line, col))
            continue
        if ch == "'":
            lexeme = sc.scan_quoted("'", "char")
            tokens.append(Token(lexeme, TokenCategory.NULL, line, col))
            continue
        if (ch.isdigit() and ch.isascii()) or (
            ch == "." and sc.peek(1).isdigit() and sc.peek(1).isascii()
        ):
            lexeme, cat = sc.scan_number()
            tokens.append(Token(lexeme, cat, line, col))
            continue
        if _is_ident_start(ch):
            start = sc.pos
            while sc.pos < len(sc.text) and _is_ident_part(sc.peek()):
                sc.advance()
            word = sc.text[start : sc.pos]
            tokens.append(Token(word, _classify_word(word), line, col))
            continue
        if ch == "@":
            sc.advance()
            tokens.append(Token("@", TokenCategory.ANNOTATION, line, col))
            continue
        for sep in SEPARATORS:
            if sc.match_at(sep):
                tokens.append(Token(sc.take(len(sep)), TokenCategory.SEPARATOR, line, col))
                break
        else:
            for op in OPERATORS:
                if sc.match_at(op):
                    tokens.append(Token(sc.take(len(op)), TokenCategory.OPERATOR, line, col))
                    break
            else:
                sc.error(f"illegal character {ch!r}")
    return TokenStream(tuple(tokens), source_id)


def _classify_word(word: str) -> TokenCategory:
    if word in MODIFIERS:
        return TokenCategory.MODIFIER
    if word in BASIC_TYPES:
        return TokenCategory.BASIC_TYPE
    if word in BOOLEAN_LITERALS:
        return TokenCategory.BOOLEAN
    if word == "null":
        return TokenCategory.NULL
    if word in KEYWORDS:
        return TokenCategory.KEYWORD
    return TokenCategory.IDENTIFIER


def categorize(ts: TokenStream) -> CategorizedMethod:
    """Aggregate a token stream into per-category lexeme counts."""
    counts: dict[TokenCategory, dict[str, int]] = {}
    for tok in ts.tokens:
        per_cat = counts.setdefault(tok.category, {})
        per_cat[tok.lexeme] = per_cat.get(tok.lexeme, 0) + 1
    return CategorizedMethod(ts.source_id, counts, len(ts.tokens))


def categorize_source(source: str, source_id: str = "<memory>") -> CategorizedMethod:
    return categorize(tokenize(source, source_id))
