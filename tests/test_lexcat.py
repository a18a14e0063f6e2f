from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonecat import lexcat
from clonecat.bench import builtin_base_methods, synth_clones
from clonecat.errors import LexError
from clonecat.lexcat import (
    NUM_CATEGORIES,
    CategorizedMethod,
    TokenCategory,
    categorize,
    categorize_source,
    category_order,
    tokenize,
)
from labeled_corpus import LABELED_SNIPPETS

CANONICAL_NAMES = [
    "Annotation",
    "BasicType",
    "BinaryInteger",
    "Boolean",
    "DecimalFloatingPoint",
    "Modifier",
    "Operator",
    "DecimalInteger",
    "HexFloatingPoint",
    "HexInteger",
    "Identifier",
    "Keyword",
    "OctalInteger",
    "Separator",
    "Null",
]


def cats(source):
    return [t.category for t in tokenize(source, source_id="t").tokens]


def lexemes(source):
    return [t.lexeme for t in tokenize(source, source_id="t").tokens]


class TestCategoryOrder:
    def test_fifteen_categories(self):
        assert NUM_CATEGORIES == 15
        assert len(category_order()) == 15

    def test_canonical_names_and_positions(self):
        assert [c.value for c in category_order()] == CANONICAL_NAMES

    def test_index_round_trip(self):
        order = category_order()
        for i, cat in enumerate(order):
            assert order.index(cat) == i


class TestClassification:
    @pytest.mark.parametrize(
        "word",
        ["public", "private", "protected", "static", "final", "abstract",
         "synchronized", "volatile", "transient", "native", "strictfp",
         "default"],
    )
    def test_modifiers(self, word):
        assert cats(word) == [TokenCategory.MODIFIER]

    @pytest.mark.parametrize(
        "word", ["boolean", "byte", "char", "short", "int", "long",
                 "float", "double"],
    )
    def test_basic_types(self, word):
        assert cats(word) == [TokenCategory.BASIC_TYPE]

    @pytest.mark.parametrize("word", ["true", "false"])
    def test_boolean_literals(self, word):
        assert cats(word) == [TokenCategory.BOOLEAN]

    @pytest.mark.parametrize(
        "source", ["null", '"text"', "'x'", '"escaped \\" quote"', "'\\n'"],
    )
    def test_null_category_holds_null_string_and_char(self, source):
        assert cats(source) == [TokenCategory.NULL]

    @pytest.mark.parametrize(
        "word",
        ["if", "else", "while", "for", "do", "switch", "case", "break",
         "continue", "return", "void", "new", "this", "super", "instanceof",
         "try", "catch", "finally", "throw", "throws", "class", "interface",
         "enum", "extends", "implements", "import", "package", "assert"],
    )
    def test_keywords(self, word):
        assert cats(word) == [TokenCategory.KEYWORD]

    def test_annotation_sigil_is_its_own_token(self):
        assert [(t.lexeme, t.category) for t in tokenize("@Test", "t").tokens] == [
            ("@", TokenCategory.ANNOTATION),
            ("Test", TokenCategory.IDENTIFIER),
        ]

    @pytest.mark.parametrize(
        "lit,cat",
        [
            ("0", TokenCategory.DECIMAL_INTEGER),
            ("42", TokenCategory.DECIMAL_INTEGER),
            ("123_456L", TokenCategory.DECIMAL_INTEGER),
            ("9l", TokenCategory.DECIMAL_INTEGER),
            ("07", TokenCategory.OCTAL_INTEGER),
            ("017", TokenCategory.OCTAL_INTEGER),
            ("0_17", TokenCategory.OCTAL_INTEGER),
            ("0x1F", TokenCategory.HEX_INTEGER),
            ("0XABCDEF", TokenCategory.HEX_INTEGER),
            ("0xCAFE_BABEL", TokenCategory.HEX_INTEGER),
            ("0b1010", TokenCategory.BINARY_INTEGER),
            ("0B11L", TokenCategory.BINARY_INTEGER),
            ("1.0", TokenCategory.DECIMAL_FLOATING_POINT),
            ("1.0F", TokenCategory.DECIMAL_FLOATING_POINT),
            (".5", TokenCategory.DECIMAL_FLOATING_POINT),
            ("5.", TokenCategory.DECIMAL_FLOATING_POINT),
            ("1.5e3", TokenCategory.DECIMAL_FLOATING_POINT),
            ("1e-9", TokenCategory.DECIMAL_FLOATING_POINT),
            ("2d", TokenCategory.DECIMAL_FLOATING_POINT),
            ("3f", TokenCategory.DECIMAL_FLOATING_POINT),
            ("0x1.8p1f", TokenCategory.HEX_FLOATING_POINT),
            ("0x.8p-2", TokenCategory.HEX_FLOATING_POINT),
            ("0xAp0", TokenCategory.HEX_FLOATING_POINT),
        ],
    )
    def test_numeric_literals(self, lit, cat):
        assert cats(lit) == [cat]


class TestMaximalMunch:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("a >>>= b", ["a", ">>>=", "b"]),
            ("a >>> b", ["a", ">>>", "b"]),
            ("a >>= b", ["a", ">>=", "b"]),
            ("a <<= b", ["a", "<<=", "b"]),
            ("f(int... xs)", ["f", "(", "int", "...", "xs", ")"]),
            ("List::of", ["List", "::", "of"]),
            ("x -> y", ["x", "->", "y"]),
            ("i+++j", ["i", "++", "+", "j"]),
            ("a==-b", ["a", "==", "-", "b"]),
        ],
    )
    def test_longest_match_wins(self, source, expected):
        assert lexemes(source) == expected

    def test_dots_are_separate_unless_ellipsis(self):
        assert lexemes("a.b.c") == ["a", ".", "b", ".", "c"]
        stream = tokenize("a.b", "t")
        assert stream.tokens[1].category == TokenCategory.SEPARATOR


class TestLexErrors:
    @pytest.mark.parametrize(
        "source",
        ["08", "0x", "0b2", "0b", "1.0L", '"unterminated', "/* never closed",
         "int `x;", "'unclosed"],
    )
    def test_rejects_malformed_input(self, source):
        with pytest.raises(LexError):
            tokenize(source, source_id="bad")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("int x = 1;\nint y = 08;", source_id="bad")
        assert exc.value.line == 2
        assert exc.value.column > 1

    def test_illegal_character_names_itself(self):
        with pytest.raises(LexError) as exc:
            tokenize("int #x;", source_id="bad")
        assert "#" in str(exc.value)


# Every LexError reason with the exact position the lexer reports.  Number
# errors point at the first character the literal cannot take; an
# unterminated comment or literal points at its opener.
LEX_ERROR_CONTRACT = [
    ("int x;\n  /* never closed", 2, 3, "unterminated block comment"),
    ("/*/", 1, 1, "unterminated block comment"),
    ('s = "abc\n";', 1, 5, "unterminated string literal"),
    ('s = "ab\\', 1, 5, "unterminated string literal"),
    ("x\r'ab", 1, 3, "unterminated char literal"),
    ("c = 'a\n';", 1, 5, "unterminated char literal"),
    ("0b2", 1, 3, "malformed binary literal"),
    ("0b", 1, 3, "malformed binary literal"),
    ("x = 0x;", 1, 7, "malformed hex literal"),
    ("0xL", 1, 3, "malformed hex literal"),
    ("0xp1", 1, 3, "malformed hex literal"),
    ("0x1p+;", 1, 6, "malformed hex float exponent"),
    ("0x1P", 1, 5, "malformed hex float exponent"),
    ("0x1.8;", 1, 6, "hex float requires a binary exponent"),
    ("0x1.8L", 1, 6, "hex float requires a binary exponent"),
    ("0x.", 1, 4, "hex float requires a binary exponent"),
    ("1.0L", 1, 4, "float literal cannot carry an integer suffix"),
    ("1e5L", 1, 4, "float literal cannot carry an integer suffix"),
    (".5e-3l", 1, 6, "float literal cannot carry an integer suffix"),
    ("08", 1, 3, "invalid digit in octal literal"),
    ("int a;\n  09L", 2, 6, "invalid digit in octal literal"),
    ("0_8", 1, 4, "invalid digit in octal literal"),
    ("int #x;", 1, 5, "illegal character '#'"),
    ("a = ²;", 1, 5, "illegal character '²'"),
    ("a\r²", 1, 3, "illegal character '²'"),
    ("٣x", 1, 1, "illegal character '٣'"),
]


@pytest.mark.parametrize("source,line,column,reason", LEX_ERROR_CONTRACT)
def test_lex_error_contract(source, line, column, reason):
    with pytest.raises(LexError) as exc:
        tokenize(source, source_id="bad")
    assert (exc.value.line, exc.value.column, exc.value.reason) == (line, column, reason)


# Lexemes that lex as themselves when whitespace or a comment follows them;
# the string with an escaped newline spans two lines.
_CONTRACT_LEXEMES = [
    "x", "_y", "$z", "café", "x²", "int", "public", "true", "null", "while",
    "0", "42", "017", "0x1F", "0b1010L", "1.5e3", ".5", "5.", "0x1.8p1f", "3f",
    '"s t"', '"a\\\nb"', "'\\n'", "'x'", "@", "...", "::", "(", ";", ".",
    ">>>=", "->", "+", "/", "*", "!=",
]
_JOINERS = [" ", "\t", "\n", "\r\n", "\r ", " // note\n", " /* one\n two\n */ ", " /**/ "]


_PIECES = st.lists(st.tuples(st.sampled_from(_CONTRACT_LEXEMES), st.sampled_from(_JOINERS)),
                   max_size=30)


@given(_PIECES)
@settings(max_examples=200, deadline=None)
def test_token_positions_locate_lexemes(pieces):
    source = "".join(lexeme + joiner for lexeme, joiner in pieces)
    assert tokenize(source, "t").lexemes() == [lexeme for lexeme, _ in pieces]


@given(_PIECES, st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_lex_error_position_locates_an_illegal_character(pieces, at):
    """A '#' spliced between any two lexemes or joiners is reported at its own line and column."""
    fragments = [text for piece in pieces for text in piece]
    at %= len(fragments) + 1
    prefix = "".join(fragments[:at])
    source = prefix + "#" + "".join(fragments[at:])
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    with pytest.raises(LexError) as exc:
        tokenize(source, "t")
    assert exc.value.reason == "illegal character '#'"
    assert line_starts[exc.value.line - 1] + exc.value.column - 1 == len(prefix)


@pytest.mark.parametrize("source,line,column,reason", LEX_ERROR_CONTRACT)
def test_categorize_source_keeps_the_lex_error_contract(source, line, column, reason):
    with pytest.raises(LexError) as exc:
        categorize_source(source, source_id="bad")
    assert (exc.value.line, exc.value.column, exc.value.reason) == (line, column, reason)


# Fragments that do not lex on their own.  Spliced in among other lexemes,
# some join a neighbour into a token that does.
_MALFORMED = ["#", "08", "0x", "0b2", "1.0L", '"open', "'o", "/* open", "²", "٣x", "0x1.8",
              "0x1p", "\ufeff"]


def _outcome(lex):
    """The counts in insertion order and the sequence ``lex()`` returns, or its LexError."""
    try:
        cm = lex()
    except LexError as exc:
        return exc.line, exc.column, exc.reason
    return cm.source_id, [(cat, list(by_lex.items())) for cat, by_lex in cm.counts.items()], cm.sequence


@given(st.lists(st.tuples(st.sampled_from(_CONTRACT_LEXEMES), st.sampled_from(_JOINERS + [""])),
                max_size=30),
       st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(_MALFORMED)), max_size=2))
@settings(max_examples=300, deadline=None)
def test_categorize_source_equals_the_match_loop(pieces, splices):
    """Lexemes may abut (the empty joiner), and malformed fragments go anywhere."""
    fragments = [text for piece in pieces for text in piece]
    for at, bad in splices:
        fragments.insert(at % (len(fragments) + 1), bad)
    source = "".join(fragments)
    assert _outcome(lambda: categorize_source(source, "t")) == \
        _outcome(lambda: categorize(tokenize(source, "t")))


def test_valid_sources_take_the_one_scan_path(monkeypatch):
    """categorize_source lexes a whole source token by token only when a lexeme is malformed."""
    fallbacks = []

    def counted(source, source_id="<memory>"):
        fallbacks.append(source_id)
        return tokenize(source, source_id)

    monkeypatch.setattr(lexcat, "tokenize", counted)
    bases = sorted((Path(__file__).parents[1] / "perfbench" / "bases").glob("*.java"))
    assert len(bases) == 20
    for path in bases:
        categorize_source(path.read_text(encoding="utf-8"), path.stem)
    assert len(synth_clones(builtin_base_methods()).methods) == 200
    assert fallbacks == []
    with pytest.raises(LexError):
        categorize_source("int #x;", "bad")
    assert fallbacks == ["bad"]


class TestCommentAndWhitespaceInvariance:
    BODY = "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }"

    def test_line_comments_ignored(self):
        with_comments = self.BODY.replace("{ while", "{ // loop here\nwhile")
        assert lexemes(with_comments) == lexemes(self.BODY)

    def test_block_comments_ignored(self):
        with_comments = "/** doc */ " + self.BODY.replace(";", "; /*x*/", 1)
        assert lexemes(with_comments) == lexemes(self.BODY)

    def test_counts_unchanged_by_reformatting(self):
        reformatted = self.BODY.replace(" ", "\n\t ")
        a = categorize_source(self.BODY, "a")
        b = categorize_source(reformatted, "b")
        assert a.counts == b.counts
        assert a.total_tokens == b.total_tokens

    @given(st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", "  "]),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_random_whitespace_between_tokens(self, seps):
        pieces = ["int", "x", "=", "y", "+", "3", ";"]
        joined = ""
        for i, piece in enumerate(pieces):
            joined += piece + (seps[i % len(seps)])
        assert lexemes(joined) == pieces


class TestLabeledCorpus:
    def test_corpus_size(self):
        assert len(LABELED_SNIPPETS) == 50

    @pytest.mark.parametrize(
        "source,expected",
        LABELED_SNIPPETS,
        ids=[f"snippet{i:02d}" for i in range(len(LABELED_SNIPPETS))],
    )
    def test_snippet_matches_hand_labels(self, source, expected):
        got = [(t.lexeme, t.category.value) for t in tokenize(source, "s").tokens]
        assert got == expected

    @pytest.mark.parametrize(
        "source,expected",
        LABELED_SNIPPETS,
        ids=[f"snippet{i:02d}" for i in range(len(LABELED_SNIPPETS))],
    )
    def test_categorize_source_matches_hand_labels(self, source, expected):
        cm = categorize_source(source, "s")
        assert cm.sequence == tuple(lexeme for lexeme, _ in expected)
        by_category = {}
        for lexeme, name in expected:
            by_category.setdefault(TokenCategory(name), Counter())[lexeme] += 1
        assert cm.counts == by_category


class TestCategorize:
    def test_counts_sum_to_total(self, gcd1):
        summed = sum(n for by_lex in gcd1.counts.values() for n in by_lex.values())
        assert summed == gcd1.total_tokens

    def test_gcd1_category_profile(self, gcd1):
        assert gcd1.total_tokens == 38
        assert gcd1.counts[TokenCategory.BASIC_TYPE] == {"long": 4}
        assert gcd1.counts[TokenCategory.MODIFIER] == {"public": 1}
        assert gcd1.counts[TokenCategory.KEYWORD] == {"while": 1, "return": 1}

    def test_gcd2_has_seven_nonempty_categories(self, gcd2):
        assert gcd2.total_tokens == 31
        nonempty = {cat for cat, by_lex in gcd2.counts.items() if by_lex}
        assert len(nonempty) == 7
        assert gcd2.counts[TokenCategory.BASIC_TYPE] == {"int": 3}

    def test_empty_source_categorizes_to_nothing(self):
        cm = categorize_source("", source_id="empty")
        assert cm.total_tokens == 0
        assert all(not v for v in cm.counts.values())

    def test_categorize_matches_categorize_source(self, gcd1_stream, gcd1):
        assert categorize(gcd1_stream).counts == gcd1.counts

    def test_lexemes_kept_in_source_order_outside_equality(self, gcd1_stream, gcd1):
        assert gcd1.lexemes() == gcd1_stream.lexemes()
        assert len(gcd1) == len(gcd1_stream) == gcd1.total_tokens
        assert gcd1 == CategorizedMethod("gcd1", gcd1.counts)
        assert "sequence" not in repr(gcd1)
