"""SQL tokenizer."""

import pytest

from repro.errors import LexError, ParseError
from repro.sql.lexer import TokenType, shape, tokenize
from repro.sql.parser import parse_statement


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)[:-1]]


class TestTokens:
    def test_keywords_case_insensitive(self):
        assert kinds("SELECT select SeLeCt") == [
            (TokenType.KEYWORD, "select")
        ] * 3

    def test_identifiers_lowered(self):
        assert kinds("MyTable x_1") == [
            (TokenType.IDENT, "mytable"),
            (TokenType.IDENT, "x_1"),
        ]

    def test_numbers(self):
        assert kinds("42 3.14 .5 1e3 2.5e-2") == [
            (TokenType.INT, "42"),
            (TokenType.FLOAT, "3.14"),
            (TokenType.FLOAT, ".5"),
            (TokenType.FLOAT, "1e3"),
            (TokenType.FLOAT, "2.5e-2"),
        ]

    def test_strings_with_escapes(self):
        assert kinds("'hello' 'it''s'") == [
            (TokenType.STRING, "hello"),
            (TokenType.STRING, "it's"),
        ]

    def test_operators_greedy(self):
        assert kinds("<= >= <> != < > =") == [
            (TokenType.OP, "<="),
            (TokenType.OP, ">="),
            (TokenType.OP, "<>"),
            (TokenType.OP, "!="),
            (TokenType.OP, "<"),
            (TokenType.OP, ">"),
            (TokenType.OP, "="),
        ]

    def test_comments_skipped(self):
        assert kinds("1 -- a comment\n2") == [
            (TokenType.INT, "1"),
            (TokenType.INT, "2"),
        ]

    def test_minus_not_comment(self):
        assert kinds("1 - 2") == [
            (TokenType.INT, "1"),
            (TokenType.OP, "-"),
            (TokenType.INT, "2"),
        ]

    def test_qualified_name_tokens(self):
        assert kinds("a.b") == [
            (TokenType.IDENT, "a"),
            (TokenType.OP, "."),
            (TokenType.IDENT, "b"),
        ]

    def test_eof_always_present(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("'oops")

    def test_bad_character(self):
        with pytest.raises(LexError, match="unexpected"):
            tokenize("select @")


class TestPositions:
    """Every token, and every error, reports where it starts."""

    def test_string_token_starts_at_its_quote(self):
        tokens = tokenize("SELECT 'abc' FROM t")
        assert (tokens[1].type, tokens[1].value) == (TokenType.STRING, "abc")
        assert tokens[1].position == 7
        assert tokens[2].position == 13

    def test_parse_error_points_at_the_stray_string(self):
        with pytest.raises(ParseError) as info:
            parse_statement("SELECT a FROM t WHERE 'x' 'y'")
        assert info.value.position == 26

    def test_unterminated_string_points_at_its_quote(self):
        with pytest.raises(LexError) as info:
            tokenize("SELECT a FROM t WHERE s = 'it''s")
        assert info.value.position == 26

    def test_bad_character_position(self):
        with pytest.raises(LexError) as info:
            tokenize("select a @ b")
        assert info.value.position == 9


class TestShape:
    def test_literals_become_typed_slots(self):
        key, values, __ = shape("SELECT a FROM t WHERE b = 'x''y' AND c < 2.5 "
                                "OR d = 7")
        assert key == (
            "select a from t where b = ?str and c < ?float or d = ?int"
        )
        assert values == ("x'y", 2.5, 7)

    def test_case_spacing_and_comments_do_not_change_the_shape(self):
        one = shape("-- note\nSELECT  a\nFROM t WHERE b = 1")
        two = shape("select a from T where B = 2")
        assert one[0] == two[0]
        assert (one[1], two[1]) == ((1,), (2,))

    def test_limit_count_stays_in_the_shape(self):
        key, values, __ = shape("SELECT a FROM t WHERE b > 3 LIMIT 10")
        assert key.endswith("limit 10")
        assert values == (3,)
        assert shape("SELECT a FROM t WHERE b > 3 LIMIT 5")[0] != key

    def test_slots_map_token_indexes(self):
        tokens = []
        key, values, slots = shape("SELECT 1, 'a' FROM t LIMIT 2", tokens)
        assert tokens == tokenize("SELECT 1, 'a' FROM t LIMIT 2")
        assert slots == {1: 0, 3: 1}
        assert values == (1, "a")
