"""Unit tests for repro.sparql.parser."""

import pytest

from repro.sparql.parser import SparqlSyntaxError, lex, parse_query


class TestTokenizer:
    def test_iris_literals_words(self):
        query = 'SELECT ?x WHERE { ?x ub:name "a b" . ?x p <http://e/x> }'
        toks = [token.text for token in lex(query)]
        assert '"a b"' in toks
        assert "<http://e/x>" in toks
        assert "{" in toks and "}" in toks and "." in toks


class TestParser:
    def test_basic(self):
        q = parse_query("SELECT ?x WHERE { ?x ub:worksFor ?y . ?y a ub:Dept }")
        assert q.distinguished == ("?x",)
        assert len(q.patterns) == 2
        assert q.patterns[1].p == "rdf:type"  # 'a' normalized

    def test_select_star(self):
        q = parse_query("SELECT * WHERE { ?x p ?y . ?y q ?z }")
        assert q.distinguished == ("?x", "?y", "?z")

    def test_missing_dots_tolerated(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y ?y q ?z }")
        assert len(q.patterns) == 2

    def test_literal_with_spaces(self):
        q = parse_query('SELECT ?u WHERE { ?u ub:name "University 3" }')
        assert q.patterns[0].o == '"University 3"'

    def test_prefix_declarations_ignored(self):
        q = parse_query(
            "PREFIX ub: <http://lubm/> SELECT ?x WHERE { ?x ub:p ?y }"
        )
        assert q.patterns[0].p == "ub:p"

    def test_trailing_dot(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y . }")
        assert len(q.patterns) == 1

    def test_case_insensitive_keywords(self):
        q = parse_query("select ?x where { ?x p ?y }")
        assert q.distinguished == ("?x",)

    def test_name_is_attached(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y }", name="Q0")
        assert q.name == "Q0"


class TestParserErrors:
    def test_must_start_with_select(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("ASK { ?x p ?y }")

    def test_missing_where(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x { ?x p ?y }")

    def test_unbalanced_braces(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x p ?y")

    def test_dangling_terms(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x p ?y . ?z q }")

    def test_empty_body(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { }")

    def test_constant_in_select(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT foo WHERE { ?x p ?y }")

    def test_nested_groups_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { { ?x p ?y } }")

    def test_trailing_tokens(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x p ?y } LIMIT 5")


class TestErrorDiagnostics:
    """SparqlSyntaxError carries the offending token and its position."""

    def test_alias_spelling(self):
        from repro.sparql.parser import SparqlSyntaxError

        assert SparqlSyntaxError is SparqlSyntaxError
        assert issubclass(SparqlSyntaxError, ValueError)

    def test_bad_select_token_position(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_query("SELECT foo WHERE { ?x p ?y }")
        assert excinfo.value.token == "foo"
        assert excinfo.value.position == (1, 8)
        assert "line 1, column 8" in str(excinfo.value)
        assert "'foo'" in str(excinfo.value)

    def test_position_tracks_lines(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_query("SELECT ?x WHERE {\n  ?x p ?y .\n  ?z q }")
        assert excinfo.value.token == "?z"
        assert excinfo.value.position == (3, 3)

    def test_eof_errors_point_past_the_end(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_query("SELECT ?x")
        assert excinfo.value.token is None
        assert excinfo.value.position == (1, 10)

    def test_wrong_keyword_start(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_query("ASK { ?x p ?y }")
        assert excinfo.value.token == "ASK"
        assert excinfo.value.position == (1, 1)

    def test_literal_in_subject_position_reported(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_query('SELECT ?x WHERE { ?x p ?y . "lit" p ?x }')
        assert excinfo.value.token == '"lit"'
        assert excinfo.value.position == (1, 29)

    def test_nested_group_position(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_query("SELECT ?x WHERE { { ?x p ?y } }")
        assert excinfo.value.position == (1, 19)

    def test_lex_positions(self):
        from repro.sparql.parser import lex

        tokens = lex('SELECT ?x\nWHERE { ?x "a b" ?y }')
        assert [t.text for t in tokens][:3] == ["SELECT", "?x", "WHERE"]
        where = tokens[2]
        assert (where.line, where.column) == (2, 1)
        literal = next(t for t in tokens if t.text == '"a b"')
        assert literal.line == 2

    def test_distinguished_not_in_body_is_syntax_error(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_query("SELECT ?z WHERE { ?x p ?y }")
        assert excinfo.value.token == "?z"
        assert excinfo.value.position == (1, 8)
