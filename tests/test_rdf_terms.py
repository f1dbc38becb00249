"""Unit tests for repro.rdf.terms."""

import pytest

from repro.rdf import terms


class TestClassification:
    def test_variable(self):
        assert terms.is_variable("?x")
        assert not terms.is_variable("x")
        assert terms.kind_of("?x") is terms.TermKind.VARIABLE

    def test_literal(self):
        assert terms.is_literal('"C1"')
        assert not terms.is_literal("C1")
        assert terms.kind_of('"C1"') is terms.TermKind.LITERAL

    def test_blank(self):
        assert terms.is_blank("_:b0")
        assert terms.kind_of("_:b0") is terms.TermKind.BLANK

    def test_iri_full_and_prefixed(self):
        assert terms.is_iri("<http://example.org/a>")
        assert terms.is_iri("ub:worksFor")
        assert terms.kind_of("ub:worksFor") is terms.TermKind.IRI

    def test_constants(self):
        assert terms.is_constant('"lit"')
        assert terms.is_constant("<iri>")
        assert not terms.is_constant("?v")


class TestValidateTriple:
    def test_valid_triple(self):
        terms.validate_triple("<s>", "<p>", '"o"')

    def test_blank_subject_allowed(self):
        terms.validate_triple("_:b", "<p>", "<o>")

    def test_literal_subject_rejected(self):
        with pytest.raises(ValueError):
            terms.validate_triple('"s"', "<p>", "<o>")

    def test_variable_object_rejected(self):
        with pytest.raises(ValueError):
            terms.validate_triple("<s>", "<p>", "?o")

    def test_blank_property_rejected(self):
        with pytest.raises(ValueError):
            terms.validate_triple("<s>", "_:p", "<o>")
