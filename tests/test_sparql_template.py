"""Tests for template extraction (repro.sparql.canonical.extract_template)."""

from __future__ import annotations

import pytest

from repro.sparql.ast import BGPQuery, TriplePattern
from repro.sparql.canonical import (
    CanonicalizationBudgetExceeded,
    canonicalize,
    extract_template,
)
from repro.sparql.parser import SparqlSyntaxError, parse_query
from repro.workloads import lubm_queries

ALL_NAMES = [f"Q{i}" for i in range(1, 15)]


class TestExtraction:
    def test_constant_variants_share_a_signature(self):
        t1 = extract_template(
            parse_query(
                "SELECT ?x WHERE { ?x rdf:type ub:Lecturer . "
                "?x ub:worksFor <deptA> }"
            )
        )
        t2 = extract_template(
            parse_query(
                "SELECT ?y WHERE { ?y ub:worksFor <deptB> . "
                "?y rdf:type ub:Professor }"
            )
        )
        assert t1.signature == t2.signature
        assert t1.digest() == t2.digest()

    def test_digest_is_computed_once_and_unchanged(self, monkeypatch):
        import hashlib

        template = extract_template(lubm_queries.query("Q9"))
        # The digest the SHA-1 of the signature's repr has always given.
        assert template.digest() == "499fa482b5f9"
        assert extract_template(lubm_queries.query("Q2")).digest() == "d3f44934cfce"
        assert template.digest() == (
            hashlib.sha1(repr(template.signature).encode()).hexdigest()[:12]
        )
        monkeypatch.setattr(hashlib, "sha1", None)  # a second hash would raise
        assert template.digest() == "499fa482b5f9"

    def test_property_constants_are_structural(self):
        t1 = extract_template(
            parse_query("SELECT ?x WHERE { ?x ub:worksFor <d> }")
        )
        t2 = extract_template(
            parse_query("SELECT ?x WHERE { ?x ub:memberOf <d> }")
        )
        assert t1.signature != t2.signature

    def test_variable_vs_constant_positions_differ(self):
        # Q12 (variable ?U) and Q13 (constant university) must not merge.
        t12 = extract_template(lubm_queries.query("Q12"))
        t13 = extract_template(lubm_queries.query("Q13"))
        assert t12.signature != t13.signature

    def test_literal_and_iri_kinds_differ(self):
        t1 = extract_template(
            parse_query('SELECT ?x WHERE { ?x ub:name "Alice" }')
        )
        t2 = extract_template(
            parse_query("SELECT ?x WHERE { ?x ub:name <alice> }")
        )
        assert t1.signature != t2.signature
        assert t1.params[0].kind == "literal"
        assert t2.params[0].kind == "iri"

    def test_auto_param_names_follow_occurrence_order(self):
        t = extract_template(
            parse_query(
                "SELECT ?x WHERE { <s0> ub:p ?x . ?x ub:q <o1> . "
                "?x ub:r <o2> }"
            )
        )
        by_name = {p.name: p for p in t.params}
        assert set(by_name) == {"p0", "p1", "p2"}
        assert by_name["p0"].default == "<s0>"
        assert by_name["p1"].default == "<o1>"
        assert by_name["p2"].default == "<o2>"
        assert t.param_names == ("p0", "p1", "p2")

    def test_roundtrip_every_lubm_query(self):
        """extract -> bind original constants -> the original query."""
        for name in ALL_NAMES:
            q = lubm_queries.query(name)
            t = extract_template(q)
            values = t.check_values(t.default_values())
            assert t.bind_source(values) == q, name
            # The bound canonical query is isomorphic to the original.
            bound = t.bind_canonical(values)
            assert (
                canonicalize(bound).signature == canonicalize(q).signature
            ), name

    def test_isomorphic_queries_same_template_and_mapping_consistency(self):
        q = lubm_queries.query("Q4")
        renamed = {v: f"?zz{i}" for i, v in enumerate(q.variables())}
        iso = BGPQuery(
            distinguished=tuple(renamed[v] for v in q.distinguished),
            patterns=tuple(
                TriplePattern(
                    renamed.get(tp.s, tp.s), tp.p, renamed.get(tp.o, tp.o)
                )
                for tp in reversed(q.patterns)
            ),
        )
        t, ti = extract_template(q), extract_template(iso)
        assert t.signature == ti.signature
        assert t.instance_key(t.check_values(t.default_values())) == (
            ti.instance_key(ti.check_values(ti.default_values()))
        )

    def test_instance_keys_differ_per_binding(self):
        t = extract_template(
            parse_query("SELECT ?x WHERE { ?x ub:worksFor <d1> }")
        )
        k1 = t.instance_key(("<d1>",))
        k2 = t.instance_key(("<d2>",))
        assert k1 != k2
        assert k1 == t.instance_key(("<d1>",))

    def test_lift_disabled_degenerates_to_classic_signature(self):
        q = lubm_queries.query("Q2")
        t = extract_template(q, lift_constants=False)
        assert t.arity == 0
        assert t.signature == canonicalize(q).signature

    def test_budget_still_enforced(self):
        sym = parse_query(
            "SELECT ?a ?b WHERE { ?a ub:advisor ?b . ?b ub:advisor ?a }"
        )
        with pytest.raises(CanonicalizationBudgetExceeded):
            extract_template(sym, budget=2)

    def test_param_order_subject_before_object_within_a_pattern(self):
        q = parse_query(
            "SELECT ?k WHERE { <Alice> ?rel <Bob> . ?rel <kind> ?k }"
        )
        t = extract_template(q)
        names = t.param_names
        by_name = {p.name: p for p in t.params}
        # Positional order must follow query text: subject before object.
        assert [by_name[n].source for n in names] == [
            (0, "s"),
            (0, "o"),
        ]
        # Positional rebinding keeps subject/object untouched.
        values = [None] * t.arity
        for i, p in enumerate(t.params):
            values[i] = {"p0": "<Carol>", "p1": "<Dave>"}[p.name]
        bound = t.bind_source(t.check_values(tuple(values)))
        assert bound.patterns[0].s == "<Carol>"
        assert bound.patterns[0].o == "<Dave>"

    def test_rdf_type_objects_are_liftable(self):
        t = extract_template(
            parse_query("SELECT ?x WHERE { ?x rdf:type ub:Course }")
        )
        assert t.arity == 1
        assert t.params[0].default == "ub:Course"


class TestExplicitPlaceholders:
    def test_parser_accepts_dollar_params(self):
        q = parse_query("SELECT ?x WHERE { ?x ub:worksFor $dept }")
        assert q.placeholders() == ("$dept",)
        assert q.patterns[0].placeholders() == ("$dept",)

    def test_parser_rejects_property_position(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x ?y WHERE { ?x $p ?y }")

    def test_parser_rejects_malformed_placeholder(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x ub:p $9bad }")

    def test_ast_rejects_property_placeholder(self):
        with pytest.raises(ValueError):
            TriplePattern("?x", "$p", "?y")

    def test_explicit_params_have_no_default(self):
        t = extract_template(
            parse_query("SELECT ?x WHERE { ?x ub:worksFor $dept }")
        )
        (param,) = t.params
        assert param.name == "dept"
        assert param.explicit and param.default is None
        with pytest.raises(ValueError, match="unbound"):
            t.check_values(t.default_values())

    def test_shared_placeholder_spans_two_slots(self):
        t = extract_template(
            parse_query(
                "SELECT ?x ?y WHERE { ?x ub:worksFor $d . ?y ub:memberOf $d }"
            )
        )
        assert t.arity == 2
        assert {p.name for p in t.params} == {"d"}
        assert t.param_names == ("d",)

    def test_auto_names_avoid_explicit_collisions(self):
        t = extract_template(
            parse_query(
                "SELECT ?x WHERE { ?x ub:worksFor $p0 . ?x ub:memberOf <d> }"
            )
        )
        names = {p.name for p in t.params}
        assert "p0" in names and len(names) == 2


class TestValueValidation:
    def _template(self):
        return extract_template(
            parse_query(
                'SELECT ?x WHERE { <s> ub:p ?x . ?x ub:name "n" }'
            )
        )

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="parameters"):
            self._template().check_values(("<a>",))

    def test_variable_rejected(self):
        t = extract_template(parse_query("SELECT ?x WHERE { ?x ub:p <o> }"))
        with pytest.raises(ValueError, match="constant"):
            t.check_values(("?y",))

    def test_literal_cannot_bind_subject(self):
        t = extract_template(parse_query("SELECT ?x WHERE { <s> ub:p ?x }"))
        with pytest.raises(ValueError, match="subject|resource"):
            t.check_values(('"lit"',))

    def test_kind_mismatch_rejected(self):
        t = extract_template(
            parse_query('SELECT ?x WHERE { ?x ub:name "n" }')
        )
        with pytest.raises(ValueError, match="literal"):
            t.check_values(("<iri>",))

    def test_placeholder_value_rejected(self):
        t = extract_template(parse_query("SELECT ?x WHERE { ?x ub:p <o> }"))
        with pytest.raises(ValueError, match="constant"):
            t.check_values(("$again",))


class TestSyntaxErrorName:
    def test_name_attached_and_in_message(self):
        with pytest.raises(SparqlSyntaxError) as exc:
            parse_query("SELECT ?x WHERE { ?x p }", name="Q99")
        assert exc.value.name == "Q99"
        assert "Q99" in str(exc.value)

    def test_anonymous_parse_keeps_empty_name(self):
        with pytest.raises(SparqlSyntaxError) as exc:
            parse_query("not a query")
        assert exc.value.name == ""
