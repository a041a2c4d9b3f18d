"""The rule notation: parsing, flag threading, alpha comparison, counting."""

import pytest

from whilesem.rule_dsl import (
    Metrics,
    MixedFlagUsage,
    RuleParseError,
    alpha_diff,
    alpha_equal,
    count_metrics,
    load_ruleset,
    parse_rules,
    pretty_rules,
    thread_flags,
)

RULE_FILES = {
    "exprs.rules": (3, 2),
    "small_step.rules": (8, 6),
    "big_step.rules": (11, 13),
    "div_pred.rules": (6, 12),
    "pretty_big.rules": (18, 16),
    "flag_based.rules": (13, 13),
    "throw_catch_input.rules": (7, 3),
}


@pytest.mark.parametrize("name,expected", sorted(RULE_FILES.items()))
def test_shipped_rule_counts(name, expected):
    rs = load_ruleset(name)
    m = count_metrics(rs)
    assert (m.rules, m.premises) == expected


def test_flag_based_counts_formatting():
    m = count_metrics(load_ruleset("flag_based.rules"))
    assert str(m) == "rules=13 premises=13"


def test_union_with_divergence_rules_and_duplicates():
    base = load_ruleset("big_step.rules")
    both = base.union(load_ruleset("div_pred.rules"))
    m = count_metrics(both, base=base)
    assert (m.rules, m.premises, m.duplicates) == (17, 25, 6)
    assert str(m) == "rules=17 premises=25 duplicates=6"


def test_pretty_rules_round_trip():
    for name in RULE_FILES:
        rs = load_ruleset(name)
        again = parse_rules(pretty_rules(rs))
        assert alpha_equal(rs, again), name


def test_threading_matches_handwritten_explicit_rules():
    implicit = load_ruleset("flag_based_implicit.rules")
    threaded = thread_flags(implicit)
    explicit = load_ruleset("flag_based.rules")
    assert alpha_equal(threaded, explicit), alpha_diff(threaded, explicit)


def test_threading_is_idempotent():
    threaded = thread_flags(load_ruleset("flag_based_implicit.rules"))
    assert alpha_equal(thread_flags(threaded), threaded)


def test_threading_leaves_explicit_rules_unchanged():
    explicit = load_ruleset("flag_based.rules")
    assert alpha_equal(thread_flags(explicit), explicit)


def test_threading_preserves_counts():
    implicit = load_ruleset("flag_based_implicit.rules")
    before = count_metrics(implicit)
    after = count_metrics(thread_flags(implicit))
    assert (before.rules, before.premises) == (after.rules, after.premises)


def test_alpha_equality_is_name_insensitive():
    a = parse_rules(
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "rule R:\n"
        "  (c1, sigma, mu) =B=> (sigma1, mu1)\n"
        "  ---\n"
        "  (seq c1 c2, sigma, mu) =B=> (sigma1, mu1)\n"
    )
    b = parse_rules(
        "signature (k, tau, nu) =B=> (tau', nu')\n"
        "rule R:\n"
        "  (k1, tau, nu) =B=> (tau9, nu9)\n"
        "  ---\n"
        "  (seq k1 k2, tau, nu) =B=> (tau9, nu9)\n"
    )
    assert alpha_equal(a, b)


def test_alpha_equality_rejects_different_structure():
    a = parse_rules(
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "rule R:\n"
        "  ---\n"
        "  (skip, sigma, mu) =B=> (sigma, mu)\n"
    )
    b = parse_rules(
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "rule R:\n"
        "  ---\n"
        "  (skip, sigma, mu) =B=> (sigma', mu)\n"
    )
    assert not alpha_equal(a, b)
    assert alpha_diff(a, b) == ["rule R differs beyond renaming"]


def test_side_condition_order_does_not_matter():
    a = parse_rules(
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "rule R:\n"
        "  side x in dom sigma\n"
        "  side nonzero v\n"
        "  ---\n"
        "  (assign x v, sigma, mu) =B=> (sigma, mu)\n"
    )
    b = parse_rules(
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "rule R:\n"
        "  side nonzero v\n"
        "  side x in dom sigma\n"
        "  ---\n"
        "  (assign x v, sigma, mu) =B=> (sigma, mu)\n"
    )
    assert alpha_equal(a, b)


def test_mixed_flag_usage_rejected():
    text = (
        "signature (c, sigma, [delta :- down], mu) =G=> (sigma', [delta'], mu')\n"
        "rule BAD:\n"
        "  (c1, sigma, mu) =G=> (sigma1, mu1)\n"
        "  ---\n"
        "  (seq c1 c2, sigma, delta, mu) =G=> (sigma1, delta', mu1)\n"
    )
    with pytest.raises(MixedFlagUsage):
        parse_rules(text)


def test_missing_separator_rejected():
    text = (
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "rule R:\n"
        "  (skip, sigma, mu) =B=> (sigma, mu)\n"
    )
    with pytest.raises(RuleParseError):
        parse_rules(text)


def test_unknown_relation_rejected():
    text = "rule R:\n  ---\n  (skip, sigma, mu) =Z=> (sigma, mu)\n"
    with pytest.raises(RuleParseError) as e:
        parse_rules(text)
    assert e.value.line is not None


def test_wrong_arity_rejected():
    text = (
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "rule R:\n"
        "  ---\n"
        "  (skip, sigma) =B=> (sigma, mu)\n"
    )
    with pytest.raises(RuleParseError):
        parse_rules(text)


def test_duplicate_rule_label_rejected():
    text = (
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "rule R:\n  ---\n  (skip, sigma, mu) =B=> (sigma, mu)\n"
        "rule R:\n  ---\n  (skip, sigma, mu) =B=> (sigma, mu)\n"
    )
    with pytest.raises(RuleParseError):
        parse_rules(text)


def test_union_rejects_conflicting_signatures():
    a = parse_rules("signature (c, sigma, mu) =B=> (sigma', mu')\n")
    b = parse_rules("signature (c, sigma) =B=> (sigma')\n")
    with pytest.raises(ValueError):
        a.union(b)


def test_comments_and_blank_lines_ignored():
    rs = parse_rules(
        "# a comment\n"
        "signature (c, sigma, mu) =B=> (sigma', mu')\n"
        "\n"
        "rule R:  # trailing comment\n"
        "  ---\n"
        "  (skip, sigma, mu) =B=> (sigma, mu)\n"
    )
    assert len(rs.rules) == 1


def test_metrics_shape():
    m = Metrics(3, 2, None)
    assert str(m) == "rules=3 premises=2"
    assert str(Metrics(3, 2, 1)) == "rules=3 premises=2 duplicates=1"
