"""A small DSL for inference-rule systems, with flag threading and metrics.

Rule files contain relation signatures and named rules:

    signature (c, sigma, [delta :- down], mu) =G=> (sigma', [delta'], mu')

    rule F-Seq:
      (c1, sigma, down, mu) =G=> (sigma1, delta1, mu1)
      (c2, sigma1, delta1, mu1) =G=> (sigma2, delta', mu2)
      ---
      (seq c1 c2, sigma, down, mu) =G=> (sigma2, delta', mu2)

* A signature declares, for one relation, the source and target tuple
  shapes.  Components in square brackets are *highlighted*: they carry the
  control flag, and rules may elide them.  A highlighted source component
  may declare a default with ``:-`` (the flag value under which the rule is
  meant to fire).

* A rule is a label, a body of premises and ``side`` conditions in textual
  order, a ``---`` line, and one conclusion.  Premise and conclusion tuples
  must either spell out every component of their relation (*explicit*) or
  drop exactly the highlighted ones (*implicit*); one rule may not mix the
  two styles.

* Identifiers that are not keywords are metavariables; everything else
  (keywords, numbers, punctuation) is constant syntax.

`thread_flags` rewrites implicit rules into explicit ones: the conclusion
and the first flagged premise receive the declared default flag, each later
flagged premise receives the previous premise's (fresh) output flag, and the
conclusion's output flag is the last premise's output — or the default again
when there is no flagged premise.  Already-explicit rules pass through
unchanged, so the transformation is idempotent.

`alpha_equal` compares rule sets up to consistent metavariable renaming:
rules are matched by label, premises in order, side conditions as multisets.
Two rules are alpha-equal when their canonical renamings are equal: every
metavariable renamed ``_0, _1, ...`` in order of first occurrence over the
conclusion, the premises, then the side conditions.
`count_metrics` reports rule and premise counts (side conditions are not
premises), and — given a base rule set — how many premises of the new rules
duplicate premises of the base rule for the same construct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

KEYWORDS = frozenset(
    """
    skip alloc assign seq if while throw catch input
    null conv div exc assign2 seq2 if2 while2 while3
    down up dom bop in notin lookup update nonzero zero pop
    """.split()
)


class RuleParseError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.message = message
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class MixedFlagUsage(RuleParseError):
    """A rule spelled out the flag components in one tuple but not another."""


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Atom:
    text: str

    @property
    def is_var(self) -> bool:
        t = self.text
        return (t[0].isalpha() or t[0] == "_") and t not in KEYWORDS

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Group:
    items: tuple  # of Term

    def __str__(self) -> str:
        return "(" + " ".join(str(t) for t in self.items) + ")"


Term = Atom | Group
Component = tuple  # tuple[Term, ...]


def _component_str(comp: Component) -> str:
    return " ".join(str(t) for t in comp)


# ---------------------------------------------------------------------------
# Signatures, judgments, rules


@dataclass(frozen=True)
class SigComponent:
    name: str
    highlighted: bool = False
    default: Optional[str] = None

    def __str__(self) -> str:
        if not self.highlighted:
            return self.name
        if self.default is not None:
            return f"[{self.name} :- {self.default}]"
        return f"[{self.name}]"


@dataclass(frozen=True)
class RelationSig:
    name: str
    source: tuple  # tuple[SigComponent, ...]
    target: tuple

    @property
    def flagged(self) -> bool:
        return any(c.highlighted for c in self.source + self.target)

    def highlight_positions(self, side: str) -> tuple:
        comps = self.source if side == "source" else self.target
        return tuple(i for i, c in enumerate(comps) if c.highlighted)

    def __str__(self) -> str:
        src = ", ".join(str(c) for c in self.source)
        tgt = ", ".join(str(c) for c in self.target)
        return f"signature ({src}) ={self.name}=> ({tgt})"


@dataclass(frozen=True)
class Judgment:
    relation: str
    source: tuple  # tuple[Component, ...]
    target: tuple
    implicit: bool = False

    def __str__(self) -> str:
        src = ", ".join(_component_str(c) for c in self.source)
        tgt = ", ".join(_component_str(c) for c in self.target)
        return f"({src}) ={self.relation}=> ({tgt})"


@dataclass(frozen=True)
class SideCondition:
    terms: Component

    def __str__(self) -> str:
        return "side " + _component_str(self.terms)


@dataclass(frozen=True)
class Rule:
    label: str
    body: tuple  # tuple[Judgment | SideCondition, ...] in textual order
    conclusion: Judgment

    @property
    def premises(self) -> tuple:
        return tuple(item for item in self.body if isinstance(item, Judgment))

    @property
    def sides(self) -> tuple:
        return tuple(item for item in self.body if isinstance(item, SideCondition))

    def __str__(self) -> str:
        lines = [f"rule {self.label}:"]
        for item in self.body:
            lines.append(f"  {item}")
        lines.append("  ---")
        lines.append(f"  {self.conclusion}")
        return "\n".join(lines)


@dataclass
class RuleSet:
    signatures: dict = field(default_factory=dict)  # relation name -> RelationSig
    rules: list = field(default_factory=list)

    def signature(self, relation: str) -> RelationSig:
        sig = self.signatures.get(relation)
        if sig is None:
            raise KeyError(f"no signature for relation {relation!r}")
        return sig

    def by_label(self, label: str) -> Rule:
        for r in self.rules:
            if r.label == label:
                return r
        raise KeyError(f"no rule labelled {label!r}")

    def union(self, other: "RuleSet") -> "RuleSet":
        sigs = dict(self.signatures)
        for name, sig in other.signatures.items():
            if name in sigs and sigs[name] != sig:
                raise ValueError(f"conflicting signatures for relation {name!r}")
            sigs[name] = sig
        labels = {r.label for r in self.rules}
        clash = labels & {r.label for r in other.rules}
        if clash:
            raise ValueError(f"duplicate rule labels in union: {sorted(clash)}")
        return RuleSet(sigs, self.rules + other.rules)


def pretty_rules(rs: RuleSet) -> str:
    parts = [str(sig) for sig in rs.signatures.values()]
    parts.extend(str(r) for r in rs.rules)
    return "\n\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<rel>=[A-Z]+=>)
      | (?P<def>:-)
      | (?P<sym>[()\[\],:])
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
    """,
    re.X,
)


def _tokenize_line(text: str, lineno: int) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleParseError(f"unexpected character {text[pos]!r}", lineno)
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append(m.group())
    return tokens


# Far deeper than any rule needs, and far from the recursion limit.
_NESTING = 100


class _LineParser:
    def __init__(self, text: str, lineno: int):
        self.tokens = _tokenize_line(text, lineno)
        self.i = 0
        self.lineno = lineno

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise RuleParseError("unexpected end of line", self.lineno)
        self.i += 1
        return tok

    def accept(self, tok: str) -> bool:
        if self.peek() != tok:
            return False
        self.i += 1
        return True

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise RuleParseError(f"expected {tok!r}, got {got!r}", self.lineno)

    def done(self) -> bool:
        return self.i >= len(self.tokens)

    def terms_until(self, stops: frozenset) -> Component:
        terms = []
        while not self.done() and self.peek() not in stops:
            terms.append(self.term())
        return tuple(terms)

    def term(self, depth: int = 0) -> Term:
        """One term, whose groups nest at most `_NESTING` levels below
        `depth`: every walk over terms recurses on groups."""
        tok = self.next()
        if tok == "(":
            if depth >= _NESTING:
                raise RuleParseError(f"groups nested deeper than {_NESTING} levels", self.lineno)
            items = []
            while self.peek() != ")":
                items.append(self.term(depth + 1))
            self.expect(")")
            return Group(tuple(items))
        if tok in (")", ",", "[", "]", ":", ":-") or tok.startswith("="):
            raise RuleParseError(f"unexpected {tok!r} in term", self.lineno)
        return Atom(tok)

    def tuple_of(self, read_component) -> tuple:
        """A parenthesised, comma-separated tuple of `read_component()`s."""
        self.expect("(")
        if self.accept(")"):
            return ()
        comps = [read_component()]
        while (tok := self.next()) == ",":
            comps.append(read_component())
        if tok != ")":
            raise RuleParseError(f"expected ',' or ')', got {tok!r}", self.lineno)
        return tuple(comps)

    def arrow_line(self, read_component, what: str) -> tuple:
        """`(source) =REL=> (target)` and the end of the line:
        (source, relation name, target)."""
        source = self.tuple_of(read_component)
        rel_tok = self.next()
        if not rel_tok.startswith("="):
            raise RuleParseError(f"expected relation arrow, got {rel_tok!r}", self.lineno)
        target = self.tuple_of(read_component)
        if not self.done():
            raise RuleParseError(f"trailing tokens after {what}: {self.peek()!r}", self.lineno)
        return source, rel_tok[1:-2], target


def _parse_signature(lp: _LineParser) -> RelationSig:
    def name(tok: str) -> str:
        """`tok`, if it can stand as a term: component names are printed
        back, and a default flag is threaded into rules as an atom."""
        if tok[0] in "()[],:=":
            raise RuleParseError(f"expected a component name, got {tok!r}", lp.lineno)
        return tok

    def sig_component() -> SigComponent:
        if not lp.accept("["):
            return SigComponent(name(lp.next()))
        comp = lp.next()
        default = lp.next() if lp.accept(":-") else None
        lp.expect("]")
        return SigComponent(name(comp), True, None if default is None else name(default))

    source, relation, target = lp.arrow_line(sig_component, "signature")
    return RelationSig(relation, source, target)


def _parse_judgment(lp: _LineParser, signatures: dict) -> Judgment:
    def component() -> Component:
        comp = lp.terms_until(frozenset({",", ")"}))
        if not comp:
            raise RuleParseError("empty tuple component", lp.lineno)
        return comp

    source, relation, target = lp.arrow_line(component, "judgment")
    sig = signatures.get(relation)
    if sig is None:
        raise RuleParseError(f"relation {relation!r} has no signature", lp.lineno)

    def classify(comps: tuple, sig_comps: tuple, side: str) -> bool:
        full = len(sig_comps)
        elided = full - sum(1 for c in sig_comps if c.highlighted)
        if len(comps) == full:
            return False
        if len(comps) == elided and elided != full:
            return True
        raise RuleParseError(
            f"{side} tuple of ={relation}=> has {len(comps)} component(s); "
            f"expected {full} (explicit) or {elided} (implicit)",
            lp.lineno,
        )

    src_implicit = classify(source, sig.source, "source")
    tgt_implicit = classify(target, sig.target, "target")
    if src_implicit != tgt_implicit:
        raise MixedFlagUsage(
            f"judgment of ={relation}=> elides the flag on one side only", lp.lineno
        )
    return Judgment(relation, source, target, src_implicit)


def parse_rules(text: str) -> RuleSet:
    signatures: dict = {}
    rules: list = []
    lines = text.splitlines()
    i = 0

    def logical(idx: int) -> str:
        return lines[idx].split("#", 1)[0].rstrip()

    while i < len(lines):
        stripped = logical(i).strip()
        if not stripped:
            i += 1
            continue
        lineno = i + 1
        if stripped.startswith("signature"):
            lp = _LineParser(stripped[len("signature") :], lineno)
            sig = _parse_signature(lp)
            if sig.name in signatures:
                raise RuleParseError(f"duplicate signature for ={sig.name}=>", lineno)
            signatures[sig.name] = sig
            i += 1
            continue
        if stripped.startswith("rule"):
            m = re.fullmatch(r"rule\s+([A-Za-z][A-Za-z0-9'-]*)\s*:", stripped)
            if m is None:
                raise RuleParseError("malformed rule header", lineno)
            label = m.group(1)
            if any(r.label == label for r in rules):
                raise RuleParseError(f"duplicate rule label {label!r}", lineno)
            i += 1
            body: list = []
            conclusion = None
            seen_dashes = False
            while i < len(lines):
                item_text = logical(i).strip()
                item_line = i + 1
                if not item_text:
                    if seen_dashes and conclusion is None:
                        raise RuleParseError("missing conclusion after ---", item_line)
                    break
                if re.fullmatch(r"-{3,}", item_text):
                    if seen_dashes:
                        raise RuleParseError("duplicate --- separator", item_line)
                    seen_dashes = True
                    i += 1
                    continue
                lp = _LineParser(item_text, item_line)
                if not seen_dashes and lp.accept("side"):
                    terms = lp.terms_until(frozenset())
                    if not terms:
                        raise RuleParseError("empty side condition", item_line)
                    body.append(SideCondition(terms))
                elif not seen_dashes:
                    body.append(_parse_judgment(lp, signatures))
                else:
                    if conclusion is not None:
                        raise RuleParseError("rule has more than one conclusion", item_line)
                    conclusion = _parse_judgment(lp, signatures)
                i += 1
            if not seen_dashes or conclusion is None:
                raise RuleParseError(f"rule {label} has no conclusion", lineno)
            _check_uniform_flags(label, body, conclusion, signatures, lineno)
            rules.append(Rule(label, tuple(body), conclusion))
            continue
        raise RuleParseError(f"expected 'signature' or 'rule', got {stripped!r}", lineno)
    return RuleSet(signatures, rules)


def _check_uniform_flags(label, body, conclusion, signatures, lineno) -> None:
    styles = {
        j.implicit
        for j in [*body, conclusion]
        if isinstance(j, Judgment) and signatures[j.relation].flagged
    }
    if len(styles) > 1:
        raise MixedFlagUsage(
            f"rule {label} mixes explicit and elided flag components", lineno
        )


def load_ruleset(name: str) -> RuleSet:
    """Load a rule file shipped with the package (e.g. ``flag_based``)."""
    if not name.endswith(".rules"):
        name += ".rules"
    text = (
        resources.files("whilesem").joinpath("rules").joinpath(name).read_text(encoding="utf-8")
    )
    return parse_rules(text)


# ---------------------------------------------------------------------------
# Renaming and alpha equality


def _map_terms(comp: Component, f) -> Component:
    """`comp` with every metavariable renamed through `f`, in textual order."""

    def term(t: Term) -> Term:
        if isinstance(t, Group):
            return Group(tuple(term(x) for x in t.items))
        return Atom(f(t.text)) if t.is_var else t

    return tuple(term(t) for t in comp)


def _map_rule(rule: Rule, f) -> Rule:
    """`rule` with every metavariable renamed through `f`, called on the
    conclusion first and then on the body in textual order."""

    def item(j):
        if isinstance(j, SideCondition):
            return SideCondition(_map_terms(j.terms, f))
        source = tuple(_map_terms(c, f) for c in j.source)
        return Judgment(j.relation, source, tuple(_map_terms(c, f) for c in j.target), j.implicit)

    conclusion = item(rule.conclusion)
    return Rule(rule.label, tuple(item(x) for x in rule.body), conclusion)


def _renamer(names: dict):
    """The canonical renaming: each new metavariable is named ``_0, _1,
    ...`` in order of first occurrence, and `names` keeps the names."""
    return lambda name: names.setdefault(name, f"_{len(names)}")


def _by_shape(rule: Rule, fixed: dict) -> dict:
    """`rule`'s side conditions grouped by shape: their terms with each
    metavariable of the conclusion and premises renamed by `fixed`, and
    every other one blanked out."""
    groups: dict = {}
    for side in rule.sides:
        groups.setdefault(_map_terms(side.terms, lambda name: fixed.get(name, "_")), []).append(side)
    return groups


def rule_alpha_equal(a: Rule, b: Rule) -> bool:
    """Same label, same relations, premises in order, side conditions as
    multisets, all under one consistent renaming of metavariables.

    The rules without their sides must be equal under their canonical
    renamings.  Sides that are alpha-equal have equal shapes, so each side
    of `a` is paired only with a side of `b` of its shape."""
    fixed_a, fixed_b = {}, {}
    if len(a.body) != len(b.body) or (
        _map_rule(Rule(a.label, a.premises, a.conclusion), _renamer(fixed_a))
        != _map_rule(Rule(b.label, b.premises, b.conclusion), _renamer(fixed_b))
    ):
        return False
    shapes_a, shapes_b = _by_shape(a, fixed_a), _by_shape(b, fixed_b)
    if {k: len(v) for k, v in shapes_a.items()} != {k: len(v) for k, v in shapes_b.items()}:
        return False
    rename = _renamer(fixed_a)
    want = [_map_terms(side.terms, rename) for group in shapes_a.values() for side in group]
    return _order_sides(want, [shapes_b[k] for k, group in shapes_a.items() for _ in group], fixed_b)


def _order_sides(want: list, pools: list, names: dict) -> bool:
    """Whether sides drawn one from each of `pools` (the unused sides of
    each wanted shape, so pools of one shape are one list) read as `want`
    under the canonical renaming that `names` has begun.  The renaming goes
    in textual order, so a side that reads differently from the one wanted
    at its place ends the branch."""
    if not want:
        return True
    pool = pools[0]
    for i in range(len(pool)):
        side = pool.pop(i)
        ext = dict(names)
        if _map_terms(side.terms, _renamer(ext)) == want[0] and _order_sides(want[1:], pools[1:], ext):
            return True
        pool.insert(i, side)
    return False


def alpha_equal(a: RuleSet, b: RuleSet) -> bool:
    return not alpha_diff(a, b)


def alpha_diff(a: RuleSet, b: RuleSet) -> list:
    """Human-readable reasons the two rule sets are not alpha-equal."""
    problems = []
    la = {r.label for r in a.rules}
    lb = {r.label for r in b.rules}
    for label in sorted(la - lb):
        problems.append(f"rule {label} only in the first set")
    for label in sorted(lb - la):
        problems.append(f"rule {label} only in the second set")
    for label in sorted(la & lb):
        if not rule_alpha_equal(a.by_label(label), b.by_label(label)):
            problems.append(f"rule {label} differs beyond renaming")
    return problems


# ---------------------------------------------------------------------------
# Flag threading


def _fresh_name(base: str, used: set) -> str:
    name, n = base, 0
    while name in used:
        n += 1
        name = f"{base}{n}"
    used.add(name)
    return name


def _single_highlight(sig: RelationSig, side: str) -> int:
    positions = sig.highlight_positions(side)
    if len(positions) != 1:
        raise RuleParseError(
            f"relation ={sig.name}=> must highlight exactly one {side} component "
            "to support flag threading"
        )
    return positions[0]


def _explicit_judgment(j: Judgment, sig: RelationSig, in_term: Term, out_term: Term) -> Judgment:
    s = _single_highlight(sig, "source")
    t = _single_highlight(sig, "target")
    src = j.source[:s] + ((in_term,),) + j.source[s:]
    return Judgment(j.relation, src, j.target[:t] + ((out_term,),) + j.target[t:])


def _default_atom(sig: RelationSig) -> Atom:
    comp = sig.source[_single_highlight(sig, "source")]
    if comp.default is None:
        raise RuleParseError(
            f"relation ={sig.name}=> declares no default flag; cannot thread"
        )
    return Atom(comp.default)


def thread_flags(rs: RuleSet) -> RuleSet:
    """Spell out elided flag components in every implicit rule."""
    out_rules = []
    for rule in rs.rules:
        # only judgments of a flagged relation can elide components
        if not any(j.implicit for j in (*rule.premises, rule.conclusion)):
            out_rules.append(rule)
            continue
        body = list(rule.body)
        flagged = [
            k for k, item in enumerate(body)
            if isinstance(item, Judgment) and rs.signature(item.relation).flagged
        ]
        used: set = set()  # the rule's metavariables, and each fresh flag name
        _map_rule(rule, lambda name: used.add(name) or name)
        prev_out: Optional[Term] = None
        for idx, k in enumerate(flagged):
            sig = rs.signature(body[k].relation)
            in_term = _default_atom(sig) if idx == 0 else prev_out
            base = "delta'" if idx == len(flagged) - 1 else f"delta{idx + 1}"
            prev_out = Atom(_fresh_name(base, used))
            body[k] = _explicit_judgment(body[k], sig, in_term, prev_out)
        csig = rs.signature(rule.conclusion.relation)
        c_out = prev_out if prev_out is not None else _default_atom(csig)
        conclusion = _explicit_judgment(rule.conclusion, csig, _default_atom(csig), c_out)
        out_rules.append(Rule(rule.label, tuple(body), conclusion))
    return RuleSet(dict(rs.signatures), out_rules)


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class Metrics:
    rules: int
    premises: int
    duplicates: Optional[int] = None

    def __str__(self) -> str:
        text = f"rules={self.rules} premises={self.premises}"
        if self.duplicates is not None:
            text += f" duplicates={self.duplicates}"
        return text


def _resolve(t: Term, sub: dict) -> Term:
    while isinstance(t, Atom) and t.is_var and t.text in sub:
        t = sub[t.text]
    return t


def _unify_term(a: Term, b: Term, sub: dict) -> bool:
    a = _resolve(a, sub)
    b = _resolve(b, sub)
    if a == b:
        return True
    if isinstance(a, Atom) and a.is_var:
        sub[a.text] = b
        return True
    if isinstance(b, Atom) and b.is_var:
        sub[b.text] = a
        return True
    if isinstance(a, Group) and isinstance(b, Group):
        return _unify_component(a.items, b.items, sub)
    return False


def _unify_component(a: Component, b: Component, sub: dict) -> bool:
    if len(a) == 1 and len(b) != 1:
        return _unify_term(a[0], Group(b), sub)
    if len(b) == 1 and len(a) != 1:
        return _unify_term(Group(a), b[0], sub)
    if len(a) != len(b):
        return False
    return all(_unify_term(x, y, sub) for x, y in zip(a, b))


def _unify_tuple(a: tuple, b: tuple, sub: dict) -> bool:
    if len(a) != len(b):
        return False
    return all(_unify_component(x, y, sub) for x, y in zip(a, b))


def _construct_head(j: Judgment) -> Optional[str]:
    if not j.source:
        return None
    first = j.source[0]
    if first and isinstance(first[0], Atom) and not first[0].is_var:
        return first[0].text
    return None


def _shared_premises(new_rule: Rule, base_rule: Rule) -> int:
    """Premises of `new_rule` that restate a premise of `base_rule`, under
    the substitution that identifies the two conclusion sources."""
    new_rule = _map_rule(new_rule, lambda name: "n$" + name)
    base_rule = _map_rule(base_rule, lambda name: "b$" + name)
    sub: dict = {}
    if not _unify_tuple(new_rule.conclusion.source, base_rule.conclusion.source, sub):
        return 0
    count = 0
    unused = list(base_rule.premises)
    for p in new_rule.premises:
        for k, q in enumerate(unused):
            if p.relation != q.relation:
                continue
            trial = dict(sub)
            if _unify_tuple(p.source, q.source, trial) and _unify_tuple(p.target, q.target, trial):
                sub = trial
                del unused[k]
                count += 1
                break
    return count


def count_metrics(rs: RuleSet, base: Optional[RuleSet] = None) -> Metrics:
    rules = len(rs.rules)
    premises = sum(len(r.premises) for r in rs.rules)
    if base is None:
        return Metrics(rules, premises)
    duplicates = 0
    base_labels = {r.label for r in base.rules}
    for rule in rs.rules:
        if rule.label in base_labels:
            continue
        head = _construct_head(rule.conclusion)
        if head is None:
            continue
        best = 0
        for base_rule in base.rules:
            if _construct_head(base_rule.conclusion) != head:
                continue
            best = max(best, _shared_premises(rule, base_rule))
        duplicates += best
    return Metrics(rules, premises, duplicates)
