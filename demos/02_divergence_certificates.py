#!/usr/bin/env python3
"""Proving non-termination with finite, checkable certificates.

Running out of fuel says nothing: the program might just be slow.  This
package turns "it loops" into a proof object of one of two kinds:

  * a *lasso* — a stem plus a cycle of small-step configurations; replaying
    the transitions and watching the state repeat is the whole check;
  * a *derivation graph* — a finite graph of judgements for one of the three
    coinductive rule systems (the divergence predicate, pretty-big-step, and
    the flag-based semantics), where cycles are legal and every node must be
    justified by a rule whose premises point back into the graph.

Both serialize to JSON; `check_certificate` re-validates either kind from
scratch, so a certificate can be shipped to a sceptical third party.
"""

import json

from whilesem import (
    EMPTY_STORE,
    EMPTY_STREAM,
    SYSTEMS,
    SmallConfig,
    certificate_to_json,
    check_certificate,
    detect_lasso,
    format_store,
    graph_to_json,
    parse_cmd,
    pretty_cmd,
    prove_divergence,
)

# --- 1. the minimal loop ------------------------------------------------
spin = parse_cmd("while 1 { skip }")
print(f"program: {pretty_cmd(spin)}")

lasso = detect_lasso(SmallConfig(spin, EMPTY_STORE, EMPTY_STREAM), fuel=10)
print(f"lasso: stem of {len(lasso.prefix)}, cycle of {len(lasso.cycle)}:")
for cfg in lasso.cycle:
    print(f"  <{pretty_cmd(cfg.cmd)}, {format_store(cfg.store)}>")
print(f"checker says: {check_certificate(lasso) or 'valid'}")
print()

# The same fact as a derivation graph, once per coinductive system.
for system in SYSTEMS:
    g = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, fuel=100)
    verdict = check_certificate(g) or "valid"
    print(f"{system:9s}: {len(g.nodes)} nodes, checker says {verdict}")
print()

# --- 2. a loop whose store never repeats --------------------------------
# The counter grows forever, so no two configurations are ever equal and a
# plain lasso search finds nothing.  Projecting x away is sound here (x
# never appears in a guard), and the quotiented search succeeds.
grower = parse_cmd("alloc x; x := 0; while 1 { x := x + 1 }")
print(f"program: {pretty_cmd(grower)}")
start = SmallConfig(grower, EMPTY_STORE, EMPTY_STREAM)
print(f"plain search, fuel 1000   : {detect_lasso(start, 1_000)}")
abstracted = detect_lasso(start, 1_000, frozenset({"x"}))
print(f"search ignoring x, fuel 1000: cycle of {len(abstracted.cycle)}, "
      f"checker says {check_certificate(abstracted) or 'valid'}")
print()

# --- 3. divergence swallows the rest of the program ---------------------
# Everything after the loop is dead code.  In the flag-based system that is
# not hand-waving but a rule: once the divergence flag is up, an abort rule
# discharges the remaining command in a single node.  Look for the F-Div
# node in the serialized graph.
c = parse_cmd("{ while 1 { skip } }; alloc x; x := x + 0")
print(f"program: {pretty_cmd(c)}")
g = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, "flag-co", fuel=1_000)
print(f"flag-co graph, checker says {check_certificate(g) or 'valid'}:")
print(json.dumps(graph_to_json(g), indent=2))
print()

# --- 4. certificates travel as JSON -------------------------------------
blob = json.dumps(certificate_to_json(lasso))
print(f"the lasso above, as a {len(blob)}-byte JSON document, round-trips:")
from whilesem import certificate_from_json
again = certificate_from_json(json.loads(blob))
print(f"re-checked after the round-trip: {check_certificate(again) or 'valid'}")
