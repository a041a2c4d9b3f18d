#!/usr/bin/env python3
"""Proving non-termination with finite, checkable certificates.

Running out of fuel says nothing: the program might just be slow.  This
package turns "it loops" into a proof object: a *derivation graph*, a
finite graph of judgements for one of four coinductive rule systems, where
cycles are legal and every node must be justified by a rule whose premises
point back into the graph.  Two searches build them:

  * the *lasso* search finds a stem plus a cycle of small-step
    configurations; `lasso_graph` writes it as a graph of infinite
    reduction (`small_div.rules`): each configuration steps to the next,
    the last back to the start of the cycle;
  * `prove_divergence` builds a graph for the divergence predicate,
    pretty-big-step or the flag-based semantics.

Graphs serialize to JSON; `check_certificate` re-validates them from
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
    lasso_graph,
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
graph = lasso_graph(lasso)
print(f"as a {graph.system} graph of {len(graph.nodes)} nodes, checker says: {check_certificate(graph) or 'valid'}")
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
# never appears in a guard), and the quotiented search succeeds: the graph
# holds x as `*` (any natural) in the cycle's nodes.
grower = parse_cmd("alloc x; x := 0; while 1 { x := x + 1 }")
print(f"program: {pretty_cmd(grower)}")
start = SmallConfig(grower, EMPTY_STORE, EMPTY_STREAM)
print(f"plain search, fuel 1000   : {detect_lasso(start, 1_000)}")
abstracted = detect_lasso(start, 1_000, frozenset({"x"}))
print(f"search ignoring x, fuel 1000: cycle of {len(abstracted.cycle)}, "
      f"checker says {check_certificate(lasso_graph(abstracted)) or 'valid'}")
print()

# --- 3. divergence swallows the rest of the program ---------------------
# Everything after the loop is dead code.  In the flag-based system that is
# not hand-waving but a rule: once the divergence flag is up, an abort rule
# discharges the remaining command in a single node.  Look for the F-Div
# node in the serialized graph: its document writes each term once, in a
# table, as its keyword and the indices of earlier entries, and the nodes
# cite the terms, stores and streams by index.
c = parse_cmd("{ while 1 { skip } }; alloc x; x := x + 0")
print(f"program: {pretty_cmd(c)}")
g = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, "flag-co", fuel=1_000)
print(f"flag-co graph, checker says {check_certificate(g) or 'valid'}:")
doc = certificate_to_json(g)
for table in ("terms", "stores", "streams", "nodes"):
    print(f"  {table}:")
    for i, entry in enumerate(doc[table]):
        print(f"    {i}: {json.dumps(entry)}")
print()

# --- 4. certificates travel as JSON -------------------------------------
blob = json.dumps(certificate_to_json(lasso))
print(f"the lasso graph above, as a {len(blob)}-byte JSON document, round-trips:")
from whilesem import certificate_from_json
again = certificate_from_json(json.loads(blob))
print(f"re-checked after the round-trip: {check_certificate(again) or 'valid'}")
