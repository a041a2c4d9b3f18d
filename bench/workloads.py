"""The three benchmark workloads.

Each workload class is built as `Workload(seed, tiny)` -- set-up, all
inputs derived from the seed -- and then driven one op at a time by
`run.py`: `op(i)` does the work the benchmark times, and `check(i, out)`
compares its output with a reference outside the timer and returns None or
a one-line reason for the failure.  `period` is the length of the corpus
the ops cycle through (1 when every op has fresh input), and
`divergent_ops` holds the indices of the ops whose program was proved
divergent.

The workloads call `whilesem` through module attributes (`harness.compare_all`,
`coinduction.check_certificate`, ...) rather than names bound at import, so
that the traced run can rebind those entry points (see `spans.py`).

* `campaign`   -- one op is one generated program through the per-program
  path of `fuzz_campaign` (what `whilesem fuzz` does).
* `long-loops` -- one op is `compare_all` on a long-running convergent
  program from a template, checked against a plain-Python oracle.
* `cert-check` -- one op decodes and checks one divergence certificate (what
  `whilesem cert check` does), from a corpus proved during set-up.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import whilesem
import whilesem.cli  # noqa: F401  -- the CLI's import cost belongs to set-up
from whilesem import coinduction, harness
from whilesem.coinduction import SYSTEMS
from whilesem.harness import GenConfig
from whilesem.small_step import SmallConfig
from whilesem.syntax import (
    EMPTY_STORE,
    EMPTY_STREAM,
    Alloc,
    Assign,
    Bop,
    Converged,
    If,
    Lit,
    Nat,
    Seq,
    Store,
    Var,
    While,
)

HERE = Path(__file__).resolve().parent

# Consecutive workload seeds draw from disjoint ranges of program seeds, so
# two runs on different seeds share no program.  Seed 0 maps to program
# seeds 0, 1, 2, ... which is what `whilesem fuzz --seed 0` generates.
SEED_STRIDE = 100_000

CAMPAIGN_FUEL = 500
CAMPAIGN_DEPTH = 5
# ROADMAP behaviour fingerprint: 2,000 programs, GenConfig(seed=0,
# max_depth=5), fuel 500.
ROADMAP_FINGERPRINT = (2000, {"converged": 1336, "stuck": 350, "diverges-proven": 314})
VERDICT_LETTERS = {
    "converged": "c",
    "stuck": "s",
    "diverges-proven": "d",
    "unknown": "u",
    "exception": "e",
}
RECORDED_VERDICTS = HERE / "campaign_seed0.json"


def _stacked(cmds):
    """Right-nested sequence of the given commands."""
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


def _lit(n):
    return Lit(Nat(n))


class Campaign:
    """`fuzz_campaign` over programs from GenConfig(seed=base+i, max_depth=5).

    Every op must agree across the four semantics.  For seed 0 the verdict
    of each program must equal the verdict recorded at the commit that
    introduced this benchmark (`campaign_seed0.json`), and the counts over
    the first 2,000 programs must equal the ROADMAP fingerprint."""

    name = "campaign"
    period = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.base = seed * SEED_STRIDE
        self.counts: Counter = Counter()
        self.divergent_ops: set = set()
        self.recorded = ""
        self.fingerprint = None
        if seed == 0:
            self.recorded = json.loads(RECORDED_VERDICTS.read_text())["verdicts"]
            self.fingerprint = ROADMAP_FINGERPRINT

    def op(self, i: int):
        cfg = GenConfig(seed=self.base + i, max_depth=CAMPAIGN_DEPTH)
        return harness.fuzz_campaign(cfg, 1, CAMPAIGN_FUEL)

    def check(self, i: int, summary):
        if summary.disagreements:
            return f"program {self.base + i}: {summary.disagreements[0][2][0]}"
        (verdict,) = summary.verdict_counts.elements()
        self.counts[verdict] += 1
        if verdict == "diverges-proven":
            self.divergent_ops.add(i)
        if i < len(self.recorded) and VERDICT_LETTERS.get(verdict) != self.recorded[i]:
            return f"program {self.base + i}: verdict {verdict}, recorded {self.recorded[i]!r}"
        if self.fingerprint is not None and i + 1 == self.fingerprint[0]:
            if dict(self.counts) != self.fingerprint[1]:
                return f"counts after {i + 1} programs {dict(self.counts)} != {self.fingerprint[1]}"
        return None


def record_campaign_verdicts(n: int) -> str:
    """Verdict letters of programs 0..n-1 at seed 0 (for `campaign_seed0.json`)."""
    letters = []
    for i in range(n):
        summary = harness.fuzz_campaign(GenConfig(seed=i, max_depth=CAMPAIGN_DEPTH), 1, CAMPAIGN_FUEL)
        if summary.disagreements:
            raise RuntimeError(f"program {i} disagrees: {summary.disagreements[0]}")
        (verdict,) = summary.verdict_counts.elements()
        letters.append(VERDICT_LETTERS[verdict])
    return "".join(letters)


class LongLoops:
    """`compare_all` on countdown-loop programs over a wide store.

    Template: allocate and initialise `width` data variables and a counter
    `n`; then `while n { if n - k { a := a + p } else { b := b + q };
    c := c + r; [d := d - s;] n := n - 1 }`, with the bracketed update in
    every other block of three programs.  Each block holds one program of
    each width in {1, 10, 50}, in a seeded order; the other parameters are
    drawn from the seed.  The final store is computed in plain Python from
    the parameters, and all four evaluators must reach it (and agree, per
    `compare_all`)."""

    name = "long-loops"
    WIDTHS = (1, 10, 50)
    divergent_ops = frozenset()

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        blocks = 2 if tiny else 8
        self.programs = []
        for block in range(blocks):
            widths = list(self.WIDTHS)
            rng.shuffle(widths)
            for width in widths:
                iterations = rng.randint(5, 10) if tiny else rng.randint(270, 330)
                self.programs.append(self._template(rng, width, iterations, block % 2))
        self.period = len(self.programs)

    @staticmethod
    def _template(rng, width, iterations, extra):
        names = [f"a{j}" for j in range(width)]
        init = {x: rng.randint(0, 9) for x in names}
        k = rng.randint(0, iterations)
        updates = [(rng.choice(names), "+", rng.randint(1, 3)) for _ in range(2)]
        body_tail = [(rng.choice(names), "+", rng.randint(1, 3))]
        if extra:
            body_tail.append((rng.choice(names), "-", rng.randint(1, 3)))

        def assign(x, op, c):
            return Assign(x, Bop(op, Var(x), _lit(c)))

        (then_x, _, then_c), (else_x, _, else_c) = updates
        loop = While(
            Var("n"),
            _stacked(
                [If(Bop("-", Var("n"), _lit(k)), assign(then_x, "+", then_c), assign(else_x, "+", else_c))]
                + [assign(*u) for u in body_tail]
                + [assign("n", "-", 1)]
            ),
        )
        prelude = [Alloc("n"), Assign("n", _lit(iterations))]
        for x in names:
            prelude += [Alloc(x), Assign(x, _lit(init[x]))]
        program = _stacked(prelude + [loop])

        # The oracle: the same loop in plain Python over ints.
        env = dict(init, n=iterations)
        for count in range(iterations, 0, -1):
            if count - k > 0:
                env[then_x] += then_c
            else:
                env[else_x] += else_c
            for x, op, c in body_tail:
                env[x] = env[x] + c if op == "+" else max(env[x] - c, 0)
        env["n"] = 0
        expected = Store({x: Nat(v) for x, v in env.items()})
        # Every rule system spends at most ~12 steps per iteration here.
        fuel = 20 * (iterations + 2 * width + 10)
        return program, expected, fuel

    def op(self, i: int):
        program, _, fuel = self.programs[i % len(self.programs)]
        return harness.compare_all(program, None, fuel)

    def check(self, i: int, report):
        _, expected, _ = self.programs[i % len(self.programs)]
        if not report.agreement:
            return f"evaluators disagree: {report.failures[0]}"
        for name, verdict in report.comparisons[0].verdicts.items():
            if not isinstance(verdict, Converged) or verdict.store != expected:
                return f"{name} final store differs from the oracle"
        return None


class CertCheck:
    """Decode and check certificates written by the provers.

    Set-up scans seeded generated programs for divergent ones (a lasso within
    fuel 500), places every fourth behind a convergent countdown stem of 10
    to 40 iterations, and proves each: one `detect_lasso` certificate and one
    `prove_divergence` certificate per system.  Each op checks one
    certificate text; outside the timer the decoded certificate must
    re-encode to the same JSON."""

    name = "cert-check"
    divergent_ops = frozenset()
    SCAN_FUEL = 500
    PROVE_FUEL = 1000

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        n_programs = 4 if tiny else 96
        stems = [10 + (30 * j) // max(n_programs // 4 - 1, 1) for j in range(n_programs // 4)]
        rng.shuffle(stems)
        self.texts: list[str] = []
        self.expected: list[dict] = []
        program_seed = seed * SEED_STRIDE
        found = 0
        while found < n_programs:
            program = harness.generate_program(GenConfig(seed=program_seed, max_depth=CAMPAIGN_DEPTH))
            program_seed += 1
            start = SmallConfig(program, EMPTY_STORE, EMPTY_STREAM)
            if coinduction.detect_lasso(start, self.SCAN_FUEL) is None:
                continue
            if found % 4 == 3:
                t = stems[found // 4]
                stem = _stacked([
                    Alloc("t"),
                    Assign("t", _lit(t)),
                    While(Var("t"), Assign("t", Bop("-", Var("t"), _lit(1)))),
                ])
                program = Seq(stem, program)
            found += 1
            self._add_certificates(program)
        self.period = len(self.texts)

    def _add_certificates(self, program):
        start = SmallConfig(program, EMPTY_STORE, EMPTY_STREAM)
        certs = [coinduction.detect_lasso(start, self.PROVE_FUEL)]
        certs += [
            coinduction.prove_divergence(program, EMPTY_STORE, EMPTY_STREAM, system, self.PROVE_FUEL)
            for system in SYSTEMS
        ]
        if any(cert is None for cert in certs):
            raise RuntimeError(f"no certificate for {whilesem.pretty_cmd(program)!r}")
        for cert in certs:
            data = coinduction.certificate_to_json(cert)
            self.texts.append(json.dumps(data))
            self.expected.append(data)

    def op(self, i: int):
        text = self.texts[i % len(self.texts)]
        cert = coinduction.certificate_from_json(json.loads(text))
        return cert, coinduction.check_certificate(cert)

    def check(self, i: int, out):
        cert, problem = out
        if problem is not None:
            return f"certificate {i % len(self.texts)} rejected: {problem}"
        if coinduction.certificate_to_json(cert) != self.expected[i % len(self.texts)]:
            return f"certificate {i % len(self.texts)} does not round-trip"
        return None


WORKLOADS = {w.name: w for w in (Campaign, LongLoops, CertCheck)}
