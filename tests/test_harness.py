"""Program generation and the differential comparison driver."""

import dataclasses
import json
from pathlib import Path

import pytest

import whilesem.harness as harness
from whilesem.big_step import fuel_used
from whilesem.coinduction import certificate_from_json, certificate_to_json, check_certificate
from whilesem.harness import (
    DEFAULT_WEIGHTS,
    SEMANTICS,
    GenConfig,
    binary_streams,
    compare_all,
    default_streams,
    fuzz_campaign,
    generate_program,
)
from whilesem.parser import parse_cmd, pretty_cmd
from whilesem.syntax import (
    Alloc,
    Assign,
    Bop,
    Converged,
    ConvO,
    DIV,
    DivergesProven,
    EMPTY_STORE,
    EMPTY_STREAM,
    ExceptionV,
    InputStream,
    Nat,
    Skip,
    Store,
    Stuck,
    Throw,
    UP,
    Unknown,
    While,
    cmd_has_exceptions,
    cmd_has_input,
)

SEED0_VERDICTS = Path(__file__).resolve().parent.parent / "bench" / "campaign_seed0.json"


def test_generation_is_deterministic():
    cfg = GenConfig(seed=123, allow_input=True, allow_throw=True)
    for i in (0, 5, 99):
        assert generate_program(cfg, i) == generate_program(cfg, i)
    # the config seed alone decides the default program
    assert generate_program(GenConfig(seed=7)) == generate_program(GenConfig(seed=7))


def test_an_explicit_seed_overrides_the_config_seed():
    for seed in range(50):
        assert generate_program(GenConfig(seed=7), seed) == generate_program(GenConfig(seed=0), seed)
    assert generate_program(GenConfig(seed=3)) == generate_program(GenConfig(seed=0), 3)


def test_max_depth_is_bounded():
    assert GenConfig(max_depth=40).max_depth == 40
    with pytest.raises(ValueError, match="max_depth must be at most 40"):
        GenConfig(max_depth=41)


def test_depth_one_yields_only_leaf_commands():
    cfg = GenConfig(seed=1, max_depth=1, allow_throw=True)
    for i in range(300):
        c = generate_program(cfg, i)
        assert isinstance(c, (Skip, Alloc, Assign, Throw)), c


def test_feature_toggles_control_output():
    plain_cfg = GenConfig(seed=0)
    for i in range(300):
        c = generate_program(plain_cfg, i)
        assert not cmd_has_input(c) and not cmd_has_exceptions(c)

    throw_cfg = GenConfig(seed=0, allow_throw=True)
    assert sum(cmd_has_exceptions(generate_program(throw_cfg, i)) for i in range(1000)) > 100

    input_cfg = GenConfig(seed=0, allow_input=True)
    assert sum(cmd_has_input(generate_program(input_cfg, i)) for i in range(1000)) > 100


def test_a_config_changed_after_use_draws_with_its_new_settings():
    cfg = GenConfig(seed=0, max_depth=4)
    assert any(_has_while(generate_program(cfg, i)) for i in range(200))
    cfg.weights["while"] = 0.0  # the same dict, written in place
    assert not any(_has_while(generate_program(cfg, i)) for i in range(200))
    cfg.allow_throw = True
    assert any(cmd_has_exceptions(generate_program(cfg, i)) for i in range(200))
    fresh = GenConfig(seed=0, max_depth=4, allow_throw=True, weights=dict(cfg.weights))
    assert [generate_program(cfg, i) for i in range(50)] == [generate_program(fresh, i) for i in range(50)]


def _has_while(c) -> bool:
    return "while" in pretty_cmd(c)


def test_loop_bodies_never_multiply():
    # iterated self-multiplication would grow values beyond any memory
    # budget long before fuel runs out, so loop bodies stick to + and -
    def mul_inside_loop(c, inside=False):
        if isinstance(c, While):
            return mul_inside_loop(c.body, True)
        if isinstance(c, Assign) and inside:
            return _has_mul(c.expr)
        for name in ("first", "second", "then", "orelse", "body", "handler"):
            sub = getattr(c, name, None)
            if sub is not None and mul_inside_loop(sub, inside):
                return True
        return False

    def _has_mul(e):
        if isinstance(e, Bop):
            return e.op == "*" or _has_mul(e.left) or _has_mul(e.right)
        return False

    cfg = GenConfig(seed=3)
    for i in range(500):
        assert not mul_inside_loop(generate_program(cfg, i))


def test_binary_streams_enumeration():
    streams = binary_streams(3)
    assert len(streams) == 15  # 1 + 2 + 4 + 8
    assert streams[0] == EMPTY_STREAM
    assert len({s.values for s in streams}) == 15


def test_default_streams_depend_on_input_use():
    assert default_streams(parse_cmd("skip")) == [EMPTY_STREAM]
    assert len(default_streams(parse_cmd("x := input"))) == 15


def test_factorial_agreement(fac4):
    report = compare_all(fac4, fuel=10_000)
    assert report.agreement
    [comp] = report.comparisons
    assert all(isinstance(v, Converged) for v in comp.verdicts.values())


def test_input_decides_between_stuck_and_divergence(input_gate):
    report = compare_all(input_gate, [InputStream.of(1), InputStream.of(0)], fuel=200)
    assert report.agreement
    one, zero = report.comparisons
    assert isinstance(one.verdicts["small"], Stuck)
    assert isinstance(zero.verdicts["small"], DivergesProven)
    assert zero.provers == {"div-pred": True, "pretty-co": True, "flag-co": True}


def test_divergence_detection_upgrades_verdict(spin):
    report = compare_all(spin, fuel=100)
    [comp] = report.comparisons
    assert isinstance(comp.verdicts["small"], DivergesProven)
    assert all(comp.provers.values())
    assert report.agreement


def _count_calls(monkeypatch, *names) -> dict:
    """Counts calls to the named `harness` globals."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        real = getattr(harness, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    return calls


def test_divergent_program_searched_once_per_stream(spin, input_gate, monkeypatch):
    calls = _count_calls(monkeypatch, "run_star", "detect_lasso")
    assert compare_all(spin, fuel=100).agreement
    assert calls == {"run_star": 0, "detect_lasso": 1}

    calls = _count_calls(monkeypatch, "run_star", "detect_lasso")
    streams = [InputStream.of(0), InputStream.of()]
    report = compare_all(input_gate, streams, fuel=100)
    assert report.agreement
    # stream 0 diverges (searched, no run_star); the empty stream sticks
    # in every evaluator (run_star, no search)
    assert calls == {"run_star": 1, "detect_lasso": 1}


def test_converging_program_runs_small_step_once(fac4, monkeypatch):
    calls = _count_calls(monkeypatch, "run_star", "detect_lasso")
    assert compare_all(fac4, fuel=10_000).agreement
    assert calls == {"run_star": 1, "detect_lasso": 0}


def test_converging_program_takes_fuel_from_the_first_run(fac4, monkeypatch):
    calls = _count_calls(monkeypatch, "fuel_used", "flag_fuel_used", "eval_big", "eval_flag")
    assert compare_all(fac4, fuel=10_000).agreement
    assert calls == {"fuel_used": 0, "flag_fuel_used": 0, "eval_big": 1, "eval_flag": 1}


def test_semantics_registry(fac4, spin):
    assert list(SEMANTICS) == ["small", "big", "pretty", "flag"]
    runs = {name: run(fac4, EMPTY_STREAM, 10_000) for name, run in SEMANTICS.items()}
    assert {run[:2] for run in runs.values()} == {
        (Converged(Store({"c": Nat(0), "r": Nat(24)})), EMPTY_STREAM)
    }
    assert runs["big"][2] == runs["flag"][2] == fuel_used(fac4, EMPTY_STORE, EMPTY_STREAM, 10_000)
    for name, run in SEMANTICS.items():
        spent = runs[name][2]  # exact: one tick less runs out
        assert run(fac4, EMPTY_STREAM, spent) == runs[name], name
        assert run(fac4, EMPTY_STREAM, spent - 1) == (Unknown(spent - 1), None, None), name
        assert run(spin, EMPTY_STREAM, 50) == (Unknown(50), None, None), name
        verdict, stream, spent = run(parse_cmd("x := 1"), EMPTY_STREAM, 50)
        assert isinstance(verdict, Stuck) and stream is spent is None, name
    raised = SEMANTICS["flag"](parse_cmd("throw 3"), EMPTY_STREAM, 50)
    assert raised == (ExceptionV(Nat(3), EMPTY_STORE), EMPTY_STREAM, 1)


def test_fuel_mismatch_still_reported(fac4, monkeypatch):
    real = harness.eval_flag

    def one_tick_more(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(r, fuel_spent=r.fuel_spent + 1)

    monkeypatch.setattr(harness, "eval_flag", one_tick_more)
    [failure] = compare_all(fac4, fuel=10_000).failures
    assert failure.startswith("fuel mismatch: big-step used ")


FAC4_VERDICTS = "big=converged, flag=converged, pretty=converged, small=converged"
FAC4_STORE = "Converged {c↦0, r↦24}"


@pytest.mark.parametrize(
    "program,name,wrong,failure",
    [
        pytest.param(
            "fac4", "eval_big", lambda r, *args: Stuck("planted"),
            "verdict classes differ: " + FAC4_VERDICTS.replace("big=converged", "big=stuck"),
            id="verdict-classes",
        ),
        pytest.param(
            "fac4", "eval_pretty",
            lambda r, *args: dataclasses.replace(r, outcome=ConvO(Store({"c": Nat(0), "r": Nat(25)}))),
            f"final stores differ: big={FAC4_STORE}, flag={FAC4_STORE}, "
            f"pretty=Converged {{c↦0, r↦25}}, small={FAC4_STORE}",
            id="final-stores",
        ),
        pytest.param(
            "fac4", "eval_big", lambda r, *args: dataclasses.replace(r, stream=InputStream.of(1)),
            "final input streams differ",
            id="final-streams",
        ),
        pytest.param(
            "fac4", "run_star", lambda r, cfg, fuel: (Unknown(fuel), r[1]),
            "verdict classes differ: " + FAC4_VERDICTS.replace("small=converged", "small=unknown"),
            id="small-out-of-fuel-beside-big-converged",
        ),
        pytest.param(
            "spin", "eval_pretty", lambda r, *args: Stuck("planted"),
            "lasso found but pretty reports stuck (Stuck: planted)",
            id="lasso-against-evaluator",
        ),
        pytest.param(
            "spin", "prove_divergence", lambda r, *args: None if args[3] == "pretty-co" else r,
            "lasso found but no pretty-co certificate",
            id="lasso-without-certificate",
        ),
        pytest.param(
            "fac4", "eval_pretty", lambda r, *args: dataclasses.replace(r, outcome=DIV),
            "verdict classes differ: " + FAC4_VERDICTS.replace("pretty=converged", "pretty=stuck"),
            id="pretty-divergent-outcome",
        ),
        pytest.param(
            "fac4", "eval_flag", lambda r, *args: dataclasses.replace(r, status=UP),
            "verdict classes differ: " + FAC4_VERDICTS.replace("flag=converged", "flag=stuck"),
            id="flag-up-status",
        ),
    ],
)
def test_planted_wrong_answers_are_reported(request, monkeypatch, program, name, wrong, failure):
    """Each disagreement the harness can report, planted by giving one
    evaluator or prover a wrong answer."""
    program = request.getfixturevalue(program)
    real = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *args, **kwargs: wrong(real(*args, **kwargs), *args))
    report = compare_all(program, fuel=500)
    assert report.agreement is False
    assert report.failures == [failure]
    monkeypatch.setattr(harness, "generate_program", lambda cfg, seed=None: program)
    summary = fuzz_campaign(GenConfig(seed=0), 1, fuel=500)
    assert summary.disagreements == [(0, pretty_cmd(program), [failure])]


def test_abort_results_of_a_normal_start_read_as_stuck(fac4, monkeypatch):
    """A divergent outcome or an up status from a source program started
    normally is no answer the other semantics can give: it reads as stuck."""
    real_pretty, real_flag = harness.eval_pretty, harness.eval_flag
    monkeypatch.setattr(harness, "eval_pretty", lambda *a: dataclasses.replace(real_pretty(*a), outcome=DIV))
    monkeypatch.setattr(harness, "eval_flag", lambda *a: dataclasses.replace(real_flag(*a), status=UP))
    [comparison] = compare_all(fac4, fuel=500).comparisons
    assert comparison.verdicts["pretty"] == Stuck("divergent outcome from a source program")
    assert comparison.verdicts["flag"] == Stuck("divergence flag from a normal start")


def test_exception_programs_judged_on_flag_side_only():
    report = compare_all(parse_cmd("try { throw 1 } catch { skip }"), fuel=100)
    assert report.flag_only
    assert report.agreement
    [comp] = report.comparisons
    # the other evaluators are still run and recorded, but not cross-checked
    assert isinstance(comp.verdicts["small"], Stuck)
    assert isinstance(comp.verdicts["flag"], Converged)


def test_campaign_counts_and_agreement():
    summary = fuzz_campaign(GenConfig(seed=0), 300, fuel=400)
    assert summary.ok()
    assert summary.total == 300
    assert sum(summary.verdict_counts.values()) == 300
    assert summary.verdict_counts["converged"] > 0
    assert summary.verdict_counts["diverges-proven"] > 0


def test_seed0_campaign_fingerprint(monkeypatch):
    """2,000 programs through every evaluator, the lasso search and the
    provers: the fingerprint `bench/workloads.py` checks, as a test.  Each
    program's verdict class is pinned too, by the letter recorded for it in
    `bench/campaign_seed0.json`, the first letter of the class."""
    reports = []

    def recorded(c, fuel):
        reports.append(compare_all(c, fuel=fuel))
        return reports[-1]

    monkeypatch.setattr(harness, "compare_all", recorded)
    summary = fuzz_campaign(GenConfig(seed=0, max_depth=5), 2_000, fuel=500)
    assert dict(summary.verdict_counts) == {"converged": 1336, "stuck": 350, "diverges-proven": 314}
    assert summary.disagreements == []
    letters = "".join(harness._verdict_class(r.comparisons[0].verdicts["small"])[0] for r in reports)
    recorded_letters = json.loads(SEED0_VERDICTS.read_text())["verdicts"]
    assert letters == recorded_letters[:2_000]


def test_campaign_empty():
    summary = fuzz_campaign(GenConfig(seed=0), 0, fuel=10)
    assert summary.ok()
    assert summary.total == 0
    assert not summary.verdict_counts


def test_campaign_json_shape():
    summary = fuzz_campaign(GenConfig(seed=0), 20, fuel=200)
    data = summary.to_json()
    assert data["total"] == 20
    assert data["disagreements"] == []
    assert isinstance(data["elapsed_seconds"], float)


def test_wellformed_throw_corpus_never_sticks_in_flag_semantics():
    cfg = GenConfig(
        seed=77,
        allow_throw=True,
        wellformed=1.0,
        weights={**DEFAULT_WEIGHTS, "while": 0.0},
    )
    summary = fuzz_campaign(cfg, 300, fuel=500)
    assert summary.ok()
    assert summary.flag_stuck == 0
    assert summary.verdict_counts["exception"] > 0


def test_throw_campaign_proves_every_divergent_stream(monkeypatch):
    """A flag-only stream that runs out of fuel asks the flag-co prover, so
    the throw/catch programs of a campaign are proved divergent too."""
    reports = []

    def recorded(c, fuel):
        reports.append(compare_all(c, fuel=fuel))
        return reports[-1]

    monkeypatch.setattr(harness, "compare_all", recorded)
    summary = fuzz_campaign(GenConfig(seed=1000, max_depth=6, allow_throw=True), 600, fuel=500)
    assert dict(summary.verdict_counts) == {
        "converged": 330,
        "exception": 141,
        "stuck": 93,
        "diverges-proven": 36,
    }
    assert summary.disagreements == []
    proved = [comp for r in reports if r.flag_only for comp in r.comparisons if comp.provers]
    assert len(proved) == 28
    for comp in proved:
        assert comp.provers == {"flag-co": True}
        g = comp.verdicts["flag"].certificate
        assert check_certificate(g) is None
        assert check_certificate(certificate_from_json(json.loads(json.dumps(certificate_to_json(g))))) is None


def test_counterexamples_written_to_disk(tmp_path, monkeypatch):
    # force a fake disagreement to exercise the writer
    import whilesem.harness as hmod

    real = hmod.compare_all

    def sabotage(c, streams=None, fuel=500):
        report = real(c, streams, fuel)
        report.comparisons[0].failures.append("synthetic failure for testing")
        return report

    monkeypatch.setattr(hmod, "compare_all", sabotage)
    out = tmp_path / "ce"
    summary = fuzz_campaign(GenConfig(seed=0), 2, fuel=100, out_dir=str(out))
    assert not summary.ok()
    programs = sorted(out.glob("*.whl"))
    metas = sorted(out.glob("*.json"))
    assert len(programs) == 2 and len(metas) == 2
    # the program file replays and the metadata records the failure
    parse_cmd(programs[0].read_text())
    meta = json.loads(metas[0].read_text())
    assert meta["comparisons"][0]["failures"] == ["synthetic failure for testing"]
    assert meta["fuel"] == 100
