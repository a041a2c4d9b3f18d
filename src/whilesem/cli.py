"""Command-line interface.

Subcommands:

* ``run``       — evaluate a program under one of the four semanticses
* ``trace``     — print the small-step transition sequence
* ``classify``  — decide converged / exception / stuck / proven-divergent
* ``compare``   — differential run of all four evaluators on one program
* ``fuzz``      — seeded differential campaign over generated programs
* ``rules``     — work with rule files: thread flags, count, check
* ``cert``      — re-check a saved divergence certificate

Exit status: 0 on success (including agreement and valid certificates),
1 on differential disagreement or an invalid certificate, 2 on usage,
parse, or input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .coinduction import (
    AbstractionUnsound,
    DEFAULT_CHECK_FUEL,
    Lasso,
    SYSTEMS,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    config_to_json,
    detect_lasso,
    prove_divergence,
)
from .harness import (
    DEFAULT_WEIGHTS,
    SEMANTICS,
    GenConfig,
    compare_all,
    default_streams,
    fuzz_campaign,
)
from .parser import ParseError, parse_cmd, parse_stream, pretty_cmd
from .rule_dsl import (
    RuleParseError,
    count_metrics,
    load_ruleset,
    parse_rules,
    pretty_rules,
    thread_flags,
)
from .small_step import SmallConfig, run_star
from .syntax import (
    Converged,
    EMPTY_STORE,
    EMPTY_STREAM,
    ExceptionV,
    Stuck,
    Unknown,
    format_store,
    format_val,
    format_verdict,
    nat_of_digits,
    nat_str,
    store_to_json,
    stream_to_json,
)

class CliError(Exception):
    """An input problem that should terminate with exit status 2."""


def _json(data, **options) -> str:
    """`json.dumps(data, **options)`, also when a natural in `data` has more
    digits than `str` converts.  Then every integer is first replaced by a
    NUL-led placeholder string (no other string in the CLI's output holds a
    NUL), and each placeholder in the text by the integer's digits."""
    try:
        return json.dumps(data, **options)
    except ValueError:
        pass
    digits: list = []

    def swap(x):
        if isinstance(x, dict):
            return {k: swap(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [swap(v) for v in x]
        if type(x) is int:
            digits.append(nat_str(x))
            return f"\0{len(digits) - 1}"
        return x

    text = json.dumps(swap(data), **options)
    return re.sub(r'"\\u0000(\d+)"', lambda m: digits[int(m[1])], text)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read {path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from e


def _read_program(path: str):
    text = _read_text(path)
    try:
        return parse_cmd(text)
    except ParseError as e:
        raise CliError(f"{path}: parse error: {e}") from e


def _read_stream(text):
    if text is None:
        return EMPTY_STREAM
    try:
        return parse_stream(text)
    except ParseError as e:
        raise CliError(f"bad --input value: {e}") from e


def _format_stream(s) -> str:
    return "[" + ",".join(format_val(v) for v in s.remaining()) + "]"


def _verdict_text(v) -> str:
    if isinstance(v, Converged):
        return f"⇓ {format_store(v.store)}"
    if isinstance(v, ExceptionV):
        return f"↯ {format_val(v.value)} {format_store(v.at)}"
    if isinstance(v, Stuck):
        return f"stuck: {v.reason}"
    return f"out of fuel (limit {v.fuel_spent})"


def _verdict_json(v) -> dict:
    if isinstance(v, Converged):
        return {"verdict": "converged", "store": store_to_json(v.store)}
    if isinstance(v, ExceptionV):
        return {
            "verdict": "exception",
            "value": format_val(v.value),
            "store": store_to_json(v.at),
        }
    if isinstance(v, Stuck):
        return {"verdict": "stuck", "reason": v.reason}
    return {"verdict": "unknown", "fuel": v.fuel_spent}


def _certificate_summary(cert) -> tuple:
    """A certificate's kind and size: as text (`lasso, cycle=2`, `flag-co
    graph, 4 nodes`) and as the JSON fields `classify` prints."""
    if isinstance(cert, Lasso):
        return f"lasso, cycle={len(cert.cycle)}", {"cycle": len(cert.cycle)}
    n = len(cert.nodes)
    return f"{cert.system} graph, {n} nodes", {"system": cert.system, "nodes": n}


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_run(args) -> int:
    c = _read_program(args.file)
    stream = _read_stream(args.input)
    verdict, _, _ = SEMANTICS[args.semantics](c, stream, args.fuel)
    if args.format == "json":
        payload = {"semantics": args.semantics, **_verdict_json(verdict)}
        print(_json(payload, ensure_ascii=False))
    else:
        print(_verdict_text(verdict))
    return 0


def _cmd_trace(args) -> int:
    c = _read_program(args.file)
    stream = _read_stream(args.input)
    verdict, trace = run_star(SmallConfig(c, EMPTY_STORE, stream), args.fuel)
    if args.format == "json":
        payload = {
            "steps": [config_to_json(cfg) for cfg in trace.replay()],
            **_verdict_json(verdict),
        }
        print(_json(payload, ensure_ascii=False))
        return 0
    for i, cfg in enumerate(trace.replay()):
        print(
            f"{i:4d}  ⟨{pretty_cmd(cfg.cmd)}, {format_store(cfg.store)}, "
            f"{_format_stream(cfg.stream)}⟩"
        )
    print(_verdict_text(verdict))
    return 0


def _cmd_classify(args) -> int:
    c = _read_program(args.file)
    stream = _read_stream(args.input)
    projected = frozenset(name.strip() for name in (args.abstract_vars or "").split(",") if name.strip())
    verdict, _, _ = SEMANTICS["flag"](c, stream, args.fuel)
    cert = None
    if not isinstance(verdict, Unknown):
        line, payload = format_verdict(verdict), _verdict_json(verdict)
    else:
        try:
            if args.cert_system == "lasso":
                cert = detect_lasso(SmallConfig(c, EMPTY_STORE, stream), args.fuel, projected)
            else:
                cert = prove_divergence(c, EMPTY_STORE, stream, args.cert_system, args.fuel, projected)
        except AbstractionUnsound as e:
            raise CliError(f"unsound abstraction: {e}") from e
        if cert is not None:
            describe, fields = _certificate_summary(cert)
            line, payload = f"DivergesProven ({describe})", {"verdict": "diverges-proven", **fields}
        else:
            searched = "lasso" if args.cert_system == "lasso" else f"{args.cert_system} certificate"
            line = f"Unknown (no {searched} within fuel {args.fuel})"
            payload = {"verdict": "unknown", "fuel": args.fuel}
    if cert is not None and args.cert_out:
        _write_text(args.cert_out, _json(certificate_to_json(cert), ensure_ascii=False, indent=2) + "\n")
    print(_json(payload, ensure_ascii=False) if args.format == "json" else line)
    return 0


def _cmd_compare(args) -> int:
    c = _read_program(args.file)
    if args.input:
        streams = [_read_stream(text) for text in args.input]
    else:
        streams = default_streams(c)
    report = compare_all(c, streams, args.fuel)
    if args.format == "json":
        payload = {
            "program": pretty_cmd(c),
            "flag_only": report.flag_only,
            "agreement": report.agreement,
            "comparisons": [
                {
                    "stream": stream_to_json(comp.stream),
                    "verdicts": {k: format_verdict(v) for k, v in comp.verdicts.items()},
                    "provers": comp.provers,
                    "failures": comp.failures,
                }
                for comp in report.comparisons
            ],
        }
        print(_json(payload, ensure_ascii=False))
        return 0 if report.agreement else 1
    for comp in report.comparisons:
        primary = "flag" if report.flag_only else "small"
        print(
            f"stream {_format_stream(comp.stream)}: "
            f"{format_verdict(comp.verdicts[primary])}"
        )
        for failure in comp.failures:
            print(f"  disagreement: {failure}")
    scope = "flag-based only (program uses throw/catch)" if report.flag_only else "4 semantics"
    status = "agreement" if report.agreement else "DISAGREEMENT"
    print(f"{status}: {scope}, {len(report.comparisons)} stream(s)")
    return 0 if report.agreement else 1


def _cmd_fuzz(args) -> int:
    weights = dict(DEFAULT_WEIGHTS)
    if args.no_while:
        weights["while"] = 0.0
    try:
        cfg = GenConfig(
            seed=args.seed,
            max_depth=args.depth,
            num_vars=args.vars,
            allow_input=args.enable_input,
            allow_throw=args.enable_throw,
            wellformed=args.wellformed,
            weights=weights,
        )
    except ValueError as e:
        raise CliError(f"bad fuzz options: {e}") from e
    try:
        summary = fuzz_campaign(cfg, args.count, args.fuel, out_dir=args.out)
    except OSError as e:
        raise CliError(f"cannot write {e.filename}: {e.strerror or e}") from e
    if args.format == "json":
        print(json.dumps(summary.to_json(), ensure_ascii=False))
        return 0 if summary.ok() else 1
    print(f"programs: {summary.total}")
    counts = " ".join(f"{k}={v}" for k, v in sorted(summary.verdict_counts.items()))
    print(f"verdicts: {counts or '(none)'}")
    print(f"flag-stuck: {summary.flag_stuck}")
    print(f"disagreements: {len(summary.disagreements)}")
    for seed, text, failures in summary.disagreements[:10]:
        print(f"  seed {seed}: {text}")
        for failure in failures:
            print(f"    {failure}")
    print(f"elapsed: {summary.elapsed:.1f}s")
    return 0 if summary.ok() else 1


def _read_ruleset(path: str):
    # a bare name that is not a file on disk may still be a bundled ruleset
    if "/" not in path and "\\" not in path and not Path(path).exists():
        try:
            return load_ruleset(path)
        except (FileNotFoundError, ModuleNotFoundError):
            pass
    text = _read_text(path)
    try:
        return parse_rules(text)
    except RuleParseError as e:
        where = f"{path}:{e.line}" if e.line is not None else path
        raise CliError(f"{where}: {e.message}") from e


def _cmd_rules_thread(args) -> int:
    rs = _read_ruleset(args.file)
    try:
        rs = thread_flags(rs)
    except RuleParseError as e:  # threading errors name a relation, not a line
        raise CliError(f"{args.file}: {e.message}") from e
    text = pretty_rules(rs)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_rules_count(args) -> int:
    rs = _read_ruleset(args.files[0])
    for path in args.files[1:]:
        try:
            rs = rs.union(_read_ruleset(path))
        except ValueError as e:
            raise CliError(f"cannot combine {path}: {e}") from e
    base = _read_ruleset(args.base) if args.base else None
    metrics = count_metrics(rs, base=base)
    if args.format == "json":
        payload = {"rules": metrics.rules, "premises": metrics.premises}
        if metrics.duplicates is not None:
            payload["duplicates"] = metrics.duplicates
        print(json.dumps(payload))
    else:
        print(str(metrics))
    return 0


def _cmd_rules_check(args) -> int:
    for path in args.files:
        m = count_metrics(_read_ruleset(path))
        print(f"{path}: ok ({m.rules} rules, {m.premises} premises)")
    return 0


def _cmd_cert_check(args) -> int:
    text = _read_text(args.file)
    try:
        try:
            data = json.loads(text, parse_int=nat_of_digits)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        cert = certificate_from_json(data)
    except ValueError as e:
        raise CliError(f"{args.file}: malformed certificate: {e}") from e
    error = check_certificate(cert, fuel=args.fuel)
    describe, _ = _certificate_summary(cert)
    if args.format == "json":
        payload = {"valid": error is None, "kind": describe}
        if error is not None:
            payload["error"] = error
        print(json.dumps(payload, ensure_ascii=False))
    elif error is None:
        print(f"valid certificate ({describe})")
    else:
        print(f"invalid certificate: {error}")
    return 0 if error is None else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _natural(text: str) -> int:
    """A non-negative integer option value: fuel or a count."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _add_common(p):
    p.add_argument("--fuel", type=_natural, default=10_000, help="evaluation step budget")
    p.add_argument("--input", help="input stream as comma-separated values, e.g. '1,0,null'")
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whilesem",
        description="Workbench for a While language under four operational semanticses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="evaluate a program")
    p.add_argument("file")
    p.add_argument("--semantics", choices=tuple(SEMANTICS), default="flag")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("trace", help="print the small-step transition sequence")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("classify", help="classify a program's behaviour")
    p.add_argument("file")
    p.add_argument(
        "--abstract-vars",
        help="comma-separated variables to ignore when matching repeated states",
    )
    p.add_argument(
        "--cert-system",
        choices=("lasso",) + SYSTEMS,
        default="lasso",
        help="certificate kind to build for proven divergence",
    )
    p.add_argument("--cert-out", help="write the certificate as JSON to this path")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compare", help="run all four evaluators and cross-check")
    p.add_argument("file")
    p.add_argument("--fuel", type=_natural, default=10_000)
    p.add_argument(
        "--input",
        action="append",
        help="input stream to test (repeatable); default: all short binary streams",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fuzz", help="differential campaign over generated programs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", "-n", type=_natural, default=1000)
    p.add_argument("--fuel", type=_natural, default=500)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--enable-input", action="store_true")
    p.add_argument("--enable-throw", action="store_true")
    p.add_argument("--no-while", action="store_true", help="generate loop-free programs only")
    p.add_argument("--wellformed", type=float, default=0.9)
    p.add_argument("--out", help="directory for counterexample programs")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("rules", help="work with rule files")
    rsub = p.add_subparsers(dest="rules_command", required=True)

    q = rsub.add_parser("thread", help="make implicit flag plumbing explicit")
    q.add_argument("file")
    q.add_argument("--out", help="write the threaded rules to this path")
    q.set_defaults(func=_cmd_rules_thread)

    q = rsub.add_parser("count", help="count rules and premises")
    q.add_argument("files", nargs="+")
    q.add_argument("--base", help="count premises shared with this rule file as duplicates")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=_cmd_rules_count)

    q = rsub.add_parser("check", help="parse rule files and report")
    q.add_argument("files", nargs="+")
    q.set_defaults(func=_cmd_rules_check)

    p = sub.add_parser("cert", help="work with divergence certificates")
    csub = p.add_subparsers(dest="cert_command", required=True)

    q = csub.add_parser("check", help="re-check a saved certificate")
    q.add_argument("file")
    q.add_argument("--fuel", type=_natural, default=DEFAULT_CHECK_FUEL)
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=_cmd_cert_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
