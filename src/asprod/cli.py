"""Command-line front end.

Subcommands: `check` runs the full three-tier decision per definition,
`measure` prints drift measures, `simulate` prints Monte Carlo reports,
`ppda` exports the translated automata, `solve` prints equation-system
solutions and the head classes `check` decides with, from the same exact
analysis.  The exact tier's numerics have no flags: floating point only
chooses what is checked, and every decision is checked exactly.

Exit codes for `check`: 0 all ASP, 1 some definition is not ASP, 2 some
verdict is Unknown, 3 input errors, including a term nested more than
`syntax.MAX_NESTING` levels deep and a definition too large for the Monte
Carlo sampler (the other definitions are still reported).  A usage error,
such as an unknown flag or a flag value out of range, exits 3 from every
subcommand, with one `error:` line on stderr.  JSON reports are
byte-deterministic for fixed inputs, flags and seed; wall-clock timings
appear only in the human-readable output.

`check` renders each definition's report as soon as the definition is
decided and lets its analysis go; the document is written after the last
one.  Memory therefore grows by the rendered text alone (about 2.3 KB per
JSON entry on the bias families), not by the analyses, and an analysis
that raises leaves stdout empty rather than holding a truncated document.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from .decide import (
    AnalyzerConfig,
    AspResult,
    ExactAnalysis,
    Tier3Mode,
    Verdict,
    decide_asp,
    exact_analysis,
    smt_solver_from_env,
)
from .eqsys import AlmostSureReturn, SubReturn, Unknown
from .measure import measure
from .ppda import export, json_doc, translate
# `monte_carlo` is not called here, since `simulate` samples its definitions
# in one batch, but bench/spans.py traces it as asprod.cli.monte_carlo
from .semantics import McReport, SamplerLimitError, monte_carlo, parse_policy
from .syntax import ParseError, parse_file
from .terms import Definition

EXIT_OK = 0
EXIT_NOT_ASP = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3

_RESULT_TEXT = {
    AspResult.ASP: "ASP",
    AspResult.NOT_ASP: "NotASP",
    AspResult.UNKNOWN: "Unknown",
}

_TIER_TEXT = {
    "measure": "tier 1 (measure)",
    "exact": "tier 2 (exact)",
    "statistical_only": "tier 3 (statistical only)",
}


_CHUNK = 10**600


def int_str(n: int) -> str:
    """`str(n)` for an int of any size, whatever `sys.set_int_max_str_digits`
    says.  An int of more than 600 digits, fewer than the lowest limit that
    call accepts (640), is written as the decimals of its two halves, each
    in turn by this function.  A drift multiplies the literals'
    denominators, so it can pass a limit that each literal respects."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + int_str(-n)
    half = n.bit_length() * 3 // 20  # about half of its decimal digits
    high, low = divmod(n, 10**half)
    return int_str(high) + int_str(low).zfill(half)


def frac_str(x: Fraction) -> str:
    """`x` as "num/den", the denominator written even when it is 1."""
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def drift_str(x: Fraction) -> str:
    """`x` as `str(x)` writes it: "num/den", or "num" when den is 1."""
    return int_str(x.numerator) if x.denominator == 1 else frac_str(x)


def _load(paths: list[str]) -> tuple[list[tuple[str, Definition]], bool]:
    """Parse every file; report errors but keep the definitions that parse."""
    defs: list[tuple[str, Definition]] = []
    had_error = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"{path}: error: {exc.strerror or exc}", file=sys.stderr)
            had_error = True
            continue
        except UnicodeDecodeError as exc:
            print(f"{path}: error: not UTF-8: {exc.reason} at byte {exc.start}", file=sys.stderr)
            had_error = True
            continue
        try:
            for d in parse_file(text):
                defs.append((path, d))
        except ParseError as exc:
            print(f"{path}:{exc.line}:{exc.col}: error: {exc.message}", file=sys.stderr)
            had_error = True
    return defs, had_error


def _config_from_args(args) -> AnalyzerConfig:
    """The analyzer configuration of `check`'s flags."""
    return AnalyzerConfig(
        mc_runs=args.mc_runs,
        mc_horizon=args.mc_horizon,
        seed=args.seed,
        tier3=args.tier3,
        smt_solver=args.smt_solver or smt_solver_from_env(),
        tree_policy=args.tree_policy,
    )


# ---------------------------------------------------------------------------
# JSON rendering


def _class_json(cls) -> dict:
    if isinstance(cls, AlmostSureReturn):
        return {"class": "almost_sure_return"}
    if isinstance(cls, SubReturn):
        cert = None if cls.certificate is None else [frac_str(c) for c in cls.certificate]
        return {"class": "sub_return", "certificate": cert}
    assert isinstance(cls, Unknown)
    return {"class": "unknown", "reason": cls.reason}


def _tier2_json(t2: ExactAnalysis) -> dict:
    chain = t2.chain
    names = chain.state_names
    heads = []
    for (q, x) in sorted(t2.classes):
        entry = {"state": names[q], "symbol": x}
        entry.update(_class_json(t2.classes[(q, x)]))
        heads.append(entry)
    edges = sorted((q, t) for q, targets in chain.edges.items() for t in targets)
    return {
        "verdict": t2.buchi.value,
        "heads": heads,
        "chain": {
            "initial": names[chain.initial],
            "nodes": [names[q] for q in chain.nodes],
            "output_nodes": sorted(names[q] for q in chain.output_nodes),
            "edges": [[names[a], names[b]] for a, b in edges],
            "diverge_sub": sorted(names[q] for q in chain.diverge_sub),
            "diverge_unknown": sorted(names[q] for q in chain.diverge_unknown),
        },
    }


def _mc_json(mc: McReport) -> dict:
    return {
        "runs": mc.runs,
        "horizon": mc.horizon,
        "seed": mc.seed,
        "mean_rate": mc.mean_rate,
        "tail_silence": mc.tail_silence,
        "cum_slope": mc.cum_slope,
        "hint": mc.hint.value,
        "total_outputs": int(sum(mc.output_counts)),
    }


def _verdict_json(d: Definition, v: Verdict) -> dict:
    return {
        "name": d.name,
        "kind": d.kind.value,
        "measure": frac_str(v.measure),
        "tier1": v.tier1.value,
        "tier": v.tier.value,
        "verdict": v.result.value,
        "tier2": _tier2_json(v.tier2),
        "tier3": _mc_json(v.mc) if v.mc is not None else None,
    }


_encode_str = json.encoder.encode_basestring_ascii


def _render_entry(entry) -> str:
    """`entry` as `json.dumps(doc, sort_keys=True, indent=2)` renders it as
    an element of the list under the document's one key, in one pass.

    The contract is byte for byte `json.dumps(entry, sort_keys=True,
    indent=2)` with every line indented four more spaces: dict keys, which
    are strings, sorted; two spaces per level; "," ending an item's line
    and ": " after a key; strings and keys through `encode_basestring_ascii`,
    the escaper `json.dumps` uses; lists and tuples as lists; integers
    (not booleans) by `repr`, as `json.dumps` writes them; every other
    scalar through `json.dumps` itself, so None, booleans, NaN, the
    infinities and -0.0 read as `json.dumps` writes them.
    This skips the pure-Python encoder that `indent` selects."""
    out = ["    "]
    _render_value(entry, "    ", out)
    return "".join(out)


def _render_value(value, indent: str, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif type(value) is int:
        out.append(repr(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _render_value(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _render_value(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))


def _write_document(key: str, rendered: list[str]) -> None:
    """Write `{key: [...]}` to stdout, byte for byte as `json.dumps(...,
    sort_keys=True, indent=2)` and a newline, from entries rendered by
    `_render_entry`."""
    out = sys.stdout
    if not rendered:
        out.write(json.dumps({key: []}, indent=2) + "\n")
        return
    out.write("{\n  " + json.dumps(key) + ": [\n")
    for i, text in enumerate(rendered):
        out.write(text if i == 0 else ",\n" + text)
    out.write("\n  ]\n}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    defs, had_error = _load(args.files)
    config = _config_from_args(args)

    # Each definition's report is rendered when it is decided, so its
    # analysis can be freed; the text is written only after the last one.
    rendered: list[str] = []
    outcomes: set[AspResult] = set()
    for path, d in defs:
        start = time.perf_counter()
        try:
            v = decide_asp(d, config)
        except SamplerLimitError as exc:
            print(f"{path}: {d.name}: error: {exc}", file=sys.stderr)
            had_error = True
            continue
        elapsed = time.perf_counter() - start
        outcomes.add(v.result)
        if args.json:
            rendered.append(_render_entry(_verdict_json(d, v)))
        else:
            line = (
                f"{d.name}: {_RESULT_TEXT[v.result]}  "
                f"[{_TIER_TEXT[v.tier.value]}]  measure={drift_str(v.measure)}"
                f"  exact={v.tier2.buchi.value}"
            )
            if v.mc is not None:
                line += f"  mc_hint={v.mc.hint.value}"
            rendered.append(line + f"  ({elapsed * 1000:.0f} ms)\n")

    if args.json:
        _write_document("definitions", rendered)
    else:
        sys.stdout.writelines(rendered)

    if had_error:
        return EXIT_INPUT_ERROR
    if AspResult.NOT_ASP in outcomes:
        return EXIT_NOT_ASP
    if AspResult.UNKNOWN in outcomes:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_measure(args) -> int:
    defs, had_error = _load(args.files)
    for _, d in defs:
        print(f"{d.name} {drift_str(measure(d))}")
    return EXIT_INPUT_ERROR if had_error else EXIT_OK


def cmd_simulate(args) -> int:
    from .simulate import CompiledDefinition, monte_carlo_jobs

    defs, had_error = _load(args.files)
    names: list[str] = []

    def jobs():
        # compiled as the batches take them, so only about one batch's
        # tables are held at a time
        nonlocal had_error
        for path, d in defs:
            try:
                compiled = CompiledDefinition(d)
            except SamplerLimitError as exc:
                print(f"{path}: {d.name}: error: {exc}", file=sys.stderr)
                had_error = True
                continue
            names.append(d.name)
            yield compiled, args.seed

    # the definitions are sampled together, in lockstep batches of lanes
    reports = monte_carlo_jobs(jobs(), args.mc_runs, args.mc_horizon, policy=args.tree_policy)
    rendered: list[str] = []
    # each report is taken before its name, which compiling its job appends
    for mc, name in zip(reports, names):
        if args.json:
            rendered.append(_render_entry(dict(_mc_json(mc), name=name)))
        else:
            rendered.append(
                f"{name}: runs={mc.runs} horizon={mc.horizon} seed={mc.seed} "
                f"mean_rate={mc.mean_rate:.6f} tail_silence={mc.tail_silence:.4f} "
                f"slope={mc.cum_slope:.6f} hint={mc.hint.value}\n"
            )
    if args.json:
        _write_document("simulations", rendered)
    else:
        sys.stdout.writelines(rendered)
    return EXIT_INPUT_ERROR if had_error else EXIT_OK


def cmd_ppda(args) -> int:
    defs, had_error = _load(args.files)
    if args.format == "json":
        doc = {}
        for path, d in defs:
            if d.name in doc:  # the document is keyed by name: keep the first
                message = f"error: duplicate definition name {d.name!r}"
                print(f"{path}: {d.name}: {message}", file=sys.stderr)
                had_error = True
            else:
                doc[d.name] = json_doc(translate(d))
        out = []
        _render_value(doc, "", out)  # one pass, as `json.dumps(doc, sort_keys=True, indent=2)`
        print("".join(out))
    else:
        for _, d in defs:
            sys.stdout.write(export(translate(d), args.format))
    return EXIT_INPUT_ERROR if had_error else EXIT_OK


def cmd_solve(args) -> int:
    defs, had_error = _load(args.files)
    config = AnalyzerConfig(smt_solver=args.smt_solver or smt_solver_from_env())
    for _, d in defs:
        # the classes `check` decides with, and the numerics behind them
        analysis = exact_analysis(d, config)
        cleaned = analysis.system
        kleene, iters = cleaned.kleene
        newton = cleaned.newton
        print(
            f"{d.name}: {len(analysis.positivity)} variables, "
            f"{len(cleaned.variables)} surviving (kleene: {iters} iterations)"
        )
        for i in range(len(cleaned.variables)):
            print(
                f"  {cleaned.var_name(i)} kleene={kleene[i]:.9f} "
                f"newton={newton[i]:.12f}"
            )
        names = cleaned.state_names
        for (q, x) in sorted(analysis.classes):
            cls = analysis.classes[(q, x)]
            if isinstance(cls, AlmostSureReturn):
                text = "AlmostSureReturn"
            elif isinstance(cls, SubReturn):
                if cls.certificate is None:
                    text = "SubReturn (no certificate)"
                elif not cls.certificate:
                    text = "SubReturn (return probability 0)"
                else:
                    total = sum(
                        (
                            c
                            for c, key in zip(cls.certificate, cleaned.variables)
                            if (key[0], key[1]) == (q, x)
                        ),
                        Fraction(0),
                    )
                    text = f"SubReturn (certificate sum {frac_str(total)})"
            else:
                text = f"Unknown ({cls.reason})"
            print(f"  head ({names[q]}, {x}): {text}")
    return EXIT_INPUT_ERROR if had_error else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line and exits with EXIT_INPUT_ERROR."""

    def error(self, message: str):
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _policy(text: str):
    try:
        return parse_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("files", nargs="+", help="definition files")


def _add_mc(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mc-runs", type=_int_at_least(1), default=AnalyzerConfig.mc_runs)
    parser.add_argument("--mc-horizon", type=_int_at_least(100), default=AnalyzerConfig.mc_horizon)
    parser.add_argument("--seed", type=_int_at_least(0), default=AnalyzerConfig.seed)
    parser.add_argument(
        "--tree-policy",
        type=_policy,
        default=None,
        help="'uniform', a period like 'LR', or 'prefix|period'; steers only the"
        " sampler (tier 3): tiers 1 and 2 answer for the uniform policy",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asprod",
        description="Almost-sure-productivity analyzer for probabilistic "
        "stream and tree definitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide ASP per definition")
    _add_common(p_check)
    _add_mc(p_check)
    p_check.add_argument("--json", action="store_true")
    tier3 = p_check.add_mutually_exclusive_group()
    for flag, mode in (("--no-tier3", Tier3Mode.NEVER), ("--force-tier3", Tier3Mode.ALWAYS)):
        tier3.add_argument(flag, dest="tier3", action="store_const", const=mode)
    p_check.add_argument("--smt-solver", default=None)
    p_check.set_defaults(func=cmd_check, tier3=Tier3Mode.WHEN_UNKNOWN)

    p_measure = sub.add_parser("measure", help="print drift measures")
    _add_common(p_measure)
    p_measure.set_defaults(func=cmd_measure)

    p_sim = sub.add_parser("simulate", help="Monte Carlo evidence")
    _add_common(p_sim)
    _add_mc(p_sim)
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_ppda = sub.add_parser("ppda", help="export translated automata")
    _add_common(p_ppda)
    p_ppda.add_argument("--format", choices=("json", "graphviz"), default="json")
    p_ppda.set_defaults(func=cmd_ppda)

    p_solve = sub.add_parser("solve", help="equation-system solutions")
    _add_common(p_solve)
    p_solve.add_argument("--smt-solver", default=None)
    p_solve.set_defaults(func=cmd_solve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
