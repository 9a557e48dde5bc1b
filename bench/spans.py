"""Span recorder for the traced run, and the per-layer metrics it yields.

Spans are recorded only around public functions of the program, from
outside: each wrapper is installed by rebinding the name in the namespace
its caller looks it up in, and removed again after the run.  A span holds
its name, start, end, parent and a request id shared by every span of one
definition (a `decide_asp` or `monte_carlo` call starts a request).  Spans
stay in memory until the metrics are computed at the end.

A function that no longer exists is not wrapped, and every metric that
needs its spans is absent, not zero.  So is a metric whose observation of
a return value failed because that value changed shape.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

# Exceptions an observation raises when a return value changed shape.
_SHAPE_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._requests = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, hook=None):
        parent = self._stack[-1] if self._stack else None
        if hook is not None and hook.request:
            self._requests += 1
            request = self._requests
        else:
            request = None if parent is None else self.spans[parent].request
        span = Span(name, parent=parent, request=request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if hook is not None and hook.before is not None:
            try:
                args, kwargs = hook.before(span, fn, args, kwargs)
            except _SHAPE_ERRORS:
                pass
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if hook is not None and hook.after is not None:
            try:
                span.info.update(hook.after(span, args, result))
            except _SHAPE_ERRORS:
                span.info["unobserved"] = True
        return result


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# the wrapped functions


class _ReadLog(dict):
    """A dict that records which keys are read, while `read` is a set."""

    def __init__(self, data) -> None:
        super().__init__(data)
        self.read: Optional[set] = set()

    def __getitem__(self, key):
        if self.read is not None:
            self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if self.read is not None:
            self.read.add(key)
        return super().get(key, default)


def _log_classes(span: Span, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    log = _ReadLog(bound.arguments["classes"])
    bound.arguments["classes"] = log
    span.info["log"] = log
    return bound.args, bound.kwargs


def _chain_after(span: Span, args, result) -> dict:
    log = span.info.pop("log")
    read, log.read = log.read, None  # later readers (JSON rendering) do not count
    return {"nodes": len(result.nodes), "read": read}


def _certificate_bits(span: Span, args, result) -> dict:
    bits = max((c.denominator.bit_length() for c in result), default=0) if result else 0
    return {"hit": result is not None, "den_bits": bits}


def _run_batch_after(span: Span, args, result) -> dict:
    self, runs, horizon = args[0], args[1], args[2]
    return {"kind": self.kind.value, "lane_steps": runs * horizon}


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    cls: Optional[str] = None  # the attribute is a method of this class
    request: bool = False  # a call starts a new request (one definition)
    before: Optional[Callable] = None  # (span, fn, args, kwargs) -> (args, kwargs)
    after: Optional[Callable] = None  # (span, args, result) -> observations


HOOKS = {
    "parse_file": Hook("asprod.cli", "parse_file"),
    "decide_asp": Hook(
        "asprod.cli",
        "decide_asp",
        request=True,
        after=lambda s, a, r: {"kind": a[0].kind.value, "verdict": r.result.value},
    ),
    "monte_carlo": Hook("asprod.cli", "monte_carlo", request=True),
    "measure": Hook("asprod.decide", "measure"),
    "tier1_verdict": Hook("asprod.decide", "tier1_verdict"),
    "translate": Hook("asprod.decide", "translate", after=lambda s, a, r: {"states": len(r.states)}),
    "build_system": Hook(
        "asprod.decide", "build_system", after=lambda s, a, r: {"vars": len(r.variables)}
    ),
    "clean": Hook("asprod.decide", "clean", after=lambda s, a, r: {"survivors": len(r[0].variables)}),
    "classify_heads": Hook(
        "asprod.decide",
        "classify_heads",
        after=lambda s, a, r: {
            "live": {(q, x) for q, x, _ in a[0].variables},
            "unknown": sum(type(c).__name__ == "Unknown" for c in r.values()),
        },
    ),
    "ground_chain": Hook("asprod.decide", "ground_chain", before=_log_classes, after=_chain_after),
    "buchi_verdict": Hook("asprod.decide", "buchi_verdict"),
    "newton_solve": Hook("asprod.eqsys", "newton_solve"),
    "kleene_solve": Hook("asprod.eqsys", "kleene_solve", after=lambda s, a, r: {"iters": r[1]}),
    "subreturn_candidate": Hook("asprod.eqsys", "subreturn_candidate", after=_certificate_bits),
    "certify_subreturn": Hook("asprod.eqsys", "certify_subreturn"),
    "spectral_le_one": Hook("asprod.eqsys", "spectral_le_one"),
    "nonnegative_contraction_feasible": Hook(
        "asprod.eqsys", "nonnegative_contraction_feasible", after=lambda s, a, r: {"dim": len(a[0])}
    ),
    "strongly_connected_components": Hook(
        "asprod.eqsys",
        "strongly_connected_components",
        after=lambda s, a, r: {"largest": max(map(len, r), default=0)},
    ),
    "compile": Hook(
        "asprod.simulate",
        "__init__",
        cls="CompiledDefinition",
        after=lambda s, a, r: {"depth": a[0].suffix_depth, "classes": a[0].n_classes},
    ),
    "run_batch": Hook(
        "asprod.simulate", "run_batch", cls="CompiledDefinition", after=_run_batch_after
    ),
}


def _owner(hook: Hook):
    """The module or class whose attribute the hook rebinds, if it exists."""
    owner = importlib.import_module(hook.module)
    return getattr(owner, hook.cls, None) if hook.cls else owner


def run_main(argv: list[str], recorder: Optional[Recorder]) -> int:
    """`asprod.cli.main(argv)`, with spans recorded when a recorder is given."""
    cli = importlib.import_module("asprod.cli")
    if recorder is None:
        return cli.main(argv)
    restore = []
    try:
        for name, hook in HOOKS.items():
            owner = _owner(hook)
            fn = getattr(owner, hook.attr, None)
            if fn is None:
                continue

            def wrapper(*args, _name=name, _fn=fn, _hook=hook, **kwargs):
                return recorder.call(_name, _fn, args, kwargs, _hook)

            restore.append((owner, hook.attr, fn))
            setattr(owner, hook.attr, wrapper)
            recorder.installed.add(name)
        recorder.installed.add("main")
        return recorder.call("main", cli.main, (argv,), {})
    finally:
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics


class _Absent(Exception):
    """A metric's function is gone or its observation failed."""


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(q, value) for the highest q of 50/75/90/95/99/99.9 with at least ten
    samples above it; (50, median) below forty samples; (0, 0) for none."""
    if not values:
        return 0.0, 0.0
    best = (50.0, statistics.median(values))
    if len(values) > 1:
        cuts = statistics.quantiles(values, n=1000, method="inclusive")
        for permille in (750, 900, 950, 990, 999):
            if len(values) * (1000 - permille) >= 10 * 1000:
                best = (permille / 10, cuts[permille - 1])
    return best


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit); absent ones are left out."""
    selfs = self_times(rec.spans)
    by: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(rec.spans):
        by[s.name].append(i)

    def need(*names):
        for n in names:
            if n not in rec.installed:
                raise _Absent(n)

    def ms(*names) -> float:
        need(*names)
        return 1e3 * sum(rec.spans[i].duration for n in names for i in by[n])

    def self_ms(name) -> float:
        need(name)
        return 1e3 * sum(selfs[i] for i in by[name])

    def calls(name) -> int:
        need(name)
        return len(by[name])

    def info(name, key) -> list:
        need(name)
        spans = [rec.spans[i] for i in by[name]]
        if any(key not in s.info for s in spans):
            raise _Absent(name)
        return [s.info[key] for s in spans]

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    def heads_used() -> float:
        live_by_request = defaultdict(set)
        for s, live in zip((rec.spans[i] for i in by["classify_heads"]), info("classify_heads", "live")):
            live_by_request[s.request] |= live
        chains = [rec.spans[i] for i in by["ground_chain"]]
        used = sum(
            len(read & live_by_request[s.request])
            for s, read in zip(chains, info("ground_chain", "read"))
        )
        return ratio(used, sum(map(len, live_by_request.values())))

    def fallback_share() -> float:
        need("classify_heads", "kleene_solve")
        classify = set(by["classify_heads"])
        fallback = {rec.spans[i].parent for i in by["kleene_solve"]} & classify
        return ratio(len(fallback), len(classify))

    def def_ms() -> list[float]:
        return [1e3 * rec.spans[i].duration for i in by["decide_asp"]] if calls("decide_asp") else []

    def verdicts(kind, verdict) -> int:
        pairs = zip(info("decide_asp", "kind"), info("decide_asp", "verdict"))
        return sum(p == (kind, verdict) for p in pairs)

    def ns_per_lane_step(kind) -> float:
        spans = [rec.spans[i] for i in by["run_batch"]]
        kinds, steps = info("run_batch", "kind"), info("run_batch", "lane_steps")
        busy = sum(s.duration for s, k in zip(spans, kinds) if k == kind)
        return ratio(1e9 * busy, sum(n for n, k in zip(steps, kinds) if k == kind))

    exact = ("translate", "build_system", "clean", "classify_heads", "ground_chain", "buchi_verdict")
    table: dict[str, tuple[Callable[[], float], str]] = {
        "cli.self_ms": (lambda: self_ms("main"), "ms"),
        "syntax.parse_ms": (lambda: ms("parse_file"), "ms"),
        "measure.ms": (lambda: ms("measure", "tier1_verdict"), "ms"),
        "ppda.translate_ms": (lambda: ms("translate"), "ms"),
        "ppda.states_max": (lambda: max(info("translate", "states"), default=0), "count"),
        "ppda.states_sum": (lambda: sum(info("translate", "states")), "count"),
        "eqsys.build_ms": (lambda: ms("build_system"), "ms"),
        "eqsys.vars_sum": (lambda: sum(info("build_system", "vars")), "count"),
        "eqsys.vars_max": (lambda: max(info("build_system", "vars"), default=0), "count"),
        "eqsys.clean_ms": (lambda: ms("clean"), "ms"),
        "eqsys.survivor_ratio": (
            lambda: ratio(sum(info("clean", "survivors")), sum(info("build_system", "vars"))),
            "ratio",
        ),
        "eqsys.classify_ms": (lambda: ms("classify_heads"), "ms"),
        "eqsys.classify_self_ms": (lambda: self_ms("classify_heads"), "ms"),
        "eqsys.candidate_ms": (lambda: ms("subreturn_candidate"), "ms"),
        "eqsys.candidate_calls": (lambda: calls("subreturn_candidate"), "count"),
        "eqsys.candidate_hit_ratio": (
            lambda: ratio(sum(info("subreturn_candidate", "hit")), calls("subreturn_candidate")),
            "ratio",
        ),
        "eqsys.certify_ms": (lambda: ms("certify_subreturn"), "ms"),
        "eqsys.certify_calls": (lambda: calls("certify_subreturn"), "count"),
        "eqsys.cert_den_bits_max": (
            lambda: max(info("subreturn_candidate", "den_bits"), default=0),
            "bits",
        ),
        "eqsys.heads_live": (lambda: sum(map(len, info("classify_heads", "live"))), "count"),
        "eqsys.heads_used_ratio": (heads_used, "ratio"),
        "eqsys.heads_unknown": (lambda: sum(info("classify_heads", "unknown")), "count"),
        "eqsys.fallback_share": (fallback_share, "ratio"),
        "eqsys.newton_ms": (lambda: ms("newton_solve"), "ms"),
        "eqsys.newton_calls": (lambda: calls("newton_solve"), "count"),
        "eqsys.kleene_ms": (lambda: ms("kleene_solve"), "ms"),
        "eqsys.kleene_iters_sum": (lambda: sum(info("kleene_solve", "iters")), "count"),
        "simplex.ms": (lambda: ms("nonnegative_contraction_feasible"), "ms"),
        "simplex.calls": (lambda: calls("nonnegative_contraction_feasible"), "count"),
        "simplex.dim_max": (
            lambda: max(info("nonnegative_contraction_feasible", "dim"), default=0),
            "count",
        ),
        "graphs.scc_ms": (lambda: ms("strongly_connected_components"), "ms"),
        "graphs.scc_largest": (
            lambda: max(info("strongly_connected_components", "largest"), default=0),
            "count",
        ),
        "decide.ms": (lambda: ms("decide_asp"), "ms"),
        "decide.def_ms_p50": (lambda: statistics.median(def_ms() or [0.0]), "ms"),
        "decide.def_ms_tail": (lambda: tail_percentile(def_ms())[1], "ms"),
        "decide.def_ms_tail_pct": (lambda: tail_percentile(def_ms())[0], "%"),
        "decide.def_samples": (lambda: len(def_ms()), "count"),
        "decide.exact_ms": (lambda: ms(*exact), "ms"),
        "decide.chain_ms": (lambda: ms("ground_chain"), "ms"),
        "decide.chain_nodes_max": (lambda: max(info("ground_chain", "nodes"), default=0), "count"),
        "decide.buchi_ms": (lambda: ms("buchi_verdict"), "ms"),
        **{
            f"decide.verdict.{kind}.{verdict}": (
                lambda kind=kind, verdict=verdict: verdicts(kind, verdict),
                "count",
            )
            for kind in ("stream", "tree")
            for verdict in ("asp", "not_asp", "unknown")
        },
        "simulate.compile_ms": (lambda: ms("compile"), "ms"),
        "simulate.suffix_depth_max": (lambda: max(info("compile", "depth"), default=0), "count"),
        "simulate.classes_max": (lambda: max(info("compile", "classes"), default=0), "count"),
        "simulate.run_batch_ms": (lambda: ms("run_batch"), "ms"),
        "simulate.ns_per_lane_step.stream": (lambda: ns_per_lane_step("stream"), "ns"),
        "simulate.ns_per_lane_step.tree": (lambda: ns_per_lane_step("tree"), "ns"),
        "semantics.mc_self_ms": (lambda: self_ms("monte_carlo"), "ms"),
    }
    out = {}
    for name, (compute, unit) in table.items():
        try:
            out[name] = (compute(), unit)
        except _Absent:
            pass
    return out
