"""Command-line interface: exit codes, output formats, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asprod import cli
from asprod.cli import main
from asprod.ppda import export, translate
from asprod.syntax import MAX_NESTING, parse_definition

from conftest import CORPUS_TEXT

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.defs"
    path.write_text("\n".join(CORPUS_TEXT.values()) + "\n")
    return str(path)


# a multi-exit stream whose exact tier answers Unknown
UNKNOWN_STREAM = "stream u = (a : u) (+ 1/2) tail(tail(tail((a : b : u) (+ 1/2) c : d : u)))\n"


def write(tmp_path, text, name="defs.defs"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_exit_codes(tmp_path, capsys):
    asp = write(tmp_path, "stream s = a : s\n", "asp.defs")
    assert main(["check", asp, "--no-tier3"]) == 0
    not_asp = write(tmp_path, "stream s = s\n", "na.defs")
    assert main(["check", not_asp, "--no-tier3"]) == 1
    unknown = write(
        tmp_path,
        UNKNOWN_STREAM,
        "unk.defs",
    )
    assert main(["check", unknown, "--no-tier3"]) == 2
    capsys.readouterr()


def test_check_drift_verdict_lines(tmp_path, capsys):
    path = write(
        tmp_path,
        "stream s34 = (a : s34) (+ 3/4) tail(s34)\nstream srec = srec\n",
    )
    code = main(["check", path, "--no-tier3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "s34: ASP" in out and "tier 1" in out
    assert "srec: NotASP" in out


def test_check_malformed_file_exits_3(tmp_path, capsys):
    path = write(tmp_path, "stream s = (a : s) (+ 5/4) s\n")
    code = main(["check", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "probability out of range" in err
    assert ":1:" in err  # line/column diagnostics


def test_check_partial_results_on_mixed_input(tmp_path, capsys):
    good = write(tmp_path, "stream s = a : s\n", "good.defs")
    bad = write(tmp_path, "stream t = mk(x, t, t)\n", "bad.defs")  # mixed kind
    code = main(["check", good, bad, "--no-tier3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "s: ASP" in captured.out  # valid definitions still analyzed
    assert "mixed-kind" in captured.err


def test_check_duplicate_name_points_at_the_name(tmp_path, capsys):
    path = write(tmp_path, "stream s = a : s\nstream s = tail(s)\n")
    assert main(["check", path, "--no-tier3"]) == 3
    assert f"{path}:2:8: error: duplicate definition name 's'" in capsys.readouterr().err


LONG = "1" * 4301  # one digit past the interpreter's int-string limit

# numbers written with digits other than ASCII 0-9, or with too many
# digits: (text, column, message), all on line 1
MALFORMED_NUMBERS = {
    "superscript": ("stream t = (a : t) (+ ²/3) tail(t)", 23, "unexpected character '²'"),
    "arabic_indic": ("stream t = (a : t) (+ 1/٣) tail(t)", 25, "unexpected character '٣'"),
    "numerator": (f"stream t = t (+ {LONG}/2) a : t", 17, "number with more than 4300 digits"),
    "denominator": (f"stream t = t (+ 1/{LONG}) a : t", 19, "number with more than 4300 digits"),
    "decimal": (f"stream t = t (+ 0.{LONG[1:]}1) a : t", 17, "number with more than 4300 digits"),
}


@pytest.mark.parametrize("command", [["check", "--no-tier3"], ["measure"]])
@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_malformed_number_is_one_located_error(case, command, tmp_path, capsys):
    text, col, message = MALFORMED_NUMBERS[case]
    bad = write(tmp_path, text + "\n", "bad.defs")
    good = write(tmp_path, "stream s = a : s\n", "good.defs")
    code = main([*command, bad, good])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines() == [f"{bad}:1:{col}: error: {message}"]
    assert captured.out.splitlines()[0].startswith("s: ASP" if command[0] == "check" else "s 1")


def test_error_after_a_trailing_comment_is_at_the_end_of_input(tmp_path, capsys):
    path = write(tmp_path, "stream s = a : s (+ 0#")
    assert main(["measure", path]) == 3
    message = "expected ')', found 'end of input'"
    assert capsys.readouterr().err.splitlines() == [f"{path}:1:23: error: {message}"]


def read_int(text: str) -> int:
    """`int(text)` for a decimal of any length, read in chunks that stay
    below every int-string limit Python allows."""
    n = 0
    for i in range(0, len(text), 500):
        chunk = text[i : i + 500]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def read_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(read_int(num), read_int(den or "1"))


# 1/N has 3,000 digits, within the parser's limit, but the drift's
# denominator N^2 has 5,999, past Python's default int-string limit
HUGE_N = 10**2999
HUGE_DRIFT_STREAM = f"stream s = (a : s) (+ 1/{HUGE_N}) (tail(s) (+ 1/{HUGE_N}) a : a : s)\n"


@pytest.mark.parametrize("argv", [["measure"], ["check"], ["check", "--json"]])
def test_drift_past_the_int_string_limit_is_printed_in_full(argv, tmp_path, capsys):
    p = Fraction(1, HUGE_N)
    drift = p + (1 - p) * (-p + (1 - p) * 2)
    assert drift.denominator > 10**4300
    path = write(tmp_path, HUGE_DRIFT_STREAM)
    assert main([*argv, path]) == 0
    out = capsys.readouterr().out
    if argv == ["measure"]:
        name, printed = out.split()
        assert name == "s"
    elif argv == ["check"]:
        assert out.startswith("s: ASP  [tier 1 (measure)]  measure=")
        printed = out.split("measure=")[1].split()[0]
    else:
        (entry,) = json.loads(out)["definitions"]
        assert (entry["verdict"], entry["tier"]) == ("asp", "measure")
        printed = entry["measure"]
    assert read_fraction(printed) == drift
    assert printed.count("/") == 1


def test_int_str_holds_under_the_lowest_int_string_limit():
    n = -(7**20000)  # 16,902 digits
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if before is not None:
        sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
    try:
        text = cli.int_str(n)
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)
    assert text[0] == "-" and read_int(text[1:]) == -n
    assert cli.int_str(0) == "0" and cli.int_str(10**600) == "1" + "0" * 600


def nested_mk(depth):
    """A tree whose sampler needs an entry suffix `depth` symbols deep: its
    closure table is too large to build from depth 14 on, while the exact
    tier answers Unknown quickly."""
    inner = "t"
    for _ in range(depth):
        inner = f"mk(a, {inner}, t)"
    return f"tree t = left(left(t)) (+ 1/2) {inner}\n"


@pytest.mark.parametrize("argv", [["check", "--json"], ["simulate", "--json"]])
def test_sampler_limit_exits_3_and_reports_the_rest(argv, tmp_path, capsys):
    # `u` reaches the sampler in `check`, so both reports carry floats
    path = write(tmp_path, UNKNOWN_STREAM + nested_mk(14) + "stream s = a : s\n")
    code = main([*argv, path, "--mc-runs", "5", "--mc-horizon", "200"])
    captured = capsys.readouterr()
    assert code == 3
    assert f"{path}: t: error: closure table too large" in captured.err
    key = "definitions" if argv[0] == "check" else "simulations"
    entries = json.loads(captured.out)[key]
    assert [e["name"] for e in entries] == ["u", "s"]
    assert captured.out == json.dumps({key: entries}, sort_keys=True, indent=2) + "\n"


def deep_stream(name, depth):
    return f"stream {name} = " + "a : " * depth + name + "\n"


@pytest.mark.parametrize("argv", [["check", "--json"], ["measure"]])
def test_nesting_limit_exits_3_and_reports_the_rest(argv, tmp_path, capsys):
    at_limit = write(tmp_path, deep_stream("deep", MAX_NESTING), "deep.defs")
    past = write(tmp_path, deep_stream("deeper", MAX_NESTING + 1), "deeper.defs")
    good = write(tmp_path, "stream s = a : s\n", "good.defs")
    code = main([*argv, at_limit, past, good])
    captured = capsys.readouterr()
    assert code == 3
    col = len("stream deeper = ") + 4 * (MAX_NESTING + 1) + 1  # the innermost `deeper`
    assert captured.err.splitlines() == [
        f"{past}:1:{col}: error: term nested more than {MAX_NESTING} levels deep"
    ]
    if argv[0] == "check":
        names = [e["name"] for e in json.loads(captured.out)["definitions"]]
    else:
        names = [line.split()[0] for line in captured.out.splitlines()]
    assert names == ["deep", "s"]


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(st.sampled_from('a"\\\n\té€😀 ')),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.sampled_from('ab"\n é')), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["definitions", "simulations", 'k\n"é']), st.lists(json_values, max_size=4))
def test_document_writer_matches_json_dumps(key, entries):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_document(key, [cli._render_entry(e) for e in entries])
    assert out.getvalue() == json.dumps({key: entries}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "golden",
    [
        "paper_examples.check.json",
        "seeded_batch.check.json",
        "paper_examples.simulate.json",
        "paper_examples.simulate_rrl_lr.json",
        "seeded_batch.simulate.json",
    ],
)
def test_render_entry_matches_json_dumps_on_the_goldens(golden):
    (entries,) = json.loads((GOLDEN / golden).read_text()).values()
    assert entries
    for entry in entries:
        expected = json.dumps(entry, sort_keys=True, indent=2).replace("\n", "\n    ")
        assert cli._render_entry(entry) == "    " + expected


def test_check_memory_does_not_grow_with_the_analysis(tmp_path):
    """Each definition's analysis is freed once its report is rendered, so
    the peak grows by the rendered text alone: about 3.5 KB per definition
    here, where keeping every verdict to the end cost about 16.9 KB."""
    n = 50

    def peak(copies):
        path = write(
            tmp_path,
            "".join(
                "stream {0} = (a : {0}) (+ {1}/{2}) tail({0})\n".format(f"s{c}_{k}", k, n + 1)
                for c in range(copies)
                for k in range(1, n + 1)
            ),
        )
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                main(["check", "--json", "--no-tier3", path])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(1)  # warm-up: fills the interpreter's caches
    per_definition = (peak(4) - peak(1)) / (3 * n)
    assert per_definition < 8 * 1024


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--mc-horizon", "10"],
        ["check", "--mc-runs", "x"],
        ["simulate", "--mc-runs", "0"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--tree-policy", "RX"],
        ["solve", "--epsilon", "-1"],
        ["solve", "--max-iter", "0"],
        ["measure", "--bogus"],
        ["check", "--no-tier3", "--force-tier3"],
    ],
)
def test_usage_errors_exit_3_with_one_error_line(argv, tmp_path, capsys):
    # an Unknown verdict, so that `check` reaches the sampler
    path = write(
        tmp_path,
        UNKNOWN_STREAM,
    )
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert "error:" in line and argv[1] in line


def test_check_json_is_deterministic(corpus_file, capsys):
    assert main(["check", corpus_file, "--no-tier3", "--json"]) == 1
    first = capsys.readouterr().out
    assert main(["check", corpus_file, "--no-tier3", "--json"]) == 1
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    names = [entry["name"] for entry in doc["definitions"]]
    assert names == list(CORPUS_TEXT)  # report order matches input order
    by_name = {e["name"]: e for e in doc["definitions"]}
    assert by_name["s14"]["verdict"] == "not_asp"
    assert by_name["s14"]["measure"] == "-1/2"
    assert by_name["t2"]["tier2"]["verdict"] == "almost_sure"
    assert by_name["srec"]["tier2"]["chain"]["output_nodes"] == []


def test_measure_output(tmp_path, capsys):
    path = write(
        tmp_path,
        "tree e1 = left(e1) (+ 1/4) mk(x, e1, e1)\n"
        "tree e2 = left(e2) (+ 1/4) mk(x, e2, left(e2))\n",
    )
    assert main(["measure", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["e1 1/2", "e2 -1/4"]


def test_simulate_reports(tmp_path, capsys):
    path = write(tmp_path, "stream s = s\n")
    code = main(["simulate", path, "--mc-runs", "10", "--mc-horizon", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tail_silence=1.0000" in out
    assert "hint=evidence_against_asp" in out


def test_simulate_json_deterministic(tmp_path, capsys):
    path = write(tmp_path, "stream s = (a : s) (+ 3/4) tail(s)\n")
    args = ["simulate", path, "--mc-runs", "20", "--mc-horizon", "400", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert first == capsys.readouterr().out
    doc = json.loads(first)
    assert doc["simulations"][0]["hint"] == "no_evidence_against_asp"


def test_ppda_json_export(tmp_path, capsys):
    path = write(tmp_path, "stream s = s\n")
    assert main(["ppda", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"s"}
    assert len(doc["s"]["states"]) == 1
    assert len(doc["s"]["transitions"]) == 2


def test_ppda_json_keeps_the_first_of_two_files_defining_a_name(tmp_path, capsys):
    first = tmp_path / "a.defs"
    first.write_text("stream s = a : s\n")
    later = tmp_path / "b.defs"
    later.write_text("stream s = tail(s)\nstream u = a : u\n")
    assert main(["ppda", str(first), str(later)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{later}: s: error: duplicate definition name 's'"]
    doc = json.loads(captured.out)
    assert set(doc) == {"s", "u"}
    assert doc["s"] == json.loads(export(translate(parse_definition("stream s = a : s")), "json"))


def test_ppda_graphviz_export(tmp_path, capsys):
    path = write(tmp_path, "stream s = a : s\n")
    assert main(["ppda", path, "--format", "graphviz"]) == 0
    out = capsys.readouterr().out
    assert "⊥ / ε : 1" in out


def test_solve_prints_values_and_classes(tmp_path, capsys):
    path = write(tmp_path, "stream s = (a : s) (+ 1/4) tail(s)\n")
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "[s, tl, s] kleene=0.333333" in out
    assert "SubReturn (certificate sum" in out
    assert "AlmostSureReturn" in out


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "stream s = a : s\n")
    proc = subprocess.run(
        [sys.executable, "-m", "asprod", "check", str(path), "--no-tier3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "s: ASP" in proc.stdout


def test_smt_solver_env_var_is_consulted(tmp_path, capsys, monkeypatch):
    solver = tmp_path / "solver.sh"
    solver.write_text("#!/bin/sh\necho unsat\n")
    solver.chmod(0o755)
    unknown = write(
        tmp_path,
        UNKNOWN_STREAM,
        "unk.defs",
    )
    monkeypatch.setenv("ASP_SMT_SOLVER", str(solver))
    # with every undetermined head reported almost-sure by the solver, the
    # chain has no divergence left and the verdict resolves
    code = main(["check", unknown, "--no-tier3"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "Unknown" not in out


def test_missing_file_exits_3(tmp_path, capsys):
    assert main(["measure", str(tmp_path / "nope.defs")]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "measure"])
def test_file_that_is_not_utf8_exits_3_and_reports_the_rest(command, tmp_path, capsys):
    good = write(tmp_path, "stream s = a : s\n", "good.defs")
    bad = tmp_path / "bad.defs"
    bad.write_bytes(b"stream t = a : t\n\xff\n")
    argv = [command, str(bad), good] + (["--no-tier3"] if command == "check" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines() == [f"{bad}: error: not UTF-8: invalid start byte at byte 17"]
    assert captured.out.splitlines()[0].startswith("s: ASP" if command == "check" else "s 1")


# each command's extra arguments and its exit code on the corpus, where
# `check` finds NotASP definitions
WITHOUT_THE_SAMPLER = {
    "measure": ([], 0),
    "ppda": ([], 0),
    "check": (["--no-tier3"], 1),
    "solve": ([], 0),
}


@pytest.mark.parametrize("command", list(WITHOUT_THE_SAMPLER))
def test_commands_without_the_numeric_tier_do_not_import_numpy(command):
    # importing numpy costs about 0.13 s and 12 MB in every such process;
    # `subprocess`, needed only by the optional SMT solver, about 5 ms
    corpus = Path(__file__).resolve().parents[1] / "defs" / "paper_examples.defs"
    extra, expected = WITHOUT_THE_SAMPLER[command]
    argv = [command, *extra, str(corpus)]
    script = (
        "import contextlib, io, sys\n"
        "from asprod.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, 'subprocess' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.split() == [str(expected), "False", "False"], proc.stderr


def test_solve_runs_kleene_once_per_definition(monkeypatch, tmp_path, capsys):
    from asprod import eqsys

    calls = 0
    real = eqsys.kleene_solve

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(eqsys, "kleene_solve", counting)
    corpus = Path(__file__).resolve().parents[1] / "defs" / "paper_examples.defs"
    path = tmp_path / "solve.defs"
    # the last definition is multi-exit, with Unknown heads
    multi_exit = "stream u = (a : u) (+ 1/2) tail(tail(tail((a : b : u) (+ 1/2) c : d : u)))"
    path.write_text(corpus.read_text() + multi_exit + "\n")
    assert main(["solve", str(path)]) == 0
    assert calls == capsys.readouterr().out.count("surviving (kleene:")
