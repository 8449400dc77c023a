"""Command-line interface: exit codes and structured output."""

import ast
import glob
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from wmodal import cli, prover, semantics, syntax
from wmodal.logics import get_logic
from wmodal.sequents import CLASSICAL, CONSTRUCTIVE


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def structured_lines(out):
    records = [json.loads(line) for line in out.splitlines() if line]
    assert all(r["version"] == 2 for r in records)
    return records


# ---------------------------------------------------------------------------
# prove / decide

def test_prove_theorem_exit_zero(capsys):
    code, out = run(capsys, "prove", "--logic", "WK",
                    "[](p1->p2) -> ([]p1 -> []p2)")
    assert code == 0
    assert "[" in out  # pretty-printed derivation with rule tags


def test_prove_nontheorem_exit_one(capsys):
    code, _ = run(capsys, "prove", "--logic", "WMC",
                  "<>(p1|p2) -> <>p1 | <>p2")
    assert code == 1


def test_prove_excluded_middle_exit_one(capsys):
    code, _ = run(capsys, "prove", "--logic", "WM", "p1 | ~p1")
    assert code == 1


def test_prove_sequent_syntax(capsys):
    code, _ = run(capsys, "prove", "--logic", "WM", "p1, p2 |- p1")
    assert code == 0


def test_prove_structured_output(capsys):
    code, out = run(capsys, "prove", "--logic", "WM", "--format", "structured",
                    "p1 -> p1")
    assert code == 0
    (rec,) = structured_lines(out)
    assert rec["status"] == "proved"
    assert rec["derivation"]["rule"] == "Rimp"


# Its WMNT proof has 28 distinct nodes and 171 as a tree.
WMNT_SHARED = ("[](p1 | p1 | p1), [][]<>p1, [](p2 | p3), <>bot, [](p3 | p2), "
               "[](p1 & p2), [][][]p1, []<>p2, [](p1 | p2) |- <>[]p2")


def test_closed_stdout_exit_74_without_message():
    # The proof text of this identity, 201 lines each repeating its
    # sequent, is about 124 KB, more than a pipe holds, so the writer
    # meets the closed pipe.
    chain = "[]" * 200 + "p1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wmodal.cli", "prove", "--logic", "WMNT",
         "%s |- %s" % (chain, chain)], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EX_IOERR == 74
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_prove_renders_shared_proof_once(capsys):
    t0 = time.monotonic()
    code, text = run(capsys, "prove", "--logic", "WMNT", WMNT_SHARED)
    assert code == 0
    code, out = run(capsys, "prove", "--logic", "WMNT", "--format",
                    "structured", WMNT_SHARED)
    assert code == 0
    assert time.monotonic() - t0 < 5
    (rec,) = structured_lines(out)
    assert rec["derivation"]["rule"] == "iTbox"
    ids, refs, stack = [], [], [rec["derivation"]]
    while stack:
        doc = stack.pop()
        if "ref" in doc:
            assert doc["ref"] in ids    # every reference follows its target
            refs.append(doc["ref"])
        else:
            ids.append(doc.get("id"))
            stack.extend(reversed(doc["premises"]))
    labelled = [i for i in ids if i is not None]
    assert labelled == list(range(1, len(labelled) + 1)) and refs
    lines = text.splitlines()
    assert len(lines) == len(ids) + len(refs)
    assert sum("[see #" in line for line in lines) == len(refs)


def _counts(rec):
    return tuple(rec[k] for k in ("nodes", "loop_blocks", "twin_refutations",
                                  "mp_commits"))


def test_structured_results_count_nodes_and_loop_blocks(capsys):
    # From cleared caches, as `prove` and `decide` run in a fresh process.
    wkt = ("[]<>p3, []<>[]p2, [](bot -> p1), [](p3 | p3), [](p1 | p1), "
           "[]p1, [](p2 | p3), <>p1 |- [](bot -> bot)")
    prover.clear_caches()
    try:
        code, out = run(capsys, "prove", "--logic", "WKT", "--format",
                        "structured", wkt)
        assert code == 0
        (rec,) = structured_lines(out)
        assert rec["status"] == "proved"
        assert _counts(rec) == (61, 10, 0, 0)
        code, out = run(capsys, "decide", "--logic", "WM", "--format",
                        "structured", "~~p1")
        assert code == 1
        (rec,) = structured_lines(out)
        assert rec["status"] == "non-theorem"
        assert _counts(rec) == (3, 1, 0, 0)
        code, out = run(capsys, "decide", "--logic", "WK", "--format",
                        "structured", "p1 -> (p1 -> p2) -> p2")
        assert code == 0
        (rec,) = structured_lines(out)
        assert rec["status"] == "theorem"
        assert _counts(rec) == (5, 0, 0, 1)
        # M's failure refutes the WM goal through its classical twin.
        for logic, nodes, twins in (("M", 1, 0), ("WM", 0, 1)):
            code, out = run(capsys, "prove", "--logic", logic, "--format",
                            "structured", "[]p1 |- p1")
            assert code == 1
            (rec,) = structured_lines(out)
            assert rec["status"] == "not-derivable"
            assert _counts(rec) == (nodes, 0, twins, 0)
    finally:
        prover.clear_caches()


@pytest.mark.parametrize("argv", [
    ["prove", "--logic", "WK", "[]p1 -> []p1"],
    ["prove", "--logic", "WK", "[]p1 |- p1"],
    ["decide", "--logic", "K", "[]p1 -> p1"],
])
def test_structured_records_hold_every_search_count(capsys, argv):
    # Every field of SearchStats but the time, so a new counter needs no
    # edit of the CLI.
    code, out = run(capsys, *argv, "--format", "structured")
    (rec,) = structured_lines(out)
    counts = [k for k in prover.SearchStats._fields if k != "elapsed"]
    assert all(type(rec[k]) is int for k in counts)
    assert "elapsed" not in rec
    assert set(rec) - set(counts) <= {"command", "logic", "status", "version",
                                      "formula", "derivation"}


def test_decide_exit_codes(capsys):
    assert run(capsys, "decide", "--logic", "WMN", "[]top")[0] == 0
    assert run(capsys, "decide", "--logic", "WM", "[]top")[0] == 1


# ---------------------------------------------------------------------------
# interpolate

def test_interpolate_exit_zero_and_vars(capsys):
    code, out = run(capsys, "interpolate", "--logic", "WK", "--format",
                    "structured", "p & q", "p | r")
    assert code == 0
    (rec,) = structured_lines(out)
    from wmodal.syntax import bot, parse, var_set
    assert var_set(parse(rec["interpolant"])) <= {bot, parse("p1")}


def test_interpolate_nontheorem_exit_one(capsys):
    assert run(capsys, "interpolate", "--logic", "WM", "p", "q")[0] == 1


def test_interpolate_bot(capsys):
    code, out = run(capsys, "interpolate", "--logic", "WM", "--format",
                    "structured", "bot", "q")
    assert code == 0
    (rec,) = structured_lines(out)
    assert rec["interpolant"] == "bot"


def test_interpolate_shares_atom_names(capsys):
    # "p" in both arguments must denote the same atom
    assert run(capsys, "interpolate", "--logic", "WM", "p", "p")[0] == 0


# ---------------------------------------------------------------------------
# countermodel / check-model

def test_countermodel_found(capsys):
    code, out = run(capsys, "countermodel", "--logic", "WM", "--format",
                    "structured", "~<>bot")
    assert code == 0
    (rec,) = structured_lines(out)
    assert rec["status"] == "found"
    model = semantics.model_from_json(json.dumps(rec["model"]))
    assert not semantics.forces(model, rec["world"], syntax.parse("~<>bot"))


def test_countermodel_none_for_theorem(capsys):
    code, _ = run(capsys, "countermodel", "--logic", "WM", "p1 -> p1",
                  "--max-worlds", "2")
    assert code == 1


def cli_limited(*argv):
    """Run the CLI in a subprocess under a 1 GB address-space limit;
    returns (exit code, seconds, stderr text, stdout text)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "wmodal.cli", *argv],
                          preexec_fn=limit, env=env, capture_output=True,
                          timeout=60)
    return (proc.returncode, time.monotonic() - t0, proc.stderr.decode(),
            proc.stdout.decode())


def test_countermodel_timeout_exit_two():
    # 4 worlds: 168 families per world, 8e8 neighbourhood choices.
    code, secs, *_ = cli_limited("countermodel", "--logic", "M",
                                 "[]p1 -> []p1", "--max-worlds", "4",
                                 "--timeout-secs", "1")
    assert code == 2 and secs < 5


def test_countermodel_without_modal_part_skips_neighbourhoods():
    code, secs, *_ = cli_limited("countermodel", "--logic", "M", "p1 -> p1",
                                 "--max-worlds", "4", "--timeout-secs", "1")
    assert code == 1 and secs < 5


def test_deep_box_chain_decided():
    # Search takes one Python frame per branch level.
    code, _, err, out = cli_limited("decide", "--logic", "K",
                                    "[]" * 60000 + "p1")
    assert code == 1
    assert out.strip() == "non-theorem" and err == ""


def test_deep_parentheses_parse():
    # The parser keeps its own stack, so nesting costs it no recursion.
    code, _, err, out = cli_limited("decide", "--logic", "K",
                                    "(" * 30000 + "p1" + ")" * 30000)
    assert (code, out, err) == (1, "non-theorem\n", "")


def test_deep_input_exit_70_without_traceback():
    # The formula parses; search then overflows the recursion limit.
    code, _, err, _ = cli_limited("decide", "--logic", "K",
                                  "~" * 110_000 + "p1")
    assert code == 70
    assert "Traceback" not in err and err.startswith("internal error: ")
    assert len(err.splitlines()) == 1


def test_check_model_deep_document_exit_64(tmp_path):
    # `json.loads` recurses once per level, and under the recursion limit
    # `prover` sets, 200,000 levels overflowed the C stack (SIGSEGV).
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, _, err, _ = cli_limited("check-model", "--logic", "M", str(path))
    assert code == 64
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unexpected_error_exit_70(capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(prover, "prove", boom)
    assert cli.main(["decide", "--logic", "WM", "p1"]) == 70
    assert capsys.readouterr().err == "internal error: RuntimeError('boom')\n"


@pytest.mark.parametrize("argv", [
    ["prove", "--logic", "WK", "[](p1 -> p2) -> ([]p1 -> []p2)"],
    ["interpolate", "--logic", "WK", "p1 & p2", "p1 | p3"],
])
def test_derivation_failing_check_exit_70(capsys, monkeypatch, argv):
    monkeypatch.setattr(prover, "check", lambda logic, d: False)
    assert cli.main(argv) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_countermodel_failing_check_exit_70(capsys, monkeypatch, fmt):
    # As a derivation that fails check: the witness is not printed.
    monkeypatch.setattr(semantics, "is_countermodel", lambda *args: False)
    assert cli.main(["countermodel", "--logic", "WM", "--format", fmt,
                     "[]p1 -> p1"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1


def test_countermodel_prints_a_checked_witness(capsys, monkeypatch):
    checked = []
    real = semantics.is_countermodel
    monkeypatch.setattr(semantics, "is_countermodel",
                        lambda *args: checked.append(args) or real(*args))
    code, out = run(capsys, "countermodel", "--logic", "WM", "[]p1 -> p1")
    assert code == 0 and out.startswith("refuting world: ")
    ((logic, f, model, world),) = checked
    assert (logic.name, syntax.render(f)) == ("WM", "[]p1 -> p1")
    assert out == "refuting world: %d\nmodel: %s\n" % (
        world, semantics.model_to_json(model))


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("argv", [
    ["prove", "--logic", "WK", "[](p1 -> p2) -> ([]p1 -> []p2)"],
    ["interpolate", "--logic", "WK", "p1 & p2", "p1 | p3"],
])
def test_derivations_are_rendered_only_in_the_format_printed(
        capsys, monkeypatch, argv, fmt):
    def boom(*args):
        raise RuntimeError("rendered for the other format")

    if fmt == "text":
        monkeypatch.setattr(cli, "_derivation_doc", boom)
    else:
        monkeypatch.setattr(prover.Derivation, "pretty", boom)
    code, out = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    if fmt == "structured":
        structured_lines(out)


def test_countermodel_bad_max_worlds_exit_64(capsys):
    for n in ("0", "-2"):
        assert run(capsys, "countermodel", "--logic", "M", "p1",
                   "--max-worlds", n)[0] == 64


@pytest.mark.parametrize("option", ["--timeout-secs", "--max-nodes"])
def test_negative_budget_exit_64(capsys, option):
    # The search reads the clock every 64 nodes only, so a negative
    # timeout used to let a short search answer.
    assert cli.main(["decide", "--logic", "WK", option, "-1",
                     "[]p1 -> []p1"]) == 64
    assert "must be 0 or more" in capsys.readouterr().err


def test_check_model_roundtrip(tmp_path, capsys):
    m = semantics.random_model(get_logic("WMN"), 3, seed=2)
    path = tmp_path / "model.json"
    path.write_text(semantics.model_to_json(m))
    code, _ = run(capsys, "check-model", "--logic", "WMN", str(path))
    assert code == 0
    # []top is valid in every (N) model
    code, _ = run(capsys, "check-model", "--logic", "WMN", str(path), "[]top")
    assert code == 0


@pytest.mark.parametrize("doc", [
    {"version": 1, "worlds": [0]},
    [],
    {"version": 1, "kind": "classical", "worlds": [0],
     "neighbourhoods": {"0": [5]}},
    {"version": 1, "kind": "classical", "worlds": [0, True],
     "neighbourhoods": {}},
    {"version": 1, "kind": "classical", "worlds": [0],
     "neighbourhoods": {"0": [[0]]}, "valuation": {"p1": 1}},
    {"version": 1, "kind": "constructive", "worlds": [0, 1],
     "neighbourhoods": {}, "order": [[0, 1, 1]]},
    # a family under a key that names no world
    {"version": 1, "kind": "classical", "worlds": [0],
     "neighbourhoods": {"00": [[0]], "7": [[0]]}},
    # a classical model on an order that is not discrete
    {"version": 1, "kind": "classical", "worlds": [0, 1],
     "neighbourhoods": {}, "order": [[0, 1]]},
    # a version that equals 1 but is not the integer 1
    {"version": 1.0, "kind": "classical", "worlds": [0],
     "neighbourhoods": {}},
    {"version": True, "kind": "classical", "worlds": [0],
     "neighbourhoods": {}},
])
def test_check_model_malformed_document_exit_64(tmp_path, capsys, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-model", "--logic", "M", str(path)]) == 64
    assert capsys.readouterr().err.startswith("error: ")


def test_check_model_duplicate_key_exit_64(tmp_path, capsys):
    # Written as text: json.dumps cannot repeat a key.
    path = tmp_path / "model.json"
    path.write_text('{"version": 1, "kind": "classical", "worlds": [0], '
                    '"neighbourhoods": {"0": [[0]], "0": []}, '
                    '"valuation": {"p1": [0], "p1": []}}')
    assert cli.main(["check-model", "--logic", "M", str(path)]) == 64
    assert "duplicate key '0'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["p0", "p-1", "p01", "p 1", "p1_0", "p１"])
def test_check_model_atom_key_that_names_no_atom_exit_64(tmp_path, capsys,
                                                         key):
    # "p01" used to alias p1 and give it a second value.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"version": 1, "kind": "classical", "worlds": [0],
         "neighbourhoods": {}, "valuation": {"p1": [0], key: []}}))
    assert cli.main(["check-model", "--logic", "M", str(path)]) == 64
    assert "bad atom key" in capsys.readouterr().err


def test_check_model_invalid_formula(tmp_path, capsys):
    m = semantics.Model(CONSTRUCTIVE, 1, (1,), ((),), ())
    path = tmp_path / "model.json"
    path.write_text(semantics.model_to_json(m))
    code, _ = run(capsys, "check-model", "--logic", "WM", str(path), "[]top")
    assert code == 1


def test_check_model_wrong_kind(tmp_path, capsys):
    m = semantics.Model(CLASSICAL, 1, (1,), ((),), ())
    path = tmp_path / "model.json"
    path.write_text(semantics.model_to_json(m))
    code, _ = run(capsys, "check-model", "--logic", "WM", str(path))
    assert code == 1


def test_check_model_missing_file_exit_64(tmp_path, capsys):
    code = cli.main(["check-model", "--logic", "WM",
                     str(tmp_path / "absent.json")])
    assert code == 64
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# selftest / fuzz

def test_selftest_passes(capsys):
    code, out = run(capsys, "selftest", "--format", "structured")
    assert code == 0
    records = structured_lines(out)
    assert records[-1]["status"] == "ok"
    by_cell = {(r.get("logic"), r.get("schema")): r for r in records[:-1]}
    assert by_cell[("WMN", "N_box")]["got"] is True
    assert by_cell[("WM", "C_box")]["got"] is False


def test_fuzz_small_run(capsys):
    code, out = run(capsys, "fuzz", "--logic", "WM", "--seed", "1",
                    "--count", "3", "--format", "structured")
    assert code == 0
    assert structured_lines(out)[-1]["violations"] == 0


def test_fuzz_count_zero_runs_no_iteration(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran an iteration")
    monkeypatch.setattr(prover, "prove", refuse)
    monkeypatch.setattr(semantics, "random_model", refuse)
    code, out = run(capsys, "fuzz", "--logic", "WM", "--count", "0",
                    "--format", "structured")
    assert code == 0
    assert structured_lines(out)[-1]["violations"] == 0


def test_fuzz_negative_count_exit_64(capsys):
    assert cli.main(["fuzz", "--logic", "WM", "--count", "-1"]) == 64
    captured = capsys.readouterr()
    assert "must be 0 or more" in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# usage and budget errors

def test_parse_error_exit_64(capsys):
    assert run(capsys, "decide", "--logic", "WM", "p1 ->")[0] == 64


def test_oversized_atom_index_exit_64_with_position(capsys):
    assert cli.main(["decide", "--logic", "K", "p" + "1" * 5000]) == 64
    assert capsys.readouterr().err == \
        "error: atom index too long (at position 0)\n"


def test_unknown_logic_exit_64(capsys):
    assert run(capsys, "decide", "--logic", "WX", "p1")[0] == 64


def test_missing_subcommand_exit_64(capsys):
    assert cli.main([]) == 64


# Each command accepts only the options it reads: prove, decide,
# interpolate and selftest take both budget options, countermodel only
# --timeout-secs, and --format follows the subcommand.
@pytest.mark.parametrize("argv", [
    ["--format", "structured", "decide", "--logic", "K", "p -> p"],
    ["selftest", "--logic", "K"],
    ["fuzz", "--logic", "WM", "--count", "1", "--max-nodes", "1"],
    ["fuzz", "--logic", "WM", "--count", "1", "--timeout-secs", "1"],
    ["countermodel", "--logic", "WK", "--max-nodes", "1", "--max-worlds", "2",
     "[](p1 -> p2) -> ([]p1 -> []p2)"],
    ["check-model", "--logic", "K", "--max-nodes", "1", "MODEL"],
    ["check-model", "--logic", "K", "--timeout-secs", "1", "MODEL"],
])
def test_unread_option_exit_64(tmp_path, capsys, argv):
    path = tmp_path / "model.json"
    path.write_text(semantics.model_to_json(
        semantics.Model(CLASSICAL, 1, (1,), ((),), ())))
    argv = [str(path) if a == "MODEL" else a for a in argv]
    assert run(capsys, *argv)[0] == 64


def test_budget_exit_two(capsys):
    prover.clear_caches()
    try:
        code, _ = run(capsys, "prove", "--logic", "WK", "--max-nodes", "2",
                      "[](p1->p2) -> ([]p1 -> []p2)")
        assert code == 2
    finally:
        prover.clear_caches()


# ---------------------------------------------------------------------------
# import paths of one-shot calls

_LOADED = "import sys%s; print(sorted(sys.modules))"


def loaded_modules(*argv):
    """The modules a fresh interpreter holds after running argv through
    `cli.main`, beyond those of a bare interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def modules(code, *args):
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        return set(ast.literal_eval(proc.stdout.splitlines()[-1]))

    bare = modules(_LOADED % "")
    return modules(_LOADED % ", wmodal.cli as c; c.main(sys.argv[1:])",
                   *argv) - bare


_COMMAND_MODULES = {"semantics", "interpolation", "suites", "sampling"}


@pytest.mark.parametrize("argv,runs", [
    (["decide", "--logic", "WK", "[]p1 -> []p1"], set()),
    (["prove", "--logic", "WK", "[](p1 -> p2) -> ([]p1 -> []p2)"], set()),
    (["interpolate", "--logic", "WK", "p1 & p2", "p1 | p3"],
     {"interpolation"}),
    (["countermodel", "--logic", "WK", "<>p1", "--max-worlds", "2"],
     {"semantics"}),
    (["check-model", "--logic", "M", "MODEL", "[]p1"], {"semantics"}),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, argv, runs):
    model = tmp_path / "model.json"
    model.write_text(semantics.model_to_json(
        semantics.Model(CLASSICAL, 1, (1,), ((),), ())))
    argv = [str(model) if a == "MODEL" else a for a in argv]
    loaded = loaded_modules(*argv)
    assert "wmodal.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    unused = {"wmodal." + m for m in _COMMAND_MODULES - runs}
    assert not loaded & unused


def test_package_imports_only_the_standard_library():
    # The package has no runtime dependencies.
    pkg = os.path.dirname(os.path.abspath(cli.__file__))
    outside = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(os.path.basename(path), name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside
