"""The experiment drivers in scripts/ run to completion at a tiny size."""

import os
import re
import subprocess
import sys

import pytest

from wmodal import prover, sampling
from wmodal.logics import LOGICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("termination_sweep.py", ["--max-size", "3", "--logics", "K,WK"]),
    ("axiom_matrix.py", ["--mode", "constructive"]),
    ("run_fuzz.py", ["--count", "1", "--logics", "WM"]),
    ("countermodel_sweep.py", ["--max-size", "3", "--logics", "K,WK",
                               "--max-worlds", "2"]),
])
def test_script_exits_zero(script, args):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr.decode()


def test_termination_sweep_counts_decisions_answered_from_store():
    proc = run_script("termination_sweep.py", "--max-size", "3",
                      "--logics", "K,KT")
    rows = re.findall(r"^(\w+) +(\d+) theorems +(\d+) from store ",
                      proc.stdout.decode(), re.M)
    assert [r[0] for r in rows] == ["K", "KT"], proc.stdout.decode()
    # KT has every rule of K, so K's stored derivations serve it.
    assert int(rows[1][2]) > 0
    sizes = re.findall(r"^caches: formulas (\d+), sequents (\d+), ",
                       proc.stdout.decode(), re.M)
    assert len(sizes) == 1 and min(map(int, sizes[0])) > 0, proc.stdout.decode()


def test_termination_sweep_counts_nodes_and_loop_blocks():
    proc = run_script("termination_sweep.py", "--max-size", "5",
                      "--logics", "WK,KT")
    rows = re.findall(r"^(\w+) .* from store +(\d+) nodes +(\d+) loop blocks ",
                      proc.stdout.decode(), re.M)
    # the sums of the stats of the same decisions, in the same order
    expected = []
    prover.clear_caches()
    try:
        for name in ("WK", "KT"):
            logic = LOGICS[name]
            stats = [prover.prove(logic, prover.goal(logic, f)).stats
                     for f in sampling.formulas_up_to_size(5, 2)]
            expected.append((name, str(sum(s.nodes for s in stats)),
                             str(sum(s.loop_blocks for s in stats))))
    finally:
        prover.clear_caches()
    assert rows == expected, proc.stdout.decode()
    assert int(rows[0][2]) > 0


def test_termination_sweep_counts_twin_refutations():
    proc = run_script("termination_sweep.py", "--max-size", "4",
                      "--logics", "K,WK")
    rows = re.findall(r"^(\w+) +\d+ theorems +(\d+) from store +(\d+) nodes "
                      r"+(\d+) loop blocks +(\d+) twin refutations "
                      r"+(\d+) mp commits ",
                      proc.stdout.decode(), re.M)
    expected = []
    prover.clear_caches()
    try:
        for name in ("K", "WK"):
            logic = LOGICS[name]
            stats = [prover.prove(logic, prover.goal(logic, f)).stats
                     for f in sampling.formulas_up_to_size(4, 2)]
            # a goal refuted through its twin is not answered from the store
            expected.append((name,
                             str(sum(not s.nodes and not s.twin_refutations
                                     for s in stats)),
                             str(sum(s.nodes for s in stats)),
                             str(sum(s.loop_blocks for s in stats)),
                             str(sum(s.twin_refutations for s in stats)),
                             str(sum(s.mp_commits for s in stats))))
    finally:
        prover.clear_caches()
    assert rows == expected, proc.stdout.decode()
    # K searches first, so its failures refute WK's goals through the twin.
    assert int(rows[0][4]) == 0 and int(rows[1][4]) > 0


def test_termination_sweep_counts_mp_commits():
    # A -> B and A meet in an antecedent from size 7 on, as in
    # p1 -> (p1 -> bot) -> bot.
    proc = run_script("termination_sweep.py", "--max-size", "7",
                      "--num-atoms", "1", "--logics", "WK")
    rows = re.findall(r"^WK .* (\d+) mp commits ", proc.stdout.decode(), re.M)
    wk = LOGICS["WK"]
    prover.clear_caches()
    try:
        mps = sum(prover.prove(wk, prover.goal(wk, f)).stats.mp_commits
                  for f in sampling.formulas_up_to_size(7, 1))
    finally:
        prover.clear_caches()
    assert rows == [str(mps)], proc.stdout.decode()
    assert mps > 0


def test_countermodel_sweep_prints_a_row_per_logic():
    proc = run_script("countermodel_sweep.py", "--max-size", "3",
                      "--logics", "K,WK", "--max-worlds", "2")
    assert proc.returncode == 0, proc.stdout.decode()
    rows = re.findall(r"^(\w+) +(\d+) theorems +(\d+) at 1 world +(\d+) at 2 "
                      r"worlds +(\d+) disagreements +([\d.]+)s +([\d.]+)s "
                      r"countermodel search$", proc.stdout.decode(), re.M)
    assert [r[0] for r in rows] == ["K", "WK"], proc.stdout.decode()
    for _, theorems, one, two, wrong, total, search in rows:
        # the 48 formulas of size <= 3 over two atoms
        assert int(theorems) + int(one) + int(two) == 48
        assert int(wrong) == 0
        # the search time is a part of the logic's time
        assert float(search) <= float(total)


@pytest.mark.parametrize("option, value", [
    ("--timeout-secs", "-1"), ("--timeout-secs", "nan"), ("--max-nodes", "-1"),
])
def test_termination_sweep_rejects_bad_budget(option, value):
    # Before any sweeping: the search reads the clock every 64 nodes
    # only, so a negative timeout would let small formulas through.
    proc = run_script("termination_sweep.py", "--max-size", "3",
                      "--logics", "WK", option, value)
    assert proc.returncode == 2
    assert "must be 0 or more" in proc.stderr.decode()
    assert proc.stdout == b""


@pytest.mark.parametrize("worlds", ["5", "0"])
def test_countermodel_sweep_rejects_worlds_past_the_search(worlds):
    proc = run_script("countermodel_sweep.py", "--max-size", "3",
                      "--logics", "WK", "--max-worlds", worlds)
    assert proc.returncode == 2
    assert "--max-worlds must be 1 to 4" in proc.stderr.decode()
    assert proc.stdout == b""


@pytest.mark.parametrize("script, args", [
    ("termination_sweep.py", ["--max-size", "1"]),
    ("countermodel_sweep.py", ["--max-size", "1"]),
    ("run_fuzz.py", ["--count", "1"]),
])
def test_script_rejects_unknown_logic(script, args):
    # Exit 1 would read as a disagreement or a violation.
    proc = run_script(script, *args, "--logics", "K,XX")
    assert proc.returncode == 2
    assert "unknown logic 'XX'" in proc.stderr.decode()
    assert proc.stdout == b""


@pytest.mark.parametrize("script", ["termination_sweep.py",
                                    "countermodel_sweep.py"])
@pytest.mark.parametrize("option, value, message", [
    ("--max-size", "0", "--max-size must be 1 or more"),
    ("--max-size", "-2", "--max-size must be 1 or more"),
    ("--num-atoms", "-3", "--num-atoms must be 0 or more"),
])
def test_sweep_rejects_an_empty_space(script, option, value, message):
    # These swept no formula, or only those built from bot, and exited 0.
    proc = run_script(script, "--logics", "WK", "--max-size", "1",
                      option, value)
    assert proc.returncode == 2
    assert message in proc.stderr.decode()
    assert proc.stdout == b""


def test_run_fuzz_rejects_negative_count():
    proc = run_script("run_fuzz.py", "--count", "-3", "--logics", "WM")
    assert proc.returncode == 2
    assert "--count must be 0 or more" in proc.stderr.decode()
    assert proc.stdout == b""


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, capture_output=True, timeout=120)
