"""Tests of the benchmark itself: generators and oracles against brute
force on tiny inputs, metric names against BENCHMARK.json, repeatable work
counts, and refusal to run without the sources.

    python3 -m pytest -q perfbench/tests
"""
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracebracket import (alexander_biquandle, bracket_invariant, fixture_text,  # noqa: E402
                          parse_biquandle, parse_bracket, search_brackets, trefoil_pos)
from tracebracket.coloring import validate_coloring  # noqa: E402
from tracebracket.trace import (evaluate_recursive, evaluate_recursive_parity,  # noqa: E402
                                parse_trace_diagram)

BQ = {name: parse_biquandle(fixture_text(f"{name}.txt")) for name in ("bq1", "bq2", "bq3")}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def brute_force_count(d, bq):
    return sum(validate_coloring(d, bq, col)
               for col in itertools.product(range(bq.n), repeat=d.n_semiarcs))


def tiny_words(seed, count=25):
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(2, 3)
        yield gen.random_word(rng, strands, rng.randint(strands - 1, 4)), strands


def test_trefoil_closure_matches_fixture():
    beta = parse_bracket(fixture_text("br_laurent.txt"), BQ["bq1"])
    closure = gen.braid_closure((1, 1, 1), 2)
    assert (bracket_invariant(closure, BQ["bq1"], beta).multiset
            == bracket_invariant(trefoil_pos(), BQ["bq1"], beta).multiset)


@pytest.mark.parametrize("bq_name", ["bq2", "bq3"])
def test_braid_action_count_matches_brute_force(bq_name):
    bq = BQ[bq_name]
    for word, strands in tiny_words(1):
        d = gen.braid_closure(word, strands)
        assert oracles.braid_coloring_count(bq, word, strands) == brute_force_count(d, bq)


@pytest.mark.parametrize("pts", [(3, 1, 2), (5, 2, 3)])
def test_kernel_count_matches_brute_force(pts):
    bq = alexander_biquandle(*pts)
    for word, strands in tiny_words(2, count=12):
        d = gen.braid_closure(word, strands)
        if bq.n ** d.n_semiarcs <= 400_000:
            assert oracles.alexander_kernel_count(d, *pts) == brute_force_count(d, bq)


def test_equivalent_variants_have_equal_counts():
    rng = random.Random(3)
    for _ in range(10):
        word = gen.with_riii_site(rng, 3, 5)
        counts = {oracles.braid_coloring_count(BQ["bq3"], w, n)
                  for _kind, w, n in gen.equivalence_class(word, 3, rng)}
        assert len(counts) == 1


def test_knot_test_matches_component_count():
    rng = random.Random(4)
    for _ in range(30):
        strands = rng.randint(2, 4)
        word = gen.random_word(rng, strands, rng.randint(strands - 1, 6))
        d = gen.braid_closure(word, strands)
        # one component <=> following semiarcs through the crossings visits all
        succ = {}
        for c in d.crossings:
            succ[c.u_in], succ[c.o_in] = c.u_out, c.o_out
        seen, s = {1}, succ[1]
        while s != 1:
            seen.add(s)
            s = succ[s]
        assert gen.closes_to_knot(word, strands) == (len(seen) == d.n_semiarcs)


def test_trace_files_round_trip_and_methods_agree():
    bq = BQ["bq2"]
    beta = parse_bracket(fixture_text("br_z7.txt"), bq)
    rng = random.Random(5)
    for _ in range(6):
        d = gen.braid_closure(gen.random_word(rng, 2, 5), 2)
        coloring = next(col for col in itertools.product(range(2), repeat=d.n_semiarcs)
                        if validate_coloring(d, bq, col))
        text = gen.trace_file_text(d, bq, coloring, {0: "A", 2: "B"})
        td, colors = parse_trace_diagram(text, bq)
        assert [colors[s] for s in d.semiarcs()] == list(coloring)
        assert evaluate_recursive(td, beta) == evaluate_recursive_parity(td, beta)


def test_emission_key_matches_search_order():
    emitted = [beta for beta, _cls in search_brackets(BQ["bq2"], 5)]
    keys = [oracles.emission_key([[e.value for e in row] for row in beta.A],
                                 [[e.value for e in row] for row in beta.B], 5)
            for beta in emitted]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {name: tracing.unit_of(name) for name in tracing.per_layer_names()}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.BUILDERS)


def test_work_counts_repeat(tmp_path):
    import tracebracket.cli as cli
    wl = workloads.build_invariant(7, workloads.Files(tmp_path))
    jobs = wl.jobs[:12]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for job in jobs:
                run.run_job(job, cli)
        finally:
            tracer.uninstall()
        counts.append({k: tracer.layer_metrics()[k] for k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["bracket.state_sums"] > 0 and counts[0]["coloring.calls"] == 12


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_printed_metrics_carry_units():
    out = run_benchmark(ROOT, "--workload", "trace", "--seed", "3", "--seconds", "0",
                        "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in out.stdout.splitlines())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = run_benchmark(tmp_path, "--workload", "count", "--seed", "1", "--seconds", "1",
                        "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
