"""The four workloads: a fixed job set built from a seed, and the checks
that decide which jobs failed.

Every job goes through the entry point a user would call: in-process
``tracebracket.cli.main(["--json", ...])`` where a CLI command exists,
otherwise the library function, looked up on its module at call time so
that the traced run sees it.  Checks read only the jobs' outputs and the
references in ``oracles.py``; none depends on which colour pair indexes a
crossing's bracket coefficients.
"""
from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import tracebracket
from tracebracket import biquandle as bqmod
from tracebracket import bracket as brmod
from tracebracket import coloring as colmod
from tracebracket import search as searchmod
from tracebracket import trace as trmod
from tracebracket.rings import ModRing

import gen
import oracles

# What each evaluator is called on the command line.  Metrics are named by
# what runs: ``statesum`` runs the full expansion and ``recursive`` the
# parity-stop recursion.
METHOD_FLAGS = {"full": "statesum", "parity_stop": "recursive", "parity": "parity"}

SHIPPED = [("br_laurent", "bq1"), ("br_z7", "bq2")] + [(f"br_z5_{i}", "bq3") for i in (1, 2, 3, 4)]


@dataclass
class Job:
    id: str
    argv: Optional[List[str]] = None             # CLI job
    call: Optional[Callable[[], object]] = None  # library job
    info: dict = field(default_factory=dict)     # what its check needs


@dataclass
class Workload:
    jobs: List[Job]
    # the part of a CLI job's JSON "result" that the check reads
    summarize: Callable[[dict], object]
    # job id -> summary (CLI) or value (library) for the jobs that ran;
    # returns job id -> what failed, for the jobs whose output is wrong
    check: Callable[[Dict[str, object]], Dict[str, dict]]
    # coefficient tables for the rings measurement, given the summaries
    ring_tables: Callable[[Dict[str, object]], List[Tuple[tuple, tuple]]]


class Files:
    """Input files of one run, written under its work directory."""

    def __init__(self, root: Path):
        self.root = root
        self.bq: Dict[str, bqmod.Biquandle] = {}
        self.bq_path: Dict[str, str] = {}
        self.br: Dict[str, brmod.BiquandleBracket] = {}
        self.br_path: Dict[str, str] = {}

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        return str(path)

    def biquandle(self, spec: str) -> Tuple[bqmod.Biquandle, str]:
        """(biquandle, CLI argument) for a shipped fixture name, whose file
        is written on first use, or an inline spec such as trivial(2)."""
        if not spec.startswith("bq"):
            return bqmod.biquandle_from_spec(spec), spec
        if spec not in self.bq:
            bq = bqmod.parse_biquandle(tracebracket.fixture_text(f"{spec}.txt"))
            self.bq[spec] = bq
            self.bq_path[spec] = self.write(f"{spec}.txt", bqmod.serialize_biquandle(bq))
        return self.bq[spec], self.bq_path[spec]

    def shipped(self) -> None:
        """Write every shipped (biquandle, bracket) pair."""
        for br_name, bq_name in SHIPPED:
            bq, _path = self.biquandle(bq_name)
            beta = brmod.parse_bracket(tracebracket.fixture_text(f"{br_name}.txt"), bq)
            self.br[br_name] = beta
            self.br_path[br_name] = self.write(f"{br_name}.txt", gen.bracket_file_text(beta))


def table_key(beta) -> str:
    """A bracket's coefficient rows as one string, ``[A|B]`` rows joined by '/'."""
    return "/".join(brmod.serialize_bracket(beta).splitlines()[1:])


# ---------------------------------------------------------------------------
# invariant: bracket multisets over Reidemeister-equivalence classes
# ---------------------------------------------------------------------------

# (strands, crossings of the base word) per class, two classes at each of
# the larger sizes; variants add up to two crossings.  Bases close to knots,
# so a class's coloring count, and the run's cost, varies little by seed.
INVARIANT_CLASSES = [(2, 5), (2, 7), (2, 7), (3, 4), (3, 6), (3, 6)]


def build_invariant(seed: int, files: Files) -> Workload:
    rng = random.Random(seed)
    files.shipped()
    jobs = []
    for br_name, bq_name in SHIPPED:
        for k, (strands, c) in enumerate(INVARIANT_CLASSES):
            word = ()
            while not gen.closes_to_knot(word, strands):
                word = (gen.random_word(rng, strands, c) if strands == 2
                        else gen.with_riii_site(rng, strands, c))
            cls = f"{br_name}/{k}"
            for variant, w, n in gen.equivalence_class(word, strands, rng):
                d = gen.braid_closure(w, n)
                path = files.write(f"{br_name}-{k}-{variant}.dgm", gen.dgmod.serialize_diagram(d))
                jobs.append(Job(f"invariant/{cls}/{variant}",
                                argv=["--json", "invariant", path, files.bq_path[bq_name],
                                      files.br_path[br_name]],
                                info={"class": cls, "variant": variant, "bracket": br_name,
                                      "bq": files.bq[bq_name], "word": w, "strands": n}))

    def check(outcomes):
        failures = {}
        classes = defaultdict(list)
        for job in jobs:
            classes[job.info["class"]].append(job)
        for members in classes.values():
            base = members[0]
            expected_total = oracles.braid_coloring_count(
                base.info["bq"], base.info["word"], base.info["strands"])
            reference = outcomes.get(base.id)
            for job in members:
                got = outcomes.get(job.id)
                attrs = {"bracket": job.info["bracket"], "variant": job.info["variant"]}
                if got is None:
                    continue
                if reference is None:
                    failures[job.id] = {"check": "class_multiset", **attrs}
                elif sum(got.values()) != expected_total:
                    failures[job.id] = {"check": "multiplicity", **attrs}
                elif got != reference:
                    failures[job.id] = {"check": "class_multiset", **attrs}
        return failures

    def ring_tables(_outcomes):
        return [(beta.A, beta.B) for beta in files.br.values()]

    return Workload(jobs, lambda result: result["multiset"], check, ring_tables)


# ---------------------------------------------------------------------------
# count: coloring enumeration over Alexander biquandles
# ---------------------------------------------------------------------------

# ((p, t, s), strands) slots; the job's crossing count cycles through 8..23.
# Strand counts shrink as p grows: enumeration can branch p^strands ways.
# Knots from balanced words keep coloring counts, output sizes and hence the
# cost of a job set steady across seeds.
COUNT_SLOTS = [((13, 2, 5), 3), ((11, 2, 3), 3), ((7, 3, 2), 4), ((5, 2, 3), 5), ((3, 1, 2), 5)]
COUNT_JOBS = 255


def build_count(seed: int, files: Files) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for i in range(COUNT_JOBS):
        (p, t, s), strands = COUNT_SLOTS[i % len(COUNT_SLOTS)]
        c = 8 + (strands - 1) % 2 + 2 * ((i // len(COUNT_SLOTS)) % 8)
        word = gen.balanced_word(rng, strands, c)
        while not gen.closes_to_knot(word, strands):
            word = gen.balanced_word(rng, strands, c)
        d = gen.braid_closure(word, strands)
        path = files.write(f"count-{i}.dgm", gen.dgmod.serialize_diagram(d))
        jobs.append(Job(f"count/{i}", argv=["--json", "colorings", path, f"alexander({p},{t},{s})"],
                        info={"diagram": d, "pts": (p, t, s)}))

    def check(outcomes):
        failures = {}
        for job in jobs:
            if job.id not in outcomes:
                continue
            count, distinct = outcomes[job.id]
            expected = oracles.alexander_kernel_count(job.info["diagram"], *job.info["pts"])
            if count != expected or distinct != expected:
                failures[job.id] = {"check": "kernel_count", "p": job.info["pts"][0]}
        return failures

    def summarize(result):
        return result["count"], len({tuple(col) for col in result["colorings"]})

    return Workload(jobs, summarize, check, lambda _outcomes: [])


# ---------------------------------------------------------------------------
# search: bracket search over Z_n
# ---------------------------------------------------------------------------

# Fixed; the seed only shuffles the order.  Left out for run time, so that a
# run holds three rounds: bq2 over Z9 and Z11 (10 s together) and
# alexander(3,2,1)/Z5 (1.1 s, the same kind of search as alexander(3,1,2)/Z5).
SEARCH_LIST = ([("bq1", p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
               + [("bq2", n) for n in (3, 4, 5, 6, 7, 8, 10)]
               + [("trivial(2)", 5), ("alexander(3,1,2)", 5), ("bq3", 3), ("bq3", 4)])
BRUTE_FORCE_CAP = 5000      # unit-table pairs the oracle may enumerate


def build_search(seed: int, files: Files) -> Workload:
    rng = random.Random(seed)
    order = list(SEARCH_LIST)
    rng.shuffle(order)
    jobs = []
    for spec, n in order:
        bq, arg = files.biquandle(spec)
        jobs.append(Job(f"search/{spec}/Z{n}", argv=["--json", "search", arg, "--mod", str(n)],
                        info={"bq": bq, "spec": spec, "mod": n}))

    def check(outcomes):
        failures = {}
        for job in jobs:
            if job.id not in outcomes:
                continue
            problem = _search_problem(job.info["bq"], job.info["mod"], outcomes[job.id])
            if problem:
                failures[job.id] = {"check": problem, "biquandle": job.info["spec"],
                                    "mod": job.info["mod"]}
        return failures

    def summarize(result):
        return result["count"], [(tuple(tuple(int(v) for v in row) for row in b["A"]),
                                  tuple(tuple(int(v) for v in row) for row in b["B"]),
                                  b["class"], b["passthrough"]) for b in result["brackets"]]

    def ring_tables(outcomes):
        tables = []
        for job in jobs:
            ring = ModRing(job.info["mod"])
            for A, B, _cls, _pt in outcomes.get(job.id, (0, []))[1][:4]:
                tables.append(tuple(tuple(tuple(ring.element(v) for v in row) for row in t)
                                    for t in (A, B)))
        return tables

    return Workload(jobs, summarize, check, ring_tables)


def _search_problem(bq, n: int, summary) -> Optional[str]:
    count, brackets = summary
    ring = ModRing(n)
    keys = []
    for A, B, label, passthrough in brackets:
        check = brmod.verify_bracket(bq, ring, [[ring.element(v) for v in r] for r in A],
                                     [[ring.element(v) for v in r] for r in B])
        if not check.ok:
            return "verify"
        cls = brmod.classify_adequacy(check.bracket)
        if (cls.label(), cls.passthrough) != (label, passthrough):
            return "classify"
        keys.append(oracles.emission_key(A, B, n))
    if count != len(keys):
        return "count"
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "order"
    units = sum(1 for _ in ring.units())
    if units ** (2 * bq.n * bq.n) <= BRUTE_FORCE_CAP:
        brute = {searchmod.bracket_key(beta) for beta in searchmod.brute_force_brackets(bq, n)}
        if brute != {(A, B) for A, B, _label, _passthrough in brackets}:
            return "brute_force"
    return None


# ---------------------------------------------------------------------------
# trace: trace-diagram evaluation and trace-move checks
# ---------------------------------------------------------------------------

# crossings of each diagram, two diagrams per size and bracket; the number
# of crossings replaced by traces cycles through 1..3, so each run expands
# the same number of states
EVAL_CROSSINGS = [6, 8, 10, 12] * 2
# (biquandle, modulus, how many of the emitted brackets the move checks take)
MOVE_SOURCES = [("bq2", 5, 24), ("bq3", 3, 8), ("alexander(3,1,2)", 3, 16), ("bq3", 4, 12)]


def _trace_file(rng, bq, c: int, n_traces: int, parity: bool):
    """A coloured closure with ``n_traces`` crossings made traces, whose
    parity evaluator applies iff ``parity`` (given up on after 40 draws)."""
    for _ in range(40):
        strands = rng.choice((2, 3))
        d = gen.braid_closure(gen.random_word(rng, strands, c), strands)
        coloring = rng.choice(colmod.enumerate_colorings(d, bq))
        traces = {i: rng.choice("AB") for i in rng.sample(range(c), n_traces)}
        text = gen.trace_file_text(d, bq, coloring, traces)
        applies = trmod.parity_applicable(trmod.parse_trace_diagram(text, bq)[0])
        if applies == parity:
            break
    return text, applies


def stratified_sample(items: list, key, k: int) -> list:
    """``k`` items, each stratum (value of ``key``) getting its proportional
    share by largest remainder, evenly spaced within the stratum.  The pick
    does not depend on the seed: the cost of move checks varies with the
    bracket, and a seeded pick would make run time vary with the seed."""
    strata = defaultdict(list)
    for item in items:
        strata[key(item)].append(item)
    exact = {s: k * len(v) / len(items) for s, v in strata.items()}
    shares = {s: int(x) for s, x in exact.items()}
    for s in sorted(exact, key=lambda s: (shares[s] - exact[s], str(s)))[:k - sum(shares.values())]:
        shares[s] += 1
    return [strata[s][int((i + 0.5) * len(strata[s]) / shares[s])]
            for s in sorted(strata, key=str) for i in range(shares[s])]


def build_trace(seed: int, files: Files) -> Workload:
    rng = random.Random(seed)
    files.shipped()
    jobs = []
    for b, (br_name, bq_name) in enumerate(SHIPPED[1:]):
        for j, c in enumerate(EVAL_CROSSINGS):
            text, applies = _trace_file(rng, files.bq[bq_name], c, 1 + (b + j) % 3,
                                        parity=(b + j) % 2 == 0)
            path = files.write(f"{br_name}-{j}.tdg", text)
            for method in ["full", "parity_stop"] + (["parity"] if applies else []):
                jobs.append(Job(f"eval/{br_name}/{j}/{method}",
                                argv=["--json", "eval-trace", path, files.bq_path[bq_name],
                                      files.br_path[br_name], "--method", METHOD_FLAGS[method]],
                                info={"file": path, "method": method}))

    subjects = [(bq_name, files.bq[bq_name], files.br[br_name]) for br_name, bq_name in SHIPPED]
    for spec, n, k in MOVE_SOURCES:
        bq, _arg = files.biquandle(spec)
        emitted = list(searchmod.search_brackets(bq, n))
        picked = stratified_sample(emitted, lambda e: (e[1].label(), e[1].passthrough), k)
        for j, (beta, _cls) in enumerate(picked):
            text = gen.bracket_file_text(beta)
            name = f"{spec}-Z{n}-{j}.txt".replace("(", "_").replace(")", "").replace(",", "_")
            files.write(name, text)
            subjects.append((f"{spec}/Z{n}", bq, brmod.parse_bracket(text, bq)))
    for label, bq, beta in subjects:
        key = table_key(beta)
        info = {"beta": beta, "biquandle": label, "bracket": key}
        jobs.append(Job(f"move/adequacy/{label}/{key}",
                        call=lambda bq=bq, beta=beta: trmod.diagrammatic_adequacy(bq, beta),
                        info={**info, "check": "adequacy"}))
        jobs.append(Job(f"move/passthrough/{label}/{key}",
                        call=lambda bq=bq, beta=beta: trmod.diagrammatic_passthrough(bq, beta),
                        info={**info, "check": "passthrough"}))

    def check(outcomes):
        failures = {}
        by_file = defaultdict(list)
        for job in jobs:
            if job.argv is not None:
                by_file[job.info["file"]].append(job)
                continue
            if job.id not in outcomes:
                continue
            cls = brmod.classify_adequacy(job.info["beta"])
            expected = ((cls.over_adequate, cls.under_adequate)
                        if job.info["check"] == "adequacy" else cls.passthrough)
            got = outcomes[job.id]
            if (tuple(got) if isinstance(got, tuple) else got) != expected:
                failures[job.id] = {"check": job.info["check"], "biquandle": job.info["biquandle"],
                                    "bracket": job.info["bracket"]}
        for group in by_file.values():
            values = {outcomes[job.id] for job in group if job.id in outcomes}
            if len(values) > 1:
                for job in group:
                    failures[job.id] = {"check": "methods_agree", "method": job.info["method"]}
        return failures

    def ring_tables(_outcomes):
        return [(beta.A, beta.B) for _label, _bq, beta in subjects]

    return Workload(jobs, lambda result: result["value"], check, ring_tables)


BUILDERS = {"invariant": build_invariant, "count": build_count,
            "search": build_search, "trace": build_trace}
