#!/usr/bin/env python3
"""Validate owl stats exports, and pin their solver counters.

Understands the owl.obs.v1 (counters + span forest + meta) and
owl.obs.v2 (v1 plus histograms, open_spans and per-span lanes)
schemas, dispatched on the document's "schema" key.

Usage:
  check_stats_schema.py FILE [options]
      Validate an already-emitted stats file (schema only). A document
      owl itself wrote (meta tool "owl") must also record nproc,
      build_type, obs_enabled and sanitizers in its meta.
  check_stats_schema.py --owl PATH/TO/owl [--write-golden]
      Run a fixed list of owl commands with --stats-json (synth,
      verify, lint, fuzz and serve on small designs) and validate each
      document: the schema, the spans and counters the run must book,
      and per-run consistency checks. Then compare every run's tracked
      counters and histograms (TRACKED_COUNTERS, TRACKED_HISTOGRAMS)
      exactly against the committed golden, tests/stats_golden.json,
      keyed by the owl argument list. This is the form wired into CTest
      (`ctest -R check_stats_schema`). Timing is not checked here;
      perfbench (BENCHMARK.json) owns it.

      --write-golden re-records the golden from this run instead of
      comparing against it. Do that only when a change is meant to move
      the search (a different CNF, a different counterexample order),
      and say so in the change's notes.

Options:
  --require-span NAME             fail unless a span named NAME exists
                                  (repeatable)
  --require-nonzero-counter NAME  fail unless counter NAME > 0
                                  (repeatable)
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

OBS_SCHEMAS = ("owl.obs.v1", "owl.obs.v2")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "stats_golden.json")

# What the golden pins, exactly, on every --owl run that books any of
# it. All of it is deterministic for the runs below: synthesis is
# canonicalized (DESIGN.md §5), verification sums per-instruction
# queries whatever the worker count, serve runs one session, and a
# fixed-seed fuzz session is fully reproducible. The families are
# search effort, lazy Ackermann refinement (DESIGN.md §14), the CNF
# simplifier's rewrites, serve cache and pool accounting, and the fuzz
# generator, oracles and reducer.
TRACKED_COUNTERS = (
    "sat.conflicts", "sat.propagations", "sat.decisions",
    "sat.learned_clauses", "cegis.iterations", "cegis.counterexamples",
    "smt.checks", "smt.ackermann_constraints",
    "smt.ackermann.lemmas",
    "smt.ackermann.rounds", "smt.ackermann.scans",
    "smt.ackermann.pair_bound",
    "sat.preprocess.rounds", "sat.preprocess.vars_eliminated",
    "sat.preprocess.pure_literals", "sat.preprocess.clauses_subsumed",
    "sat.preprocess.clauses_strengthened",
    "sat.preprocess.resolvents_added", "sat.preprocess.clauses_deleted",
    "serve.requests", "serve.instr_queries", "serve.cache.hits",
    "serve.cache.misses", "serve.cache.insertions",
    "serve.sessions.created", "serve.sessions.reused",
    "fuzz.runs", "fuzz.divergences", "fuzz.reduce.steps",
    "fuzz.oracle.roundtrip", "fuzz.oracle.preprocess",
    "fuzz.oracle.incremental", "fuzz.oracle.ackermann",
    "fuzz.oracle.cosim",
)

TRACKED_HISTOGRAMS = (
    "smt.query_conflicts", "smt.query_ackermann", "smt.query_ack_rounds",
    "cegis.instr_ackermann", "sat.lbd",
)

HISTOGRAM_KEYS = ("count", "sum", "min", "max")


class SchemaError(Exception):
    pass


def fail(path, msg):
    raise SchemaError("%s: %s" % (path, msg))


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_span(span, path, v2):
    if not isinstance(span, dict):
        fail(path, "span is not an object")
    for key, typ in (("name", str), ("start_ns", int), ("dur_ns", int)):
        if key not in span:
            fail(path, "span missing required key %r" % key)
        if not isinstance(span[key], typ) or isinstance(span[key], bool):
            fail(path, "span key %r must be %s" % (key, typ.__name__))
    if span["start_ns"] < 0 or span["dur_ns"] < 0:
        fail(path, "span times must be non-negative")
    if v2:
        if "lane" not in span:
            fail(path, "v2 span missing required key 'lane'")
        if not is_uint(span["lane"]):
            fail(path, "span lane must be a non-negative integer")
    attrs = span.get("attrs", {})
    if not isinstance(attrs, dict):
        fail(path, "attrs must be an object")
    for k, v in attrs.items():
        if not isinstance(k, str):
            fail(path, "attr key %r must be a string" % (k,))
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            fail(path, "attr %r must be a number or string" % k)
    children = span.get("children", [])
    if not isinstance(children, list):
        fail(path, "children must be an array")
    for i, child in enumerate(children):
        check_span(child, "%s/children[%d]" % (path, i), v2)


SIMPLIFY_PHASE_ATTRS = ("cleanup_ns", "subsume_ns", "eliminate_ns",
                        "rebuild_probe_ns")


def iter_spans(spans, path):
    todo = [(s, "%s[%d]" % (path, i)) for i, s in enumerate(spans)]
    while todo:
        s, p = todo.pop()
        yield s, p
        todo.extend((c, "%s/children[%d]" % (p, i))
                    for i, c in enumerate(s.get("children", [])))


def check_simplify_phases(spans, require):
    """A sat.simplify span times its four phases in nanoseconds; the
    phases run back to back inside the span, so their sum can never
    exceed its duration. With `require`, every such span must carry
    them (exports from this tree); otherwise they are checked only
    where present."""
    for span, path in iter_spans(spans, "$/spans"):
        if span["name"] != "sat.simplify":
            continue
        attrs = span.get("attrs", {})
        present = [k for k in SIMPLIFY_PHASE_ATTRS if k in attrs]
        if not present and not require:
            continue
        total = 0
        for k in SIMPLIFY_PHASE_ATTRS:
            if not is_uint(attrs.get(k)):
                fail(path, "sat.simplify span needs a non-negative "
                           "integer attr %r" % k)
            total += attrs[k]
        if total > span["dur_ns"]:
            fail(path, "sat.simplify phases sum to %d ns, more than "
                       "the span's %d ns" % (total, span["dur_ns"]))


def check_spec_compile_spans(spans):
    """A spec.compile span books its compiler's memo: ila_nodes, the
    distinct ILA nodes the compiler has translated so far (at least the
    root it was asked for), and memo_hits, the translations this call
    answered from the memo."""
    for span, path in iter_spans(spans, "$/spans"):
        if span["name"] != "spec.compile":
            continue
        attrs = span.get("attrs", {})
        nodes = attrs.get("ila_nodes")
        if not is_uint(nodes) or nodes < 1:
            fail(path, "spec.compile span needs an integer attr "
                       "'ila_nodes' >= 1, got %r" % (nodes,))
        if not is_uint(attrs.get("memo_hits")):
            fail(path, "spec.compile span needs a non-negative integer "
                       "attr 'memo_hits', got %r"
                 % (attrs.get("memo_hits"),))


def check_verify_instr_spans(doc):
    """verifyDesign books one verify.instr child per instruction, in
    parallel runs too (worker spans are adopted by the dispatching
    span), each naming its instruction and its solver verdict, and a
    jobs attr with the worker count it used."""
    seen = 0
    for span, path in iter_spans(doc["spans"], "$/spans"):
        if span["name"] != "verifyDesign":
            continue
        seen += 1
        attrs = span.get("attrs", {})
        if not is_uint(attrs.get("jobs")) or attrs["jobs"] < 1:
            fail(path, "verifyDesign span needs an integer attr 'jobs' "
                       ">= 1, got %r" % (attrs.get("jobs"),))
        instrs = [c for c in span.get("children", [])
                  if c["name"] == "verify.instr"]
        if len(instrs) != attrs.get("instrs"):
            fail(path, "%d verify.instr children, but the span's instrs "
                       "attr is %r" % (len(instrs), attrs.get("instrs")))
        for c in instrs:
            a = c.get("attrs", {})
            if not isinstance(a.get("instr"), str) or \
                    a.get("result") not in ("sat", "unsat", "unknown"):
                fail(path, "verify.instr span needs a string 'instr' and "
                           "a 'result' of sat/unsat/unknown, got %r" % (a,))
    if seen == 0:
        fail("$/spans", "no verifyDesign span")


def span_names(spans):
    names = set()
    todo = list(spans)
    while todo:
        s = todo.pop()
        names.add(s["name"])
        todo.extend(s.get("children", []))
    return names


def check_histogram(name, h, path):
    if not isinstance(h, dict):
        fail(path, "histogram %r is not an object" % name)
    for key in ("count", "sum", "min", "max"):
        if key not in h:
            fail(path, "histogram %r missing key %r" % (name, key))
        if not is_uint(h[key]):
            fail(path, "histogram %r key %r must be a non-negative "
                       "integer" % (name, key))
    buckets = h.get("buckets")
    if not isinstance(buckets, dict):
        fail(path, "histogram %r buckets missing or not an object" % name)
    total = 0
    for idx, n in buckets.items():
        if not isinstance(idx, str) or not idx.isdigit():
            fail(path, "histogram %r bucket key %r must be a decimal "
                       "string" % (name, idx))
        if not is_uint(n):
            fail(path, "histogram %r bucket %s must be a non-negative "
                       "integer" % (name, idx))
        if int(idx) >= 64:
            fail(path, "histogram %r bucket index %s out of range"
                 % (name, idx))
        total += n
    if total != h["count"]:
        fail(path, "histogram %r bucket total %d != count %d"
             % (name, total, h["count"]))
    if h["count"] > 0 and h["min"] > h["max"]:
        fail(path, "histogram %r has min > max" % name)


# What an `owl` document's meta must say about the run beyond its
# command, so a number read off it later can be told apart by machine
# and build: CPUs available, CMake build type, obs compiled in ("0" or
# "1"), sanitizers ("none" or a comma list).
OWL_META_KEYS = ("nproc", "build_type", "obs_enabled", "sanitizers")


def check_owl_meta(meta):
    for k in OWL_META_KEYS:
        if not meta.get(k):
            fail("$/meta/%s" % k, "owl document must record %s" % k)
    if not meta["nproc"].isdigit() or int(meta["nproc"]) < 1:
        fail("$/meta/nproc", "must be a positive integer, got %r"
             % meta["nproc"])
    if meta["obs_enabled"] not in ("0", "1"):
        fail("$/meta/obs_enabled", "must be \"0\" or \"1\", got %r"
             % meta["obs_enabled"])


def validate_obs(doc):
    schema = doc.get("schema")
    v2 = schema == "owl.obs.v2"
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail("$/counters", "missing or not an object")
    for name, value in counters.items():
        if not isinstance(name, str):
            fail("$/counters", "counter key %r must be a string" % (name,))
        if not is_uint(value):
            fail("$/counters/%s" % name,
                 "counter must be a non-negative integer, got %r" % (value,))
    spans = doc.get("spans")
    if not isinstance(spans, list):
        fail("$/spans", "missing or not an array")
    for i, span in enumerate(spans):
        check_span(span, "$/spans[%d]" % i, v2)
    check_simplify_phases(spans, require=False)
    check_spec_compile_spans(spans)
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        fail("$/meta", "must be an object")
    for k, v in meta.items():
        if not isinstance(k, str) or not isinstance(v, str):
            fail("$/meta", "meta entries must be string -> string")
    if meta.get("tool") == "owl":
        check_owl_meta(meta)
    if v2:
        histograms = doc.get("histograms")
        if not isinstance(histograms, dict):
            fail("$/histograms", "v2 document missing histograms object")
        for name, h in histograms.items():
            check_histogram(name, h, "$/histograms/%s" % name)
        if not is_uint(doc.get("open_spans", -1)):
            fail("$/open_spans",
                 "v2 document missing non-negative open_spans")


def validate(doc):
    if not isinstance(doc, dict):
        fail("$", "document is not an object")
    schema = doc.get("schema")
    if schema not in OBS_SCHEMAS:
        fail("$/schema", "expected one of %r, got %r"
             % (OBS_SCHEMAS, schema))
    validate_obs(doc)


def check_requirements(doc, require_spans, require_nonzero):
    names = span_names(doc["spans"])
    for name in require_spans:
        if name not in names:
            fail("$/spans", "required span %r not found (have: %s)"
                 % (name, ", ".join(sorted(names)) or "<none>"))
    for name in require_nonzero:
        value = doc["counters"].get(name, 0)
        if value <= 0:
            fail("$/counters/%s" % name,
                 "required nonzero counter is %r" % (value,))


def run_owl(owl_bin, owl_args):
    """Run one owl command from the repository root (file arguments are
    repository paths) with --stats-json and return the stats path.
    OWL_JOBS is dropped: it picks the synthesis strategy, so the
    argument list alone must say how a run is made."""
    fd, path = tempfile.mkstemp(prefix="owl_stats_", suffix=".json")
    os.close(fd)
    cmd = [owl_bin] + owl_args + ["--stats-json", path]
    env = dict(os.environ, OWL_OBS="1")
    env.pop("OWL_JOBS", None)
    proc = subprocess.run(cmd, env=env, cwd=REPO, capture_output=True,
                          text=True, timeout=240)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SchemaError("%s exited with %d" % (" ".join(cmd),
                                                 proc.returncode))
    return path


def check_proof_coverage(doc):
    """Under --check-proofs every Unsat is accounted for: replayed
    through the DRAT checker, refuted at the term level, or — in an
    incremental session — Unsat only under the activation-literal
    assumptions (no formula refutation, so no proof obligation)."""
    counters = doc["counters"]
    checked = counters.get("drat.proofs_checked", 0)
    trivial = counters.get("drat.unsat_trivial", 0)
    conditional = counters.get("drat.unsat_conditional", 0)
    if checked + trivial + conditional <= 0:
        fail("$/counters",
             "--check-proofs run recorded no proof activity "
             "(drat.proofs_checked=%d, drat.unsat_trivial=%d, "
             "drat.unsat_conditional=%d)"
             % (checked, trivial, conditional))
    if checked > 0 and counters.get("drat.proof_steps", 0) <= 0:
        fail("$/counters/drat.proof_steps",
             "proofs were checked but no steps were counted")


def check_serve_stats(doc):
    """A serve batch run books the full serve counter family. The
    cache must balance: every per-instruction query is exactly one
    hit or one miss, and every miss that synthesized OK inserted."""
    counters = doc["counters"]
    for name in ("serve.requests", "serve.instr_queries",
                 "serve.cache.hits", "serve.cache.misses",
                 "serve.cache.bytes", "serve.cache.insertions",
                 "serve.cache.evictions", "serve.sessions.created",
                 "serve.sessions.reused", "serve.spans_abandoned",
                 "serve.queue.rejected"):
        if name not in counters:
            fail("$/counters", "serve run missing counter %r" % name)
    hits = counters["serve.cache.hits"]
    misses = counters["serve.cache.misses"]
    queries = counters["serve.instr_queries"]
    if hits + misses != queries:
        fail("$/counters",
             "cache accounting broken: hits %d + misses %d != "
             "serve.instr_queries %d" % (hits, misses, queries))
    if counters["serve.cache.insertions"] > misses:
        fail("$/counters/serve.cache.insertions",
             "more insertions (%d) than misses (%d)"
             % (counters["serve.cache.insertions"], misses))


PREPROCESS_COUNTERS = (
    "sat.preprocess.rounds",
    "sat.preprocess.vars_eliminated",
    "sat.preprocess.pure_literals",
    "sat.preprocess.clauses_subsumed",
    "sat.preprocess.clauses_strengthened",
    "sat.preprocess.failed_literals",
    "sat.preprocess.resolvents_added",
    "sat.preprocess.clauses_deleted",
    "sat.preprocess.vars_total",
)


def check_preprocess_stats(doc):
    """A default (preprocessing-on) synthesis run exports the full
    sat.preprocess.* family, and the counters are internally
    consistent: the simplifier cannot eliminate more variables than
    the solvers ever allocated, and every round's phase times fit
    inside its span."""
    counters = doc["counters"]
    for name in PREPROCESS_COUNTERS:
        if name not in counters:
            fail("$/counters", "preprocess run missing counter %r" % name)
    eliminated = counters["sat.preprocess.vars_eliminated"]
    total = counters["sat.preprocess.vars_total"]
    if eliminated > total:
        fail("$/counters/sat.preprocess.vars_eliminated",
             "eliminated %d variables but only %d were ever created"
             % (eliminated, total))
    if counters["sat.preprocess.rounds"] <= 0:
        fail("$/counters/sat.preprocess.rounds",
             "preprocessing enabled but no simplification round ran")
    check_simplify_phases(doc["spans"], require=True)


def check_no_preprocess_stats(doc):
    """--no-preprocess must really disable the pass: no round runs and
    no rewrite is booked."""
    for name, value in doc["counters"].items():
        if name.startswith("sat.preprocess.") and value != 0:
            fail("$/counters/%s" % name,
                 "--no-preprocess run booked preprocessing work (%d)"
                 % value)


def check_ackermann_stats(doc):
    """The lazy Ackermann accounting is internally consistent on any
    run: lemmas are instantiated pairs, so they can never exceed the
    registered pair bound; every lemma batch came from a model scan
    of some refinement round, so lemmas > 0 implies rounds > 0 and
    rounds can never exceed scans (a scan either instantiates a batch
    or ends the loop)."""
    counters = doc["counters"]
    # Counters only materialise once touched: an eager run books the
    # pair bound but never the lazy refinement counters.
    lemmas = counters.get("smt.ackermann.lemmas", 0)
    pair_bound = counters.get("smt.ackermann.pair_bound", 0)
    rounds = counters.get("smt.ackermann.rounds", 0)
    scans = counters.get("smt.ackermann.scans", 0)
    if lemmas > pair_bound:
        fail("$/counters/smt.ackermann.lemmas",
             "instantiated %d lemmas but only %d same-memory pairs "
             "were ever registered" % (lemmas, pair_bound))
    if lemmas > 0 and rounds <= 0:
        fail("$/counters/smt.ackermann.rounds",
             "%d lemmas were instantiated without any refinement "
             "round" % lemmas)
    if rounds > scans:
        fail("$/counters/smt.ackermann.rounds",
             "more refinement rounds (%d) than model scans (%d)"
             % (rounds, scans))


def check_eager_ackermann_stats(doc):
    """--eager-ackermann restores the full up-front pair expansion:
    congruences are asserted but the lazy machinery stays silent."""
    counters = doc["counters"]
    if counters.get("smt.ackermann_constraints", 0) <= 0:
        fail("$/counters/smt.ackermann_constraints",
             "--eager-ackermann on a memory-bearing design asserted "
             "no congruence")
    for name in ("smt.ackermann.lemmas", "smt.ackermann.rounds",
                 "smt.ackermann.scans"):
        if counters.get(name, 0) != 0:
            fail("$/counters/%s" % name,
                 "--eager-ackermann run booked lazy refinement work "
                 "(%d)" % counters[name])


def check_fuzz_stats(doc):
    """A fuzzing session books the fuzz.* counter family, and the
    accounting is internally consistent: every run arms every oracle
    exactly once on this all-clean corpus (divergent runs short-
    circuit, but the CI seed range is required to be clean), and a
    clean session books no divergences."""
    counters = doc["counters"]
    for name in ("fuzz.runs", "fuzz.oracle.roundtrip",
                 "fuzz.oracle.preprocess", "fuzz.oracle.incremental",
                 "fuzz.oracle.ackermann", "fuzz.oracle.cosim"):
        if name not in counters:
            fail("$/counters", "fuzz run missing counter %r" % name)
    runs = counters["fuzz.runs"]
    if runs <= 0:
        fail("$/counters/fuzz.runs", "fuzz session recorded no runs")
    for name in ("fuzz.oracle.roundtrip", "fuzz.oracle.preprocess",
                 "fuzz.oracle.incremental", "fuzz.oracle.ackermann",
                 "fuzz.oracle.cosim"):
        if counters[name] != runs:
            fail("$/counters/%s" % name,
                 "oracle armed %d times over %d runs (expected every "
                 "run on a clean corpus)" % (counters[name], runs))
    if counters.get("fuzz.divergences", 0) != 0:
        fail("$/counters/fuzz.divergences",
             "CI fuzz session found %d divergence(s)"
             % counters["fuzz.divergences"])


BITBLAST_COUNTERS = ("smt.bitblast.gates", "smt.bitblast.strash_hits")


def check_bitblast_counters(doc):
    """Every run that bit-blasts books the gate-table counters."""
    for name in BITBLAST_COUNTERS:
        if name not in doc["counters"]:
            fail("$/counters", "run missing counter %r" % name)


def check_bitblast_accounting(doc):
    """Every gate the blaster makes or reuses is booked on an
    smt.bitblast span: the spans' gates / strash_hits attrs add up to
    the counters."""
    for name in BITBLAST_COUNTERS:
        attr = name[len("smt.bitblast."):]
        value = doc["counters"].get(name, 0)
        booked = sum(span.get("attrs", {}).get(attr, 0)
                     for span, _ in iter_spans(doc["spans"], "$/spans")
                     if span["name"] == "smt.bitblast")
        if booked != value:
            fail("$/counters/%s" % name,
                 "smt.bitblast spans book %s=%d, counter says %d"
                 % (attr, booked, value))


def check_query_histograms(doc):
    """A v2 synthesis run records the per-query histograms: one
    smt.query_ns / smt.query_conflicts sample per SMT check, one
    cegis.instr_ackermann sample per instruction, and one
    smt.query_ack_rounds sample per SMT check (0 on eager or
    congruence-clean queries)."""
    hists = doc.get("histograms", {})
    checks = doc["counters"].get("smt.checks", 0)
    instrs = doc["counters"].get("cegis.instructions", 0)
    for name, expect in (("smt.query_ns", checks),
                         ("smt.query_conflicts", checks),
                         ("smt.query_ack_rounds", checks),
                         ("cegis.instr_ackermann", instrs)):
        h = hists.get(name)
        if h is None:
            fail("$/histograms", "missing %r" % name)
        if h["count"] != expect:
            fail("$/histograms/%s" % name,
                 "count %d != expected %d samples" % (h["count"], expect))


def tracked(doc):
    """The golden's view of one run: every tracked counter it booked,
    and count/sum/min/max of every tracked histogram it recorded."""
    hists = doc.get("histograms", {})
    return {
        "counters": {name: doc["counters"][name]
                     for name in TRACKED_COUNTERS
                     if name in doc["counters"]},
        "histograms": {name: {key: hists[name][key]
                              for key in HISTOGRAM_KEYS}
                       for name in TRACKED_HISTOGRAMS if name in hists},
    }


def check_golden(key, view, golden):
    """The run's tracked view must equal its golden entry exactly: the
    same counters and histograms present, with the same values. A run
    that tracks nothing (lint) has no entry."""
    path = "golden[%r]" % key
    if key not in golden:
        if any(view.values()):
            fail(path, "no entry for this run; re-record with "
                       "--write-golden")
        return
    want = golden[key]
    diffs = []
    for section in ("counters", "histograms"):
        have, expect = view[section], want.get(section, {})
        for name in sorted(set(have) | set(expect)):
            if have.get(name) != expect.get(name):
                diffs.append("%s %s is %s, golden %s"
                             % (section[:-1], name,
                                json.dumps(have.get(name)),
                                json.dumps(expect.get(name))))
    if diffs:
        fail(path, "%d mismatch(es): %s" % (len(diffs), "; ".join(diffs)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", help="stats JSON file to validate")
    ap.add_argument("--owl", help="owl binary: run the command list, "
                                  "validate every stats document and "
                                  "compare it with the golden")
    ap.add_argument("--write-golden", action="store_true",
                    help="with --owl: re-record tests/stats_golden.json "
                         "instead of comparing against it")
    ap.add_argument("--require-span", action="append", default=[])
    ap.add_argument("--require-nonzero-counter", action="append",
                    default=[])
    args = ap.parse_args()
    if args.write_golden and not args.owl:
        ap.error("--write-golden needs --owl")

    require_spans = list(args.require_span)
    require_nonzero = list(args.require_nonzero_counter)

    # In --owl mode, a series of end-to-end runs exercise the
    # exporter: synthesis on the default incremental path (with CNF
    # preprocessing), with --no-incremental (fresh solver per
    # iteration), with --no-preprocess (the raw seed behavior) and
    # under --check-proofs, verification, lazy and eager Ackermann,
    # the lint pipeline, two fuzz sessions and a serve batch. Each run
    # has its own required spans/counters on top of the schema check;
    # extra checks run arbitrary doc predicates (proof-coverage
    # accounting, preprocess counter consistency, per-query histogram
    # coverage). Every run but lint then meets its golden entry.
    runs = []
    if args.owl:
        # Default synthesis runs every instruction's synth side as an
        # incremental session; the session counters must show up.
        # (clauses_reused can legitimately be 0 on a design this small
        # — sessions with <= 1 solve carry nothing over — so only
        # solve_calls is required to be nonzero. sat.conflicts and
        # sat.decisions are NOT required: with preprocessing on, a
        # design this small is routinely decided by simplification
        # plus unit propagation alone.)
        runs.append((["synth", "accumulator"],
                     ["cegis", "cegis.iter", "smt.checkSat",
                      "sat.solve", "sat.simplify", "smt.inc.addGroup",
                      "spec.compile"],
                     ["sat.propagations", "cegis.iterations",
                      "cegis.incremental.solve_calls",
                      "sat.preprocess.rounds",
                      "sat.preprocess.vars_eliminated"],
                     [check_query_histograms,
                      check_preprocess_stats, check_bitblast_counters]))
        runs.append((["synth", "accumulator", "--no-incremental"],
                     ["cegis", "cegis.iter", "smt.checkSat",
                      "sat.solve", "spec.compile"],
                     ["sat.propagations", "cegis.iterations"],
                     [check_query_histograms,
                      check_preprocess_stats, check_bitblast_counters]))
        # Verification re-compiles every instruction's conditions
        # against the completed design, inline and on two workers.
        for jobs in ([], ["--jobs", "2"]):
            runs.append((["verify", "accumulator"] + jobs,
                         ["synthesize", "verifyDesign", "mutex_check",
                          "verify.instr", "spec.compile",
                          "smt.checkSat"],
                         ["verify.designs"],
                         [check_verify_instr_spans,
                          check_bitblast_counters]))
        # A real design through synthesis (incremental sessions) and
        # the verification pass (one-shot checkSat): the gate table
        # both makes and reuses gates (nonzero counters), and its spans
        # account for all of it.
        runs.append((["verify", "rv32i-2stage"],
                     ["verify.instr", "smt.bitblast", "smt.inc.addGroup"],
                     ["verify.designs"] + list(BITBLAST_COUNTERS),
                     [check_bitblast_accounting]))
        # The raw path must still behave like the seed: search does
        # real work (nonzero conflicts/decisions) and the preprocess
        # counter family stays silent.
        runs.append((["synth", "accumulator", "--no-preprocess"],
                     ["cegis", "cegis.iter", "smt.checkSat",
                      "sat.solve"],
                     ["sat.conflicts", "sat.propagations",
                      "sat.decisions", "cegis.iterations"],
                     [check_query_histograms,
                      check_no_preprocess_stats, check_bitblast_counters]))
        runs.append((["synth", "accumulator", "--check-proofs"],
                     ["cegis", "smt.checkSat"],
                     [],
                     [check_proof_coverage, check_bitblast_counters]))
        runs.append((["synth", "accumulator", "--profile-sat"],
                     ["cegis", "smt.checkSat", "sat.solve"],
                     ["sat.phase.propagate.calls",
                      "sat.phase.decide.calls"],
                     [check_bitblast_counters]))
        # Lazy Ackermann (the default) on a memory-bearing design:
        # the refinement loop must actually run (nonzero lemmas,
        # rounds, scans) and its accounting must be consistent.
        runs.append((["synth", "alu-machine"],
                     ["cegis", "smt.checkSat", "smt.ackermann",
                      "sat.solve"],
                     ["smt.ackermann.lemmas", "smt.ackermann.rounds",
                      "smt.ackermann.scans",
                      "smt.ackermann.pair_bound",
                      "smt.ackermann_constraints"],
                     [check_ackermann_stats, check_bitblast_counters]))
        # The eager escape hatch: full pair set up front, lazy
        # machinery silent.
        runs.append((["synth", "alu-machine", "--eager-ackermann"],
                     ["cegis", "smt.checkSat", "smt.ackermann",
                      "sat.solve"],
                     ["smt.ackermann_constraints",
                      "smt.ackermann.pair_bound"],
                     [check_ackermann_stats,
                      check_eager_ackermann_stats,
                      check_bitblast_counters]))
        runs.append((["lint", "accumulator"],
                     ["lint.run", "lint.design", "lint.smt",
                      "lint.cnf", "lint.netlist"],
                     ["lint.runs"],
                     []))
        # Differential fuzzing sessions: two deterministic seed ranges
        # through generation, synthesis, and all five oracles. Clean
        # by requirement (exit 0), with the fuzz.* counter family
        # accounting one arming of every oracle per run.
        for seed in ("1", "1000"):
            runs.append((["fuzz", "--seed", seed, "--runs", "25"],
                         ["cegis", "smt.checkSat", "sat.solve"],
                         ["fuzz.runs", "synth.runs", "symeval.runs"],
                         [check_fuzz_stats, check_bitblast_counters]))
        # A serve batch with deliberate duplicates: the repeat jobs
        # must be answered from the content-addressed cache (nonzero
        # hits AND misses), every request gets its own serve.request
        # span, and the counter accounting balances.
        runs.append((["serve", "--batch", "tools/serve_smoke_jobs.json"],
                     ["serve.request", "cegis"],
                     ["serve.requests", "serve.instr_queries",
                      "serve.cache.hits", "serve.cache.misses",
                      "serve.cache.insertions",
                      "serve.sessions.created"],
                     [check_serve_stats, check_bitblast_counters]))
    elif args.file:
        runs.append((None, [], [], []))
    else:
        ap.error("need a FILE or --owl")

    golden = {}
    if args.owl and not args.write_golden:
        with open(GOLDEN) as f:
            golden = json.load(f)
    recorded = {}
    for owl_args, run_spans, run_nonzero, extra_checks in runs:
        if owl_args is not None:
            path = run_owl(os.path.abspath(args.owl), owl_args)
            key = " ".join(owl_args)
            what = "owl " + key
        else:
            path = args.file
            what = path
        try:
            with open(path) as f:
                doc = json.load(f)
            validate(doc)
            check_requirements(doc, require_spans + run_spans,
                               require_nonzero + run_nonzero)
            for check in extra_checks:
                check(doc)
            if owl_args is not None:
                view = tracked(doc)
                if args.write_golden:
                    if any(view.values()):
                        recorded[key] = view
                else:
                    check_golden(key, view, golden)
        except json.JSONDecodeError as e:
            print("FAIL: %s is not valid JSON: %s" % (path, e))
            return 1
        except SchemaError as e:
            print("FAIL: [%s] %s" % (what, e))
            return 1
        finally:
            if owl_args is not None and os.path.exists(path):
                os.unlink(path)
        print("OK: %s conforms to %s (%d counters, %d root spans)"
              % (what, doc["schema"], len(doc["counters"]),
                 len(doc["spans"])))
    if args.write_golden:
        with open(GOLDEN, "w") as f:
            json.dump(recorded, f, indent=1)
            f.write("\n")
        print("wrote %d golden runs to %s" % (len(recorded), GOLDEN))
    elif args.owl:
        made = {" ".join(r[0]) for r in runs}
        missing = sorted(set(golden) - made)
        if missing:
            print("FAIL: golden runs not made: %s" % ", ".join(missing))
            return 1
        print("OK: %d runs match %s exactly" % (len(golden), GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
