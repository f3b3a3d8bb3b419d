/**
 * @file
 * `owl` — the command-line driver for the control logic synthesis
 * toolchain. Wraps the library for the common workflows:
 *
 *   owl list
 *       List the built-in case studies.
 *   owl sketch <design>
 *       Print a design's datapath sketch in Oyster concrete syntax.
 *   owl alpha <design>
 *       Print a design's abstraction function (§3.2 syntax).
 *   owl synth <design> [--mono] [--jobs <n>] [--budget <s>]
 *             [-o out.v]
 *       Synthesize control logic; optionally via the monolithic
 *       Equation (1) query; optionally emit Verilog of the completed
 *       design. `--jobs N` (or the OWL_JOBS environment variable)
 *       runs per-instruction CEGIS tasks on N worker threads.
 *       See DESIGN.md §7 for the determinism contract. Numeric flags
 *       must be whole decimal integers in range; anything else is a
 *       usage error (exit 2).
 *
 * All synthesis commands accept `--stats-json <path>`: on exit the
 * owl::obs registry (CEGIS span tree, SAT/SMT counters, histograms)
 * is exported to the given file in the owl.obs.v2 schema; see
 * DESIGN.md §6 and §10. `--trace-out <path>` exports the same run as
 * a Chrome Trace Event JSON timeline (one lane per worker thread, flow
 * arrows for cross-thread task adoption, counter tracks) loadable in
 * Perfetto / chrome://tracing. `--profile-sat` attributes SAT solve
 * time to CDCL phases (sat.phase.* counters) by stride sampling.
 * OWL_TRACE=cegis,smt enables the structured event log on stderr.
 *   owl control <design>
 *       Synthesize and print just the generated control logic,
 *       PyRTL-style (the Figure 7 view).
 *   owl verify <design> [synth options]
 *       Synthesize, then independently re-verify the completed design
 *       against the specification. `--jobs N` (or OWL_JOBS) also
 *       checks the instructions' verification queries on N threads.
 *   owl lint <design>
 *       Run the static-analysis passes (DESIGN.md §8) over the
 *       design's four IRs — Oyster sketch, SMT term DAG, bit-blasted
 *       CNF, and hole-stubbed netlist — and print every diagnostic.
 *       Exit status 1 if any error-severity finding exists.
 *   owl fuzz [--seed <s>] [--runs <n>] [--out <dir>]
 *            [--replay <file.owl>] [--vectors <v>] [--cycles <c>]
 *            [--no-reduce] [--no-check-proofs] [--verbose]
 *       End-to-end differential fuzzing (DESIGN.md §13): generate
 *       seeded random synthesis problems, drive them through the real
 *       pipeline, and check four oracles — parser/printer round trip,
 *       four-engine co-simulation, --preprocess vs --no-preprocess
 *       hole bit-identity, and incremental vs fresh-session
 *       bit-identity — with DRAT replay on every UNSAT. Divergences
 *       are minimized by the greedy reducer and written to --out as
 *       `.owl` fixtures. `--replay` runs the oracles on one corpus
 *       file instead. Exit 0 iff no divergence.
 *
 * Where a command takes a <design>, a path to a `.owl` bundle file
 * (textual design + spec + alpha; see DESIGN.md §13) is accepted in
 * place of a built-in name: `owl synth program.owl`, `owl lint
 * sketch.owl`.
 *   owl serve --batch jobs.json [--results out.json]
 *             [--listen sock] [--sessions n] [--queue-cap n]
 *             [--cache-mb m] [--budget s]
 *       Synthesis as a long-lived service (DESIGN.md §11): a bounded
 *       request queue feeding N concurrent sessions, a
 *       content-addressed cross-request result cache, and a warm
 *       solver pool. Batch mode replays a jobs file and exits; socket
 *       mode serves NDJSON requests on a unix socket. A jobs file
 *       over serve::kMaxBatchFileBytes (16 MiB) is refused (exit 2).
 *
 * `owl synth --check-proofs` additionally records a DRAT proof for
 * every UNSAT SAT verdict and replays it through the independent
 * forward checker (sat/drat.h); a proof that fails to check aborts
 * the run instead of trusting the solver.
 *
 * Designs: accumulator, alu-machine, rv32i, rv32i-zbkb, rv32i-zbkc,
 * rv32i-2stage, rv32i-zbkb-2stage, rv32i-zbkc-2stage, crypto-core,
 * aes.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/absfunc_parser.h"
#include "core/synthesis.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generate.h"
#include "lint/lint.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "designs/registry.h"
#include "exec/jobs.h"
#include "oyster/printer.h"
#include "oyster/verilog.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "text/bundle.h"
#include "text/ila_text.h"

using namespace owl;
using namespace owl::designs;
using namespace owl::synth;

namespace
{

int
usage()
{
    fprintf(stderr,
            "usage: owl <command> [<design>|<file.owl>] [options]\n"
            "commands: list | sketch | alpha | synth | control | "
            "verify | lint | serve | fuzz\n"
            "options (synth, control, verify): --mono, --jobs <n> "
            "(or OWL_JOBS; verify checks instructions on n threads "
            "too), "
            "--budget <seconds>, --check-proofs, "
            "--no-incremental, --no-preprocess, "
            "--eager-ackermann, --profile-sat, "
            "-o <file.v>\n"
            "options (lint): --cycles <k>  symbolic-evaluation depth\n"
            "options (serve): --batch <jobs.json>, --results "
            "<out.json>, --listen <socket>, --sessions <n>, "
            "--queue-cap <n>, --cache-mb <m>, --budget <seconds>\n"
            "options (fuzz): --seed <s>, --runs <n>, --out <dir>, "
            "--replay <file.owl>, --dump, --vectors <v>, "
            "--cycles <c>, --max-findings <n>, --no-reduce, "
            "--no-check-proofs, --verbose\n"
            "options (any): --stats-json <file.json>  export "
            "owl::obs spans+counters+histograms\n"
            "               --trace-out <file.json>  export a Chrome "
            "Trace Event timeline (Perfetto)\n"
            "run `owl list` for the design names\n");
    return 2;
}

/**
 * Parse a numeric flag value: a whole decimal integer in [lo, hi].
 * Anything else (empty, signs other than '-', trailing text, out of
 * range) prints a usage error naming the flag and exits 2.
 */
long long
intArg(const char *flag, const char *text, long long lo, long long hi)
{
    errno = 0;
    char *end = nullptr;
    long long v = strtoll(text, &end, 10);
    bool starts_ok = isdigit(static_cast<unsigned char>(text[0])) ||
                     text[0] == '-';
    if (!starts_ok || end == text || *end != '\0' || errno == ERANGE ||
        v < lo || v > hi) {
        fprintf(stderr,
                "owl: %s expects an integer in [%lld, %lld], got '%s'\n",
                flag, lo, hi, text);
        exit(usage());
    }
    return v;
}

using Meta = std::vector<std::pair<std::string, std::string>>;

/**
 * The meta block of a `--stats-json` or `--trace-out` document: the
 * command's own keys, then what its numbers depend on besides the
 * code: the CPUs this process may use, the build type and the build
 * options that change timing (obs compiled in, sanitizers).
 */
Meta
statsMeta(Meta meta)
{
    meta.emplace_back("nproc", std::to_string(exec::availableCpus()));
    meta.emplace_back("build_type", OWL_BUILD_TYPE);
    meta.emplace_back("obs_enabled", OWL_OBS_ENABLED ? "1" : "0");
    meta.emplace_back("sanitizers", OWL_SANITIZERS);
    return meta;
}

/** True when the design argument names a `.owl` bundle file. */
bool
isOwlFile(const std::string &name)
{
    return name.size() > 4 &&
           name.compare(name.size() - 4, 4, ".owl") == 0;
}

/** Read a whole file; exits with a message on I/O failure. */
std::string
readFileOrDie(const std::string &path)
{
    std::ifstream f(path);
    if (!f) {
        fprintf(stderr, "owl: cannot read %s\n", path.c_str());
        exit(2);
    }
    std::ostringstream text;
    text << f.rdbuf();
    return text.str();
}

/**
 * Load a `.owl` bundle as a case study. Commands that synthesize need
 * all three sections; sketch/lint need only the design, alpha only
 * the abstraction function. Missing optional sections are stubbed so
 * the CaseStudy container stays uniform.
 */
CaseStudy
loadOwlFile(const std::string &path, const std::string &cmd)
{
    text::Bundle b;
    try {
        b = text::parseBundle(readFileOrDie(path));
    } catch (const FatalError &e) {
        fprintf(stderr, "owl: %s: %s\n", path.c_str(), e.what());
        exit(2);
    }
    bool need_all =
        cmd == "synth" || cmd == "control" || cmd == "verify";
    if ((cmd == "sketch" || cmd == "lint" || need_all) && !b.design) {
        fprintf(stderr, "owl: %s has no `design` section\n",
                path.c_str());
        exit(2);
    }
    if (cmd == "alpha" && !b.alpha) {
        fprintf(stderr, "owl: %s has no `alpha` section\n",
                path.c_str());
        exit(2);
    }
    if (need_all && (!b.spec || !b.alpha)) {
        fprintf(stderr,
                "owl: %s needs design, spec and alpha sections for "
                "`owl %s`\n",
                path.c_str(), cmd.c_str());
        exit(2);
    }
    return CaseStudy(
        b.spec ? std::move(*b.spec) : ila::Ila("empty"),
        b.design ? std::move(*b.design) : oyster::Design("empty"),
        b.alpha ? std::move(*b.alpha) : synth::AbsFunc());
}

CaseStudy
make(const std::string &name, const std::string &cmd)
{
    if (isOwlFile(name))
        return loadOwlFile(name, cmd);
    auto cs = makeCaseStudy(name);
    if (!cs) {
        fprintf(stderr, "unknown design '%s'; try `owl list`\n",
                name.c_str());
        exit(2);
    }
    return std::move(*cs);
}

/**
 * `owl serve` — the long-lived service front ends. Batch mode reads a
 * jobs file, runs every job through the server (queue, cache, warm
 * pool), and prints one JSON document with the results in input
 * order; exit 0 iff every job succeeded. Socket mode serves NDJSON
 * requests at --listen until a shutdown command. Both can be combined
 * (batch first, then listen).
 */
int
cmdServe(int argc, char **argv)
{
    serve::ServerOptions sopts;
    std::string batch_path, results_path, listen_path, stats_json;
    for (int i = 2; i < argc; i++) {
        if (!strcmp(argv[i], "--batch") && i + 1 < argc) {
            batch_path = argv[++i];
        } else if (!strcmp(argv[i], "--results") && i + 1 < argc) {
            results_path = argv[++i];
        } else if (!strcmp(argv[i], "--listen") && i + 1 < argc) {
            listen_path = argv[++i];
        } else if (!strcmp(argv[i], "--sessions") && i + 1 < argc) {
            sopts.sessions =
                static_cast<int>(intArg("--sessions", argv[++i], 1, 1024));
        } else if (!strcmp(argv[i], "--queue-cap") && i + 1 < argc) {
            sopts.queueCap = static_cast<size_t>(
                intArg("--queue-cap", argv[++i], 1, 1 << 20));
        } else if (!strcmp(argv[i], "--cache-mb") && i + 1 < argc) {
            sopts.cacheBytes = static_cast<size_t>(intArg(
                                   "--cache-mb", argv[++i], 0, 1 << 20))
                               << 20;
        } else if (!strcmp(argv[i], "--budget") && i + 1 < argc) {
            sopts.defaultBudgetMs =
                intArg("--budget", argv[++i], 0, INT_MAX) * 1000;
        } else if (!strcmp(argv[i], "--stats-json") && i + 1 < argc) {
            stats_json = argv[++i];
        } else {
            return usage();
        }
    }
    if (batch_path.empty() && listen_path.empty()) {
        fprintf(stderr,
                "owl serve: need --batch <jobs.json> and/or "
                "--listen <socket>\n");
        return 2;
    }

    auto write_stats = [&]() {
        if (stats_json.empty())
            return;
        if (!obs::Registry::instance().writeJsonFile(
                stats_json,
                statsMeta({{"tool", "owl"}, {"command", "serve"}})))
            fprintf(stderr, "[owl] failed to write stats to %s\n",
                    stats_json.c_str());
    };

    serve::Server server(sopts);
    int rc = 0;

    if (!batch_path.empty()) {
        std::ifstream f(batch_path);
        if (!f) {
            fprintf(stderr, "owl serve: cannot read %s\n",
                    batch_path.c_str());
            return 2;
        }
        // Read one byte past the cap at most: enough to refuse a
        // bigger file without holding it.
        std::string text;
        char chunk[1 << 16];
        while (text.size() <= serve::kMaxBatchFileBytes) {
            size_t want = std::min(sizeof chunk,
                                   serve::kMaxBatchFileBytes + 1 -
                                       text.size());
            f.read(chunk, static_cast<std::streamsize>(want));
            if (f.gcount() <= 0)
                break;
            text.append(chunk, static_cast<size_t>(f.gcount()));
        }
        if (text.size() > serve::kMaxBatchFileBytes) {
            fprintf(stderr,
                    "owl serve: %s: batch file exceeds %zu bytes\n",
                    batch_path.c_str(), serve::kMaxBatchFileBytes);
            return 2;
        }
        std::vector<serve::JobRequest> jobs;
        std::string err;
        if (!serve::parseJobsFile(text, jobs, err)) {
            fprintf(stderr, "owl serve: %s: %s\n", batch_path.c_str(),
                    err.c_str());
            return 2;
        }
        fprintf(stderr,
                "[owl] serve: %zu jobs, %d session(s), cache %zu "
                "MiB\n",
                jobs.size(), server.options().sessions,
                server.options().cacheBytes >> 20);
        std::vector<serve::JobResult> results =
            server.runBatch(std::move(jobs));

        obs::json::Value doc = obs::json::Value::object();
        obs::json::Value arr = obs::json::Value::array();
        for (const serve::JobResult &r : results) {
            if (!r.ok())
                rc = 1;
            fprintf(stderr,
                    "[owl] serve: %s %s in %.3f s (cache %llu/%llu, "
                    "sessions %llu warm)\n",
                    r.design.c_str(), r.status.c_str(), r.seconds,
                    static_cast<unsigned long long>(r.cacheHits),
                    static_cast<unsigned long long>(r.cacheHits +
                                                    r.cacheMisses),
                    static_cast<unsigned long long>(r.sessionsReused));
            arr.push(serve::resultToJson(r));
        }
        doc.set("schema", std::string("owl.serve.v1"));
        doc.set("results", std::move(arr));
        std::string out = doc.dump(2) + "\n";
        if (results_path.empty()) {
            fputs(out.c_str(), stdout);
        } else {
            std::ofstream rf(results_path);
            rf << out;
            if (!rf) {
                fprintf(stderr, "owl serve: cannot write %s\n",
                        results_path.c_str());
                rc = 2;
            } else {
                fprintf(stderr, "[owl] serve: wrote %s\n",
                        results_path.c_str());
            }
        }
    }

    if (!listen_path.empty() && rc == 0) {
        fprintf(stderr, "[owl] serve: listening on %s\n",
                listen_path.c_str());
        std::string err;
        if (!serve::serveSocket(server, listen_path, &err)) {
            fprintf(stderr, "owl serve: %s\n", err.c_str());
            rc = 1;
        }
    }

    server.shutdown();
    write_stats();
    return rc;
}

/**
 * `owl fuzz` — the differential fuzzing front end. Without --replay,
 * runs a seeded session and writes minimized findings to --out (or
 * prints them); with --replay, runs the four oracles on one corpus
 * file. Exit 0 iff no divergence.
 */
int
cmdFuzz(int argc, char **argv)
{
    fuzz::FuzzOptions fopts;
    std::string out_dir, replay_path, stats_json;
    bool dump = false;
    for (int i = 2; i < argc; i++) {
        if (!strcmp(argv[i], "--seed") && i + 1 < argc) {
            fopts.seed = strtoull(argv[++i], nullptr, 10);
        } else if (!strcmp(argv[i], "--runs") && i + 1 < argc) {
            fopts.runs =
                static_cast<int>(intArg("--runs", argv[++i], 0, INT_MAX));
        } else if (!strcmp(argv[i], "--out") && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (!strcmp(argv[i], "--replay") && i + 1 < argc) {
            replay_path = argv[++i];
        } else if (!strcmp(argv[i], "--vectors") && i + 1 < argc) {
            fopts.cosimVectors = static_cast<int>(
                intArg("--vectors", argv[++i], 0, INT_MAX));
        } else if (!strcmp(argv[i], "--cycles") && i + 1 < argc) {
            fopts.cosimCycles =
                static_cast<int>(intArg("--cycles", argv[++i], 1, 1024));
        } else if (!strcmp(argv[i], "--max-findings") &&
                   i + 1 < argc) {
            fopts.maxFindings = static_cast<int>(
                intArg("--max-findings", argv[++i], 0, INT_MAX));
        } else if (!strcmp(argv[i], "--dump")) {
            dump = true;
        } else if (!strcmp(argv[i], "--no-reduce")) {
            fopts.reduce = false;
        } else if (!strcmp(argv[i], "--no-check-proofs")) {
            fopts.solver.checkProofs = false;
        } else if (!strcmp(argv[i], "--verbose")) {
            fopts.verbose = true;
        } else if (!strcmp(argv[i], "--stats-json") && i + 1 < argc) {
            stats_json = argv[++i];
        } else {
            return usage();
        }
    }

    auto write_stats = [&]() {
        if (stats_json.empty())
            return;
        if (!obs::Registry::instance().writeJsonFile(
                stats_json,
                statsMeta({{"tool", "owl"}, {"command", "fuzz"}})))
            fprintf(stderr, "[owl] failed to write stats to %s\n",
                    stats_json.c_str());
    };

    if (dump) {
        // Corpus curation / debugging aid: print the generated
        // bundle(s) for this seed range without running any oracle.
        for (int i = 0; i < fopts.runs; i++) {
            uint64_t seed = fopts.seed + static_cast<uint64_t>(i);
            if (fopts.runs > 1)
                printf("# seed %llu (%s)\n",
                       static_cast<unsigned long long>(seed),
                       fuzz::scenarioName(seed).c_str());
            fputs(text::printBundle(fuzz::generateBundle(seed))
                      .c_str(),
                  stdout);
        }
        return 0;
    }

    if (!replay_path.empty()) {
        fuzz::OracleOptions oopt;
        oopt.cosimVectors = fopts.cosimVectors;
        oopt.cosimCycles = fopts.cosimCycles;
        oopt.solver = fopts.solver;
        oopt.seed = fopts.seed;
        std::vector<fuzz::Divergence> ds;
        try {
            ds = fuzz::replayBundleText(readFileOrDie(replay_path),
                                        oopt);
        } catch (const FatalError &e) {
            fprintf(stderr, "owl fuzz: %s: %s\n", replay_path.c_str(),
                    e.what());
            write_stats();
            return 2;
        }
        if (!ds.empty()) {
            fputs(fuzz::describeDivergences(ds).c_str(), stderr);
            fprintf(stderr, "[owl] fuzz replay %s: %zu divergence(s)\n",
                    replay_path.c_str(), ds.size());
            write_stats();
            return 1;
        }
        fprintf(stderr, "[owl] fuzz replay %s: clean\n",
                replay_path.c_str());
        write_stats();
        return 0;
    }

    fuzz::FuzzReport report = fuzz::runFuzz(fopts);
    for (size_t i = 0; i < report.findings.size(); i++) {
        const fuzz::Finding &f = report.findings[i];
        fprintf(stderr,
                "[owl] fuzz finding %zu: seed %llu (%s) oracle %s: "
                "%s\n",
                i + 1, static_cast<unsigned long long>(f.seed),
                f.scenario.c_str(), f.oracle.c_str(),
                f.detail.c_str());
        if (out_dir.empty()) {
            fprintf(stderr, "---- minimized bundle ----\n%s----\n",
                    f.minimizedText.c_str());
            continue;
        }
        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);
        std::string path = out_dir + "/seed_" +
                           std::to_string(f.seed) + "_" + f.oracle +
                           ".owl";
        std::ofstream of(path);
        of << "# owl fuzz finding: seed " << f.seed << " oracle "
           << f.oracle << "\n# " << f.detail << "\n"
           << f.minimizedText;
        fprintf(stderr, "[owl] wrote %s\n", path.c_str());
    }
    fprintf(stderr,
            "[owl] fuzz: %d run(s), %d divergence(s), %zu "
            "finding(s)\n",
            report.runs, report.divergences,
            report.findings.size());
    write_stats();
    return report.findings.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];

    if (cmd == "list") {
        for (const std::string &name : caseStudyNames())
            printf("%s\n", name.c_str());
        return 0;
    }
    if (cmd == "serve")
        return cmdServe(argc, argv);
    if (cmd == "fuzz")
        return cmdFuzz(argc, argv);
    if (argc < 3)
        return usage();
    std::string design = argv[2];

    SynthesisOptions opts;
    bool mono = false;
    long long budget_s = 0;
    // OWL_JOBS is the default for --jobs; an explicit flag wins.
    int jobs = 0;
    if (const char *env = getenv("OWL_JOBS"))
        jobs = static_cast<int>(intArg("OWL_JOBS", env, 1, 1024));
    int lint_cycles = 1;
    std::string out_verilog;
    std::string stats_json;
    std::string trace_out;
    for (int i = 3; i < argc; i++) {
        if (!strcmp(argv[i], "--mono")) {
            mono = true;
        } else if (!strcmp(argv[i], "--budget") && i + 1 < argc) {
            budget_s = intArg("--budget", argv[++i], 0, INT_MAX);
        } else if (!strcmp(argv[i], "--jobs") && i + 1 < argc) {
            jobs = static_cast<int>(intArg("--jobs", argv[++i], 1, 1024));
        } else if (!strcmp(argv[i], "--check-proofs")) {
            opts.solver.checkProofs = true;
        } else if (!strcmp(argv[i], "--no-incremental")) {
            opts.incremental = false;
        } else if (!strcmp(argv[i], "--no-preprocess")) {
            opts.solver.preprocess = false;
        } else if (!strcmp(argv[i], "--eager-ackermann")) {
            opts.solver.eagerAckermann = true;
        } else if (!strcmp(argv[i], "--profile-sat")) {
            opts.solver.profileSat = true;
        } else if (!strcmp(argv[i], "--trace-out") && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (!strcmp(argv[i], "--cycles") && i + 1 < argc) {
            lint_cycles =
                static_cast<int>(intArg("--cycles", argv[++i], 1, 1024));
        } else if (!strcmp(argv[i], "-o") && i + 1 < argc) {
            out_verilog = argv[++i];
        } else if (!strcmp(argv[i], "--stats-json") && i + 1 < argc) {
            stats_json = argv[++i];
        } else {
            return usage();
        }
    }
    if (mono && jobs > 1) {
        fprintf(stderr, "owl: --mono and --jobs are mutually "
                        "exclusive (the monolithic query is one "
                        "task)\n");
        return 2;
    }

    // Tracing wants named lanes and counter-track samples; turn both
    // on before any spans open so the main thread claims lane 0.
    if (!trace_out.empty()) {
        obs::setLaneName("main");
        obs::setCounterSampling(true);
    }

    // Export the obs registry on any exit path past this point, so
    // failed runs still leave inspectable stats/trace artifacts.
    auto write_stats = [&]() {
        if (!stats_json.empty()) {
            bool ok = obs::Registry::instance().writeJsonFile(
                stats_json, statsMeta({{"tool", "owl"},
                                       {"command", cmd},
                                       {"design", design}}));
            if (ok)
                fprintf(stderr, "[owl] wrote stats to %s\n",
                        stats_json.c_str());
            else
                fprintf(stderr, "[owl] failed to write stats to %s\n",
                        stats_json.c_str());
        }
        if (!trace_out.empty()) {
            bool ok = obs::writeChromeTraceFile(
                trace_out, statsMeta({{"tool", "owl"},
                                      {"command", cmd},
                                      {"design", design}}));
            if (ok)
                fprintf(stderr, "[owl] wrote trace to %s\n",
                        trace_out.c_str());
            else
                fprintf(stderr, "[owl] failed to write trace to %s\n",
                        trace_out.c_str());
        }
    };

    CaseStudy cs = make(design, cmd);

    if (cmd == "sketch") {
        fputs(oyster::printOyster(cs.sketch).c_str(), stdout);
        write_stats();
        return 0;
    }
    if (cmd == "alpha") {
        fputs(printAbsFunc(cs.alpha).c_str(), stdout);
        write_stats();
        return 0;
    }
    if (cmd == "lint") {
        lint::LintRunOptions lopts;
        lopts.cycles = lint_cycles;
        lint::Report report;
        lint::LintRunStats lstats;
        lint::lintAll(cs.sketch, lopts, report, &lstats);
        fputs(report.toString().c_str(), stdout);
        fprintf(stderr,
                "[owl] lint %s: %s (%zu terms, %zu clauses, %zu "
                "gates, %zu dead)\n",
                design.c_str(), report.summary().c_str(),
                lstats.termNodes, lstats.cnfClauses,
                lstats.netlistGates, lstats.deadGates);
        write_stats();
        return report.hasErrors() ? 1 : 0;
    }
    if (cmd != "synth" && cmd != "control" && cmd != "verify")
        return usage();

    if (mono)
        opts.strategy = Strategy::Monolithic;
    else if (jobs > 1)
        opts.strategy = Strategy::PerInstructionParallel;
    opts.jobs = jobs;
    if (budget_s > 0)
        opts.timeLimit = std::chrono::milliseconds(budget_s * 1000);
    if (mono)
        opts.maxIterations = 1 << 20;
    fprintf(stderr, "[owl] synthesizing %s control for %s (%zu "
                    "instructions, sketch %d LoC)...\n",
            strategyName(opts.strategy), design.c_str(),
            cs.spec.instrs().size(),
            oyster::sketchSizeLoc(cs.sketch));
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha,
                                          opts);
    if (r.status != SynthStatus::Ok) {
        fprintf(stderr, "[owl] synthesis failed: %s at %s\n",
                synthStatusName(r.status), r.failedInstr.c_str());
        write_stats();
        return 1;
    }
    fprintf(stderr, "[owl] synthesized in %.2f s (%d CEGIS "
                    "iterations)\n",
            r.seconds, r.cegisIterations);

    if (cmd == "control") {
        fputs(oyster::printGeneratedControl(cs.sketch).c_str(),
              stdout);
    }
    if (cmd == "verify") {
        std::string failed;
        // The verification pass honours the same solver policy and
        // job count as synthesis: one thread unless --jobs/OWL_JOBS
        // asks for more.
        CegisOptions vopts;
        vopts.solver = opts.solver;
        SynthStatus v = verifyDesign(cs.sketch, cs.spec, cs.alpha,
                                     &failed, vopts, jobs > 0 ? jobs : 1);
        if (v != SynthStatus::Ok) {
            fprintf(stderr, "[owl] verification failed at %s\n",
                    failed.c_str());
            write_stats();
            return 1;
        }
        fprintf(stderr, "[owl] verified: every instruction's control "
                        "is correct w.r.t. the specification\n");
    }
    if (!out_verilog.empty()) {
        std::ofstream f(out_verilog);
        f << oyster::emitVerilog(cs.sketch);
        fprintf(stderr, "[owl] wrote %s\n", out_verilog.c_str());
    }
    write_stats();
    return 0;
}
