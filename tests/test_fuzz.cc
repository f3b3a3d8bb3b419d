/**
 * @file
 * Tests for the differential fuzzing subsystem (`src/fuzz/`):
 * generator determinism and well-formedness, oracle sensitivity (the
 * oracles can actually fire), the greedy reducer, a fixed-seed smoke
 * session, and replay of the checked-in regression corpus
 * (every `.owl` file in `tests/corpus/`) through all five oracles.
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generate.h"
#include "fuzz/oracles.h"
#include "fuzz/reduce.h"
#include "text/bundle.h"

using namespace owl;
using namespace owl::fuzz;

#ifndef OWL_FUZZ_CORPUS_DIR
#error "OWL_FUZZ_CORPUS_DIR must point at tests/corpus"
#endif

namespace
{

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(FuzzGenerate, IsDeterministic)
{
    for (uint64_t seed : {1ULL, 2ULL, 6ULL, 7ULL, 42ULL}) {
        std::string a = text::printBundle(generateBundle(seed));
        std::string b = text::printBundle(generateBundle(seed));
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_FALSE(a.empty());
    }
}

TEST(FuzzGenerate, BundlesAreCompleteAndParseBack)
{
    for (uint64_t seed = 1; seed <= 20; seed++) {
        text::Bundle b = generateBundle(seed);
        ASSERT_TRUE(b.complete()) << "seed " << seed;
        text::Bundle back =
            text::parseBundle(text::printBundle(b));
        EXPECT_TRUE(back.complete()) << "seed " << seed;
    }
}

TEST(FuzzGenerate, CoversAllScenarios)
{
    // The scenario picker must reach every generator within a small
    // seed window (the smoke test relies on mixed coverage).
    std::set<std::string> seen;
    for (uint64_t seed = 1; seed <= 40; seed++)
        seen.insert(scenarioName(seed));
    EXPECT_TRUE(seen.count("fsm"));
    EXPECT_TRUE(seen.count("rom_fsm"));
    EXPECT_TRUE(seen.count("regfile"));
    EXPECT_TRUE(seen.count("regfile_pipe"));
    EXPECT_TRUE(seen.count("regfile_wide"));
}

TEST(FuzzOracles, SynthOracleFiresOnUnsolvableBundle)
{
    // An oracle that can never fire proves nothing. Hand the checker
    // a bundle whose spec demands behaviour the sketch cannot
    // express (the datapath only holds r; the spec wants r+1) and
    // require a divergence report, not silence.
    const char *text = R"(
design nocando
  input op 1
  register r 4
  output out 4
  hole h 1 deps(op)
  r := if h then r else r
  out := r
spec nocando_spec
  input op 1
  state r 4
  fetch op
  instr bump
    decode (op == 1'h1)
    update r (r + 4'h1)
  instr hold
    decode (op == 1'h0)
alpha
op: {name: 'op', type: input, [read: 1]}
r: {name: 'r', type: register, [read: 1, write: 1]}
with cycles: 1
)";
    text::Bundle b = text::parseBundle(text);
    ASSERT_TRUE(b.complete());
    OracleOptions oopt;
    std::vector<Divergence> ds = checkBundle(b, oopt);
    ASSERT_FALSE(ds.empty());
    EXPECT_EQ(ds.front().oracle, "synth");
}

TEST(FuzzOracles, RoundTripOracleIsCleanOnGeneratedBundles)
{
    for (uint64_t seed = 1; seed <= 10; seed++) {
        text::Bundle b = generateBundle(seed);
        EXPECT_TRUE(checkRoundTrip(b).empty()) << "seed " << seed;
    }
}

TEST(FuzzReduce, ShrinksToPredicateCore)
{
    // Reduce a bundle under a synthetic predicate ("still declares
    // wire keepme"): everything not needed to keep the bundle
    // parseable and the predicate true must go.
    const char *text = R"(design padded
  input a 4
  input b 4
  input c 4
  wire keepme 4
  wire junk1 4
  wire junk2 4
  output q 4
  keepme := a
  junk1 := b
  junk2 := c
  q := a
)";
    ReduceStats st;
    std::string reduced = reduceBundleText(
        text,
        [](const std::string &cand) {
            return cand.find("wire keepme") != std::string::npos;
        },
        400, &st);
    EXPECT_NE(reduced.find("wire keepme"), std::string::npos);
    EXPECT_EQ(reduced.find("junk1"), std::string::npos);
    EXPECT_EQ(reduced.find("junk2"), std::string::npos);
    EXPECT_LT(st.linesAfter, st.linesBefore);
    // Still parses: the reducer never emits syntactically dead text.
    EXPECT_NO_THROW(text::parseBundle(reduced));
}

TEST(FuzzSmoke, FixedSeedSessionIsClean)
{
    // The CI acceptance gate in miniature: a deterministic session
    // across all scenarios, every oracle armed, zero divergences.
    FuzzOptions opt;
    opt.seed = 1;
    opt.runs = 25;
    opt.cosimVectors = 2;
    opt.cosimCycles = 4;
    FuzzReport r = runFuzz(opt);
    EXPECT_EQ(r.runs, 25);
    EXPECT_EQ(r.divergences, 0);
    EXPECT_TRUE(r.findings.empty())
        << "first finding: seed " << r.findings.front().seed
        << " oracle " << r.findings.front().oracle << ": "
        << r.findings.front().detail << "\n"
        << r.findings.front().minimizedText;
}

TEST(FuzzRegressions, CorpusReplaysClean)
{
    // Every checked-in fixture is a once-divergent (or
    // divergence-shaped) input pinned against regression: replay all
    // five oracles and require silence.
    std::filesystem::path dir(OWL_FUZZ_CORPUS_DIR);
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    int replayed = 0;
    for (const auto &ent :
         std::filesystem::directory_iterator(dir)) {
        if (ent.path().extension() != ".owl")
            continue;
        SCOPED_TRACE(ent.path().filename().string());
        OracleOptions oopt;
        std::vector<Divergence> ds;
        ASSERT_NO_THROW(
            ds = replayBundleText(slurp(ent.path()), oopt));
        EXPECT_TRUE(ds.empty()) << describeDivergences(ds);
        replayed++;
    }
    // The corpus must never silently vanish (e.g. a bad path).
    EXPECT_GE(replayed, 7);
}
