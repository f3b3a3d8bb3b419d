/**
 * @file
 * Tests for abstraction functions: entry lookup (including the fetch
 * disambiguation), effect times, and the §3.2 concrete-syntax parser
 * — including the paper's own α listings verbatim, and an end-to-end
 * synthesis run driven entirely from parsed text.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/logging.h"
#include "core/absfunc_parser.h"
#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "oyster/parser.h"
#include "oyster/printer.h"

using namespace owl;
using namespace owl::synth;

TEST(AbsFunc, EntryLookupAndTimes)
{
    AbsFunc a;
    a.map("pc", "pc", MapType::Register,
          {{Effect::Read, 1}, {Effect::Write, 2}});
    a.map("mem", "d_mem", MapType::Memory,
          {{Effect::Read, 2}, {Effect::Write, 3}});
    a.mapFetch("mem", "i_mem", {{Effect::Read, 1}}, "inst");
    a.withCycles(3);

    const AbsEntry *pc = a.entryFor("pc");
    ASSERT_NE(pc, nullptr);
    EXPECT_EQ(pc->readTime(), 1);
    EXPECT_EQ(pc->writeTime(), 2);
    // Non-fetch context prefers d_mem; fetch context prefers i_mem.
    EXPECT_EQ(a.entryFor("mem", false)->datapathName, "d_mem");
    EXPECT_EQ(a.entryFor("mem", true)->datapathName, "i_mem");
    EXPECT_EQ(a.entryFor("mem", true)->writeTime(), -1);
    EXPECT_EQ(a.fetchEntry()->fetchWire, "inst");
    EXPECT_EQ(a.entryFor("nope"), nullptr);
}

TEST(AbsFuncParser, PaperSingleCycleListing)
{
    // §4.1.1's abstraction function, verbatim (plus the fetch tag).
    const char *text = R"(
pc: {name: 'pc', type: register, [read: 1, write: 1]}
GPR: {name: 'rf', type: memory, [read: 1, write: 1]}
mem: {name: 'd_mem', type: memory, [read: 1, write: 1]}
mem: {name: 'i_mem', type: memory, [read: 1], fetch: 'instruction'}
with cycles: 1
)";
    AbsFunc a = parseAbsFunc(text);
    EXPECT_EQ(a.cycles(), 1);
    EXPECT_EQ(a.entries().size(), 4u);
    EXPECT_EQ(a.entryFor("GPR")->datapathName, "rf");
    EXPECT_EQ(a.fetchEntry()->datapathName, "i_mem");
}

TEST(AbsFuncParser, PaperCryptoCoreListing)
{
    // §4.2's three-stage α with the instruction_valid assumption.
    const char *text = R"(
pc: {name: 'pc', type: register, [read: 1, write: 2]}
GPR: {name: 'rf', type: memory, [read: 2, write: 3]}
mem: {name: 'd_mem', type: memory, [read: 3, write: 3]}
mem: {name: 'i_mem', type: memory, [read: 1], fetch: 'inst2'}
alias f_pc = pc
with cycles: 3, [instruction_valid: 1]
)";
    AbsFunc a = parseAbsFunc(text);
    EXPECT_EQ(a.cycles(), 3);
    ASSERT_EQ(a.assumes().size(), 1u);
    EXPECT_EQ(a.assumes()[0].wire, "instruction_valid");
    EXPECT_EQ(a.assumes()[0].time, 1);
    ASSERT_EQ(a.initAliases().size(), 1u);
    EXPECT_EQ(a.initAliases()[0].first, "pc");
    EXPECT_EQ(a.initAliases()[0].second, "f_pc");
}

TEST(AbsFuncParser, PaperAesListingWithTypo)
{
    // §4.3's listing spells "regster" — the parser accepts the
    // paper's own typo.
    const char *text = R"(
key_in: {name: 'key_in', type: input, [read: 1]}
round: {name: 'round', type: regster, [read: 1, write: 1]}
with cycles: 1
)";
    AbsFunc a = parseAbsFunc(text);
    EXPECT_EQ(a.entryFor("round")->type, MapType::Register);
}

TEST(AbsFuncParser, RoundTrip)
{
    AbsFunc a;
    a.map("pc", "pc", MapType::Register,
          {{Effect::Read, 1}, {Effect::Write, 2}});
    a.mapFetch("mem", "i_mem", {{Effect::Read, 1}}, "inst");
    a.assume("valid", 1);
    a.aliasInit("pc", "f_pc");
    a.withCycles(3);
    std::string once = printAbsFunc(a);
    std::string twice = printAbsFunc(parseAbsFunc(once));
    EXPECT_EQ(once, twice);
}

namespace
{

/** The message parseAbsFunc fails with on `text` ("" if it parses). */
std::string
parseError(const std::string &text)
{
    try {
        parseAbsFunc(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a parse error for:\n" << text;
    return "";
}

} // namespace

TEST(AbsFuncParser, ErrorsAreDiagnosed)
{
    EXPECT_THROW(parseAbsFunc("pc: {name: 'pc'}"), FatalError);
    EXPECT_THROW(parseAbsFunc("pc: {name: 'pc', type: banana, "
                              "[read: 1]}\nwith cycles: 1"),
                 FatalError);
    EXPECT_THROW(parseAbsFunc("with cycles: "), FatalError);

    // Errors carry the offending token's line and column.
    std::string m = parseError("pc: {name: 'pc', type: register,\n"
                               "     [read: 1, write: 1]}\n"
                               "st: {name: 'st', type: banana}\n"
                               "with cycles: 1\n");
    EXPECT_NE(m.find("line 3, column 24: unknown type 'banana'"),
              std::string::npos)
        << m;
    m = parseError("pc: {name: 'pc', type: register, [read: 1]}\n");
    EXPECT_NE(m.find("missing 'with cycles: N'"), std::string::npos) << m;

    // `with cycles` takes the CLI's --cycles range, [1, 1024]; an
    // integer too large for the lexer is a located error, not a crash.
    m = parseError("\nwith cycles: 99999999999999999999\n");
    EXPECT_NE(m.find("line 2, column 14: integer literal too large"),
              std::string::npos)
        << m;
    for (const char *bad : {"0", "1025", "1000000000"}) {
        SCOPED_TRACE(bad);
        m = parseError(std::string("with cycles: ") + bad);
        EXPECT_NE(m.find("line 1, column 14: cycles must be in "
                         "[1, 1024]"),
                  std::string::npos)
            << m;
    }
    EXPECT_EQ(parseAbsFunc("with cycles: 1024").cycles(), 1024);

    // Lines count from the given first line (a bundle section's
    // position in its file).
    try {
        parseAbsFunc("with cycles: 1, [valid: x]\n", 40);
        ADD_FAILURE() << "expected a parse error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 40, column 25"),
                  std::string::npos)
            << e.what();
    }
}

TEST(AbsFuncParser, TextDrivenSynthesisEndToEnd)
{
    // The whole Figure 4 flow from text: sketch from the Oyster
    // parser, α from the §3.2 parser, spec from the library.
    designs::CaseStudy ref = designs::makeAccumulator();
    oyster::Design sketch =
        oyster::parseOyster(oyster::printOyster(ref.sketch));
    AbsFunc alpha = parseAbsFunc(R"(
reset: {name: 'reset', type: input, [read: 1]}
go: {name: 'go', type: input, [read: 1]}
stop: {name: 'stop', type: input, [read: 1]}
val: {name: 'val', type: input, [read: 1]}
acc: {name: 'acc', type: register, [read: 1, write: 1]}
state: {name: 'st', type: register, [read: 1, write: 1]}
with cycles: 1
)");
    SynthesisResult r = synthesizeControl(sketch, ref.spec, alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok);
    EXPECT_EQ(verifyDesign(sketch, ref.spec, alpha), SynthStatus::Ok);
}
