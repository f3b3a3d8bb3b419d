/**
 * @file
 * Tests for the Oyster text parser: round trips (print -> parse ->
 * print is a fixpoint) across every case-study sketch, behavioural
 * equivalence of the reparsed design, file-style sketches with
 * comments, and parse-error diagnostics, including a located error
 * (not a stack overflow) for nesting past text::kMaxExprDepth in both
 * the Oyster and the ILA-spec parser.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "designs/aes_accelerator.h"
#include "designs/alu_machine.h"
#include "designs/crypto_core.h"
#include "designs/riscv_single_cycle.h"
#include "designs/riscv_two_stage.h"
#include "oyster/interp.h"
#include "oyster/parser.h"
#include "oyster/printer.h"
#include "text/ila_text.h"
#include "text/lexer.h"

using namespace owl;
using namespace owl::oyster;
using namespace owl::designs;

namespace
{

void
expectRoundTrip(const Design &d)
{
    std::string once = printOyster(d);
    Design back = parseOyster(once);
    std::string twice = printOyster(back);
    EXPECT_EQ(once, twice) << "round trip not a fixpoint for "
                           << d.name();
}

} // namespace

TEST(OysterParser, RoundTripsAllCaseStudySketches)
{
    expectRoundTrip(makeAccumulator().sketch);
    expectRoundTrip(makeAluMachine().sketch);
    expectRoundTrip(makeRiscvSingleCycle(RiscvVariant::RV32I).sketch);
    expectRoundTrip(
        makeRiscvSingleCycle(RiscvVariant::RV32I_Zbkc).sketch);
    expectRoundTrip(makeRiscvTwoStage(RiscvVariant::RV32I).sketch);
    expectRoundTrip(makeCryptoCore().sketch);
    expectRoundTrip(makeAesAccelerator().sketch);
}

TEST(OysterParser, RoundTripsCompletedDesign)
{
    // Generated control (ite chains, precondition wires) survives the
    // round trip too.
    CaseStudy cs = makeAccumulator();
    ASSERT_EQ(synth::synthesizeControl(cs.sketch, cs.spec, cs.alpha)
                  .status,
              synth::SynthStatus::Ok);
    expectRoundTrip(cs.sketch);
}

TEST(OysterParser, ReparsedDesignBehavesIdentically)
{
    CaseStudy cs = makeAccumulator();
    ASSERT_EQ(synth::synthesizeControl(cs.sketch, cs.spec, cs.alpha)
                  .status,
              synth::SynthStatus::Ok);
    Design back = parseOyster(printOyster(cs.sketch));

    Interpreter a(cs.sketch), b(back);
    a.setReg("st", BitVec(2, accSTOP));
    b.setReg("st", BitVec(2, accSTOP));
    auto in = [](uint64_t rst, uint64_t go, uint64_t stop,
                 uint64_t val) {
        return InputMap{{"reset", BitVec(1, rst)},
                        {"go", BitVec(1, go)},
                        {"stop", BitVec(1, stop)},
                        {"val", BitVec(8, val)}};
    };
    for (auto &&stim :
         {in(1, 0, 0, 0), in(0, 1, 0, 9), in(0, 0, 0, 4),
          in(0, 0, 1, 0)}) {
        a.step(stim);
        b.step(stim);
        ASSERT_EQ(a.reg("acc").toUint64(), b.reg("acc").toUint64());
        ASSERT_EQ(a.reg("st").toUint64(), b.reg("st").toUint64());
    }
}

TEST(OysterParser, HandWrittenSketchWithComments)
{
    const char *text = R"(
# A tiny saturating up-counter sketch.
design upcounter
  input en 1
  register count 4 reset 4'h3
  output out 4
  wire at_max 1
  at_max := (count == 4'hf)
  count := if (en & ~at_max) then (count + 4'h1) else count
  out := count
)";
    Design d = parseOyster(text);
    EXPECT_EQ(d.name(), "upcounter");
    EXPECT_EQ(d.decl("count").resetValue.toUint64(), 3u);
    Interpreter sim(d);
    for (int i = 0; i < 20; i++)
        sim.step({{"en", BitVec(1, 1)}});
    EXPECT_EQ(sim.reg("count").toUint64(), 15u);
}

TEST(OysterParser, HoleDeclarationsParse)
{
    const char *text = R"(
design holey
  input op 2
  hole ctl 3 deps(op)
  wire w 3
  w := ctl
)";
    Design d = parseOyster(text);
    EXPECT_TRUE(d.hasHoles());
    EXPECT_EQ(d.decl("ctl").holeDeps,
              std::vector<std::string>{"op"});
}

TEST(OysterParser, MemoriesAndWrites)
{
    const char *text = R"(
design memy
  input a 4
  input v 8
  input we 1
  memory m 8 addr 4
  output q 8
  q := read m a
  write m a v we
)";
    Design d = parseOyster(text);
    Interpreter sim(d);
    sim.step({{"a", BitVec(4, 7)},
              {"v", BitVec(8, 0x5c)},
              {"we", BitVec(1, 1)}});
    sim.step({{"a", BitVec(4, 7)}});
    EXPECT_EQ(sim.lastValue("q").toUint64(), 0x5cu);
}

TEST(OysterParser, ErrorsAreDiagnosed)
{
    EXPECT_THROW(parseOyster("input x 4"), FatalError); // no design
    EXPECT_THROW(parseOyster("design d\n  wire w 1\n  w := (a ?? b)"),
                 FatalError);
    EXPECT_THROW(parseOyster("design d\n  frobnicate x 1"),
                 FatalError);
}

namespace
{

/** Parse text that must fail; return the diagnostic. */
std::string
parseFailure(const std::string &text)
{
    try {
        parseOyster(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a parse error for:\n" << text;
    return "";
}

} // namespace

TEST(OysterParser, ErrorsCarryLineAndColumn)
{
    // Lexical error: the bogus token's own position.
    EXPECT_NE(parseFailure("design d\n  wire w 1\n  w := (a ?? b)")
                  .find("line 3"),
              std::string::npos);
    // Syntactic error: a statement head with no ':=' after it.
    std::string m = parseFailure("design d\n  frobnicate x 1");
    EXPECT_NE(m.find("line 2"), std::string::npos);
    EXPECT_NE(m.find("frobnicate"), std::string::npos);
    // Semantic error (unknown name), re-anchored to the statement.
    m = parseFailure("design d\n  wire w 1\n\n  w := nosuch");
    EXPECT_NE(m.find("line 4"), std::string::npos);
    // Column is reported too.
    EXPECT_NE(m.find("column"), std::string::npos);
}

TEST(OysterParser, MalformedLiteralsAreLocated)
{
    // `4'h` with no digits used to crash in std::stoul; now it is a
    // located diagnostic.
    std::string m = parseFailure("design d\n  wire w 4\n  w := 4'h");
    EXPECT_NE(m.find("line 3"), std::string::npos);
    EXPECT_NE(m.find("hex digits"), std::string::npos);
    // Oversized plain integers used to throw std::out_of_range.
    m = parseFailure("design d\n  wire w 4\n  w := 99999999999");
    EXPECT_NE(m.find("too large"), std::string::npos);
    // Zero-width bitvector constants.
    EXPECT_NE(parseFailure("design d\n  wire w 4\n  w := 0'h0")
                  .find("positive width"),
              std::string::npos);
}

TEST(OysterParser, ExtractOfCompoundExpressionsRoundTrip)
{
    // Fuzzer-found (oracle: roundtrip): the printer used to emit
    // `read m a[1:0]`, which reparses as read of an extracted
    // address. Same for ite/not/neg under an extract. The printer now
    // parenthesizes, and the parser accepts `(e)` groups.
    const char *text = R"(
design xtract
  input a 4
  input c 1
  memory m 8 addr 4
  output q 2
  output r 2
  output s 2
  output t 2
  q := (read m a)[1:0]
  r := (if c then a else (a + 4'h1))[2:1]
  s := (~a)[1:0]
  t := (-a)[1:0]
)";
    Design d = parseOyster(text);
    expectRoundTrip(d);

    // And the reparse means the same thing: extract of the read
    // result, not a read at an extracted address.
    Interpreter sim(d);
    sim.step({{"a", BitVec(4, 9)},
              {"c", BitVec(1, 0)}});
    // m[9] is 0 -> q == 0; r == bits 2:1 of 9+1=10 (0b1010) -> 0b01.
    EXPECT_EQ(sim.lastValue("q").toUint64(), 0u);
    EXPECT_EQ(sim.lastValue("r").toUint64(), 1u);
    EXPECT_EQ(sim.lastValue("s").toUint64(),
              (~9u) & 3u);
    EXPECT_EQ(sim.lastValue("t").toUint64(),
              (-9) & 3);
}

TEST(OysterParser, EmptyRomContentsRoundTrips)
{
    // Fuzzer-found (oracle: roundtrip): `contents()` with zero
    // entries is legal IR (reads yield zero) and must survive the
    // round trip rather than tripping the entry parser.
    const char *text = R"(
design blankrom
  input a 2
  rom t 8 addr 2 contents()
  output q 8
  q := read t a
)";
    Design d = parseOyster(text);
    EXPECT_TRUE(d.decl("t").romContents.empty());
    expectRoundTrip(d);
}

TEST(OysterParser, ReservedWordNamesRejected)
{
    // Parser side: declarations may not shadow grammar keywords.
    EXPECT_NE(parseFailure("design read\n  wire w 1\n  w := 1'h0")
                  .find("reserved"),
              std::string::npos);
    EXPECT_NE(parseFailure("design d\n  wire if 1")
                  .find("reserved"),
              std::string::npos);

    // Printer side: the builder API happily accepts such names, so
    // the printer must refuse to emit text it knows cannot reparse.
    Design d("d");
    d.addInput("write", 1);
    EXPECT_THROW(printOyster(d), FatalError);
}

TEST(OysterParser, ResetAndDepsAreContextSensitive)
{
    // `reset` and `deps` are not reserved: a register declaration
    // followed by an assignment to a wire that happens to be called
    // `reset` must not consume the next line as a reset clause.
    const char *text = R"(
design ctxwords
  input go 1
  input op 2
  wire reset 1
  wire deps 2
  register r 4 reset 4'h5
  register s 4
  hole h 2
  reset := go
  deps := op
  s := if reset then 4'h0 else s
  r := r
)";
    Design d = parseOyster(text);
    EXPECT_EQ(d.decl("r").resetValue.toUint64(), 5u);
    EXPECT_EQ(d.decl("s").resetValue.toUint64(), 0u);
    EXPECT_TRUE(d.decl("h").holeDeps.empty());
    expectRoundTrip(d);

    // An explicitly empty deps list also parses (and prints back
    // without the clause).
    Design h = parseOyster(
        "design d\n  hole h 2 deps()\n  wire w 2\n  w := h");
    EXPECT_TRUE(h.decl("h").holeDeps.empty());
    expectRoundTrip(h);
}

namespace
{

/** The diagnostic of a failing spec parse. */
std::string
specFailure(const std::string &text)
{
    try {
        text::parseIla(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a spec parse error";
    return "";
}

/** A one-instruction spec whose update (line 7) is `expr`. */
std::string
specWithUpdate(const std::string &expr)
{
    return "spec s\n  input op 2\n  state count 8\n  fetch op\n"
           "  instr up\n    decode (op == 2'h1)\n    update count " +
           expr + "\n";
}

/** The message names the limit once, at `line`, not re-wrapped. */
void
expectTooDeep(const std::string &m, const std::string &line)
{
    EXPECT_NE(m.find("nesting too deep"), std::string::npos) << m;
    EXPECT_NE(m.find(line + ", column"), std::string::npos) << m;
    EXPECT_EQ(m.find("parse error"), m.rfind("parse error")) << m;
}

} // namespace

TEST(OysterParser, DeepNestingIsALocatedError)
{
    // 200k levels used to overflow the stack (SIGSEGV). Each form
    // recurses through primary(): grouping parentheses, and the two
    // prefix operators, whose operand errors are not re-wrapped per
    // level.
    const std::string head = "design d\n  input x 8\n  wire w 8\n  w := ";
    const size_t deep = 200000;
    expectTooDeep(parseFailure(head + std::string(deep, '(') + "x" +
                               std::string(deep, ')')),
                  "line 4");
    expectTooDeep(parseFailure(head + std::string(deep, '~') + "x"),
                  "line 4");
    expectTooDeep(parseFailure(head + std::string(deep, '-') + "x"),
                  "line 4");

    // The limit counts primary() levels: kMaxExprDepth - 1 operators
    // over a leaf parse, one more does not.
    const size_t ops = text::kMaxExprDepth - 1;
    Design d = parseOyster(head + std::string(ops, '~') + "x");
    EXPECT_EQ(d.decl("w").width, 8);
    expectTooDeep(parseFailure(head + std::string(ops + 1, '~') + "x"),
                  "line 4");
}

TEST(SpecParser, DeepNestingIsALocatedError)
{
    const size_t deep = 200000;
    expectTooDeep(specFailure(specWithUpdate(std::string(deep, '(') +
                                             "count" +
                                             std::string(deep, ')'))),
                  "line 7");
    expectTooDeep(
        specFailure(specWithUpdate(std::string(deep, '~') + "count")),
        "line 7");
    const size_t ops = text::kMaxExprDepth - 1;
    EXPECT_NO_THROW(
        text::parseIla(specWithUpdate(std::string(ops, '-') + "count")));
    expectTooDeep(
        specFailure(specWithUpdate(std::string(ops + 1, '-') + "count")),
        "line 7");
}
