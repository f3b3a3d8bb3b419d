/**
 * @file
 * The ILA-to-constraints compiler (paper §5.1, Figure 8).
 *
 * Given an ILA model, an abstraction function α and a symbolic run of
 * the datapath sketch, this produces per-instruction pre- and
 * postconditions over the run's SMT terms:
 *
 *   T[[SetDecode(e)]]       = (assume T[[e]])           -> `pre`
 *   T[[SetUpdate(sv, e)]]   = (assert (= T[[e]] post(α(sv)))) -> `posts`
 *
 * Reads substitute through α at the entry's read time; update targets
 * are checked at the write time. Memory updates compare the spec's
 * Store chain against the datapath's write log extensionally at the
 * union of their store addresses (sound and complete for chains over
 * the same uninterpreted base — see DESIGN.md §3).
 *
 * Frame conditions: spec states with a write-mapped α entry that an
 * instruction does not update must be unchanged; this is what forces
 * the synthesizer to deassert mem_write/jump/... for unrelated
 * instructions (paper §4.1.1, Figure 7 discussion).
 *
 * Translation is memoized per compiler instance by ILA node index, so
 * each node of the spec DAG is translated once however many paths
 * reach it: compiling a query takes time linear in its DAG. The term
 * table hash-conses, so the memo changes no term, only how often the
 * same term is rebuilt. The memo belongs to the instance; nothing is
 * shared across compilers or threads.
 *
 * The compiler also translates decode conditions into *Oyster*
 * expressions over the datapath's decode wires (via the α fetch wire);
 * the control union uses these as the precondition wires of the
 * generated control logic. That translation is deliberately not
 * memoized: Oyster expressions are not hash-consed, so sharing nodes
 * would change the generated design.
 */

#ifndef OWL_CORE_SPEC_COMPILER_H
#define OWL_CORE_SPEC_COMPILER_H

#include <set>
#include <string>
#include <vector>

#include "core/absfunc.h"
#include "ila/ila.h"
#include "oyster/ir.h"
#include "oyster/symeval.h"
#include "smt/term.h"

namespace owl::synth
{

/** Compiled conditions for one instruction. */
struct InstrConditions
{
    std::string name;
    smt::TermRef pre;
    std::vector<smt::TermRef> posts;
    std::vector<smt::TermRef> assumes;

    /**
     * (pre ∧ assumes) → ∧posts as one 1-bit term: the instruction is
     * correct on this run. Both conjunctions fold left, the first
     * from pre and the second from true.
     */
    smt::TermRef implication(smt::TermTable &tt) const;

    /**
     * Assertions whose models are states where the run violates the
     * instruction: pre, each assume, each side condition, then
     * ¬∧posts (folded from true).
     */
    std::vector<smt::TermRef>
    violation(smt::TermTable &tt,
              const std::vector<smt::TermRef> &side = {}) const;
};

/**
 * Compiles ILA decode/update expressions against one symbolic run.
 * One compiler instance is tied to one TermTable + SymRun pair.
 */
class SpecCompiler
{
  public:
    SpecCompiler(const ila::Ila &spec, const AbsFunc &alpha,
                 smt::TermTable &tt, const oyster::SymRun &run,
                 const oyster::Design &design);

    /** Compile every instruction. */
    std::vector<InstrConditions> compileAll();

    /** Compile one instruction. */
    InstrConditions compileInstr(const ila::Instr &instr);

    /** The translated fetch expression (the instruction word term). */
    smt::TermRef fetchTerm();

    /**
     * Translate an instruction's decode condition into an Oyster
     * expression over the datapath (for control-union preconditions).
     * Static: independent of any symbolic run.
     */
    static oyster::ExprRef decodeToOyster(const ila::Ila &spec,
                                          const AbsFunc &alpha,
                                          const ila::Instr &instr,
                                          oyster::Design &design);

    /** Distinct ILA nodes this compiler has translated so far. */
    uint64_t nodesTranslated() const { return translated; }
    /** Translations answered from the memo so far. */
    uint64_t memoHits() const { return hits; }

  private:
    const ila::Ila &spec;
    const AbsFunc &alpha;
    smt::TermTable &tt;
    const oyster::SymRun &run;
    const oyster::Design &design;
    /** ILA node indices of Loads inside the fetch expression. */
    std::set<int32_t> fetchLoads;
    /** Term of each translated ILA node, by node index. */
    std::vector<smt::TermRef> memo;
    uint64_t translated = 0;
    uint64_t hits = 0;

    InstrConditions compile(const ila::Instr &instr);
    /** Memoized translation of one ILA node. */
    smt::TermRef translate(int32_t node_idx);
    smt::TermRef translateNode(int32_t node_idx);
    smt::TermRef translateScalarRead(const ila::StateInfo &info,
                                     const AbsEntry &entry);
    /** Flatten a memory-sorted expr into base + store list. */
    struct StoreChain
    {
        int stateIdx;  ///< the base StateVar
        std::vector<std::pair<smt::TermRef, smt::TermRef>> stores;
    };
    StoreChain flattenStores(int32_t node_idx);

    smt::TermRef postForScalar(const ila::StateInfo &info,
                               const AbsEntry &entry,
                               const ila::IlaExpr *update);
    void postForMemory(const ila::StateInfo &info, const AbsEntry &entry,
                       const ila::IlaExpr *update,
                       std::vector<smt::TermRef> &out);

    int memConstTableId(const ila::StateInfo &info);
};

} // namespace owl::synth

#endif // OWL_CORE_SPEC_COMPILER_H
