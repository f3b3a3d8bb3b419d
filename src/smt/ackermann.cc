#include "smt/ackermann.h"

#include <algorithm>

#include "base/logging.h"
#include "obs/obs.h"
#include "smt/bitblast.h"

namespace owl::smt
{

TermRef
AckermannManager::congruence(TermRef a, TermRef b)
{
    // Copy fields out: mk* below may reallocate the pool.
    Node na = tt.node(a);
    Node nb = tt.node(b);
    TermRef addr_eq = tt.mkEq(na.children[0], nb.children[0]);
    TermRef val_eq = tt.mkEq(a, b);
    return tt.mkImplies(addr_eq, val_eq);
}

AckermannManager::Registration
AckermannManager::registerReads(const std::vector<TermRef> &reads_in)
{
    Registration out;
    std::vector<TermRef> batch = reads_in;
    std::sort(batch.begin(), batch.end(),
              [](TermRef a, TermRef b) { return a.idx < b.idx; });
    batch.erase(std::unique(batch.begin(), batch.end(),
                            [](TermRef a, TermRef b) {
                                return a.idx == b.idx;
                            }),
                batch.end());

    uint64_t new_pairs = 0;
    size_t first_new = reads.size();
    for (TermRef r : batch) {
        if (!seen.insert(r.idx).second)
            continue;
        int mem = tt.node(r).a;
        std::vector<size_t> &group = byMemory[mem];
        new_pairs += group.size();
        out.newReads.push_back(r);
        out.addresses.push_back(tt.node(r).children[0]);
        group.push_back(reads.size());
        reads.push_back(r);
    }
    if (eager) {
        // Emit the new pairs in lexicographic (i, j) order over the
        // global read registration order, exactly the sequence a
        // one-shot double loop over the sorted union would produce.
        // Order matters operationally: congruence terms are blasted
        // in emission order, so this keeps the CNF variable numbering
        // (and with it the CDCL trajectory) identical to the
        // pre-refinement eager encoding a single batch used to get.
        for (size_t i = 0; i < reads.size(); i++) {
            for (size_t j = std::max(i + 1, first_new);
                 j < reads.size(); j++) {
                if (tt.node(reads[i]).a != tt.node(reads[j]).a)
                    continue; // different memories
                TermRef cong = congruence(reads[i], reads[j]);
                if (tt.isTrue(cong))
                    continue;
                out.congruences.push_back(cong);
            }
        }
    }
    pair_bound += new_pairs;
    OWL_COUNTER_ADD("smt.ackermann.pair_bound", new_pairs);
    return out;
}

std::vector<std::pair<TermRef, TermRef>>
AckermannManager::scanModel(const std::function<BitVec(TermRef)> &value)
{
    std::vector<std::pair<size_t, size_t>> violated;
    std::vector<BitVec> addr_v, read_v;
    for (const auto &[mem, group] : byMemory) {
        if (group.size() < 2)
            continue;
        addr_v.clear();
        read_v.clear();
        addr_v.reserve(group.size());
        read_v.reserve(group.size());
        for (size_t idx : group) {
            // node() returns a reference into the pool; value() never
            // creates terms, so taking the child ref first is safe.
            addr_v.push_back(value(tt.node(reads[idx]).children[0]));
            read_v.push_back(value(reads[idx]));
        }
        for (size_t i = 0; i < group.size(); i++) {
            for (size_t j = i + 1; j < group.size(); j++) {
                if (!(addr_v[i] == addr_v[j]) || read_v[i] == read_v[j])
                    continue;
                uint64_t key = (static_cast<uint64_t>(group[i]) << 32) |
                               group[j];
                if (!instantiated.insert(key).second)
                    continue;
                violated.emplace_back(group[i], group[j]);
            }
        }
    }
    // Lexicographic (i, j) registration order, the sequence eager
    // emission uses, so the lemma clauses (and the gates they add) do
    // not depend on the byMemory iteration order.
    std::sort(violated.begin(), violated.end());
    std::vector<std::pair<TermRef, TermRef>> out;
    out.reserve(violated.size());
    for (const auto &[i, j] : violated)
        out.emplace_back(reads[i], reads[j]);
    OWL_COUNTER_ADD("smt.ackermann.lemmas", out.size());
    return out;
}

sat::Result
AckermannManager::solveRefining(sat::Solver &solver, BitBlaster &blaster,
                                const std::vector<sat::Lit> &assumptions,
                                RefineStats &out)
{
    // In place: lemmas go into the live solver, which keeps its
    // learned clauses, phases and simplified database across rounds.
    // A round adds a few gates and one clause per pair, far below the
    // solver's re-simplification trigger. Terminates because every
    // round instantiates at least one new pair from the finite pair
    // set.
    out = RefineStats{};
    sat::Result r;
    while (true) {
        r = solver.solve(assumptions);
        if (r != sat::Result::Sat || eager || pair_bound == 0)
            break;
        out.scans++;
        std::vector<std::pair<TermRef, TermRef>> pairs = scanModel(
            [&](TermRef t) { return blaster.modelValue(t); });
        if (pairs.empty())
            break; // congruence-clean: genuinely Sat
        obs::ScopedSpan ack_span("smt.ackermann");
        {
            obs::ScopedSpan bb_span("smt.bitblast");
            size_t cached = blaster.cachedTerms();
            for (const auto &[a, b] : pairs)
                blaster.assertCongruence(a, b);
            owl_assert(blaster.cachedTerms() == cached,
                       "lazy refinement blasted a term after a solve");
            blaster.bookStats(bb_span);
        }
        out.rounds++;
        out.lemmas += pairs.size();
        OWL_COUNTER_ADD("smt.ackermann_constraints", pairs.size());
        ack_span.attr("constraints", pairs.size());
        ack_span.attr("rounds", out.rounds);
    }
    OWL_COUNTER_ADD("smt.ackermann.scans", out.scans);
    OWL_COUNTER_ADD("smt.ackermann.rounds", out.rounds);
    return r;
}

} // namespace owl::smt
