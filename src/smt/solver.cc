#include "smt/solver.h"

#include "obs/obs.h"
#include "smt/incremental.h"

namespace owl::smt
{

BitVec
Model::varValue(const TermTable &tt, int var_id) const
{
    TermRef t = tt.varTerm(var_id);
    auto it = leafValues.find(t.idx);
    if (it != leafValues.end())
        return it->second;
    return BitVec(tt.varInfo(var_id).width);
}

Assignment
Model::toAssignment(const TermTable &tt) const
{
    Assignment asg;
    for (const auto &[idx, val] : leafValues) {
        const Node &n = tt.node(TermRef{idx});
        if (n.op == Op::Var) {
            asg.setVar(n.a, val);
        } else if (n.op == Op::BaseRead) {
            // Only concrete-address base reads can be replayed into an
            // Assignment; symbolic-address reads need the containing
            // query's other leaves to resolve, which evalTerm does via
            // the address child.
            if (tt.isConst(n.children[0])) {
                asg.setMemWord(n.a,
                               tt.constValue(n.children[0]).toUint64(),
                               val);
            }
        }
    }
    return asg;
}

sat::Solver::Options
SolverPolicy::satOptions() const
{
    sat::Solver::Options o;
    o.simp.enabled = preprocess;
    return o;
}

CheckResult
checkSat(TermTable &tt, const std::vector<TermRef> &assertions,
         Model *model, const SolveLimits &limits, CheckStats *stats)
{
    // The span and the query clock cover the whole query, blasting
    // included.
    obs::ScopedSpan span("smt.checkSat");
    uint64_t q_start = obs::enabled() ? obs::nowNs() : 0;
    IncrementalContext ctx(tt, limits.solver);
    ctx.assertPermanent(assertions);
    ctx.seal();
    return ctx.run(span, q_start, model, limits, stats, {});
}

} // namespace owl::smt
