#include "oyster/lint.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/logging.h"

namespace owl::lint
{

using oyster::Decl;
using oyster::DeclKind;
using oyster::Design;
using oyster::ExOp;
using oyster::Expr;
using oyster::ExprRef;
using oyster::Stmt;

namespace
{

std::string
designLoc(const Design &d)
{
    return "design " + d.name();
}

std::string
stmtLoc(const Design &d, size_t i, const Stmt &s)
{
    return designLoc(d) + ", stmt #" + std::to_string(i) + " ('" +
           (s.kind == Stmt::Assign ? s.target : s.mem) + "')";
}

/**
 * Width/arity/reference checks for one expression node. Returns false
 * when the node is too broken to recurse through (bad child refs).
 */
class ExprChecker
{
  public:
    ExprChecker(const Design &d, Report &report)
        : d(d), report(report), checked(d.exprCount(), 0)
    {
    }

    /**
     * Check the node and everything below it (memoized). Walks an
     * explicit stack, so an arbitrarily deep expression cannot
     * overflow the call stack.
     */
    void
    check(ExprRef root, const std::string &loc)
    {
        struct Frame
        {
            ExprRef r;
            size_t next = 0;
            bool kidsOk = true;
        };
        std::vector<Frame> stack;
        auto enter = [&](ExprRef r) {
            if (!valid(r, r, loc) || checked[r.idx])
                return;
            checked[r.idx] = 1;
            stack.push_back({r});
        };
        enter(root);
        while (!stack.empty()) {
            Frame &f = stack.back();
            const Expr &e = d.expr(f.r);
            if (f.next < e.kids.size()) {
                ExprRef k = e.kids[f.next++];
                if (valid(f.r, k, loc))
                    enter(k);
                else
                    f.kidsOk = false;
                continue;
            }
            // Children first: a parent's width rule assumes kid
            // widths are meaningful.
            if (f.kidsOk)
                checkNode(f.r, e, loc);
            stack.pop_back();
        }
    }

  private:
    const Design &d;
    Report &report;
    std::vector<uint8_t> checked;

    bool
    valid(ExprRef parent, ExprRef r, const std::string &loc)
    {
        if (r.idx < 0 ||
            static_cast<size_t>(r.idx) >= d.exprCount()) {
            report.error("oyster.expr-ref", loc,
                         "expression reference #" +
                             std::to_string(r.idx) +
                             " is out of range (pool has " +
                             std::to_string(d.exprCount()) +
                             " nodes)");
            return false;
        }
        // The pool is append-only, so a well-formed DAG's children
        // always precede their parent; a forward edge means the pool
        // was corrupted (and could cycle).
        if (parent.idx != r.idx && r.idx >= parent.idx) {
            report.error("oyster.expr-ref", loc,
                         "expression #" + std::to_string(parent.idx) +
                             " has non-topological child #" +
                             std::to_string(r.idx));
            return false;
        }
        return true;
    }

    void
    widthError(ExprRef r, const Expr &e, const std::string &loc,
               const std::string &msg)
    {
        report.error("oyster.width-mismatch", loc,
                     "expression #" + std::to_string(r.idx) + " (" +
                         std::to_string(static_cast<int>(e.op)) +
                         "): " + msg);
    }

    void
    checkNode(ExprRef r, const Expr &e, const std::string &loc)
    {
        auto kidw = [&](size_t i) { return d.expr(e.kids[i]).width; };
        auto require_arity = [&](size_t n) {
            if (e.kids.size() != n) {
                report.error(
                    "oyster.expr-ref", loc,
                    "expression #" + std::to_string(r.idx) +
                        " expects " + std::to_string(n) +
                        " children, has " +
                        std::to_string(e.kids.size()));
                return false;
            }
            return true;
        };
        auto same_width_bin = [&](int out_width) {
            if (!require_arity(2))
                return;
            if (kidw(0) != kidw(1)) {
                widthError(r, e, loc,
                           "operand widths differ (" +
                               std::to_string(kidw(0)) + " vs " +
                               std::to_string(kidw(1)) + ")");
            }
            int want = out_width > 0 ? out_width : kidw(0);
            if (e.width != want) {
                widthError(r, e, loc,
                           "result width " + std::to_string(e.width) +
                               " should be " + std::to_string(want));
            }
        };
        switch (e.op) {
          case ExOp::Var: {
            if (!d.hasDecl(e.name)) {
                report.error("oyster.undeclared", loc,
                             "reference to undeclared name '" +
                                 e.name + "'");
                return;
            }
            const Decl &dc = d.decl(e.name);
            if (dc.kind == DeclKind::Memory ||
                dc.kind == DeclKind::Rom) {
                report.error("oyster.undeclared", loc,
                             "memory '" + e.name +
                                 "' used as a scalar value");
                return;
            }
            if (e.width != dc.width) {
                widthError(r, e, loc,
                           "'" + e.name + "' declared " +
                               std::to_string(dc.width) +
                               " bits, referenced as " +
                               std::to_string(e.width));
            }
            break;
          }
          case ExOp::Const:
            if (e.width != e.cval.width()) {
                widthError(r, e, loc,
                           "constant value is " +
                               std::to_string(e.cval.width()) +
                               " bits, node says " +
                               std::to_string(e.width));
            }
            break;
          case ExOp::Not:
          case ExOp::Neg:
            if (require_arity(1) && e.width != kidw(0))
                widthError(r, e, loc, "unary op must keep width");
            break;
          case ExOp::And:
          case ExOp::Or:
          case ExOp::Xor:
          case ExOp::Add:
          case ExOp::Sub:
          case ExOp::Mul:
          case ExOp::Clmul:
          case ExOp::Clmulh:
            same_width_bin(0);
            break;
          case ExOp::Eq:
          case ExOp::Ne:
          case ExOp::Ult:
          case ExOp::Ule:
          case ExOp::Slt:
          case ExOp::Sle:
            same_width_bin(1);
            break;
          case ExOp::Ite:
            if (!require_arity(3))
                return;
            if (kidw(0) != 1)
                widthError(r, e, loc, "ite condition must be 1 bit");
            if (kidw(1) != kidw(2) || e.width != kidw(1))
                widthError(r, e, loc, "ite branch width mismatch");
            break;
          case ExOp::Extract:
            if (!require_arity(1))
                return;
            if (!(e.b >= 0 && e.a >= e.b && e.a < kidw(0))) {
                widthError(r, e, loc,
                           "extract [" + std::to_string(e.a) + ":" +
                               std::to_string(e.b) + "] of " +
                               std::to_string(kidw(0)) +
                               "-bit expression");
            } else if (e.width != e.a - e.b + 1) {
                widthError(r, e, loc, "extract result width wrong");
            }
            break;
          case ExOp::Concat:
            if (require_arity(2) && e.width != kidw(0) + kidw(1))
                widthError(r, e, loc, "concat width is not the sum");
            break;
          case ExOp::ZExt:
          case ExOp::SExt:
            if (require_arity(1) && e.width < kidw(0))
                widthError(r, e, loc, "extension to smaller width");
            break;
          case ExOp::Shl:
          case ExOp::Lshr:
          case ExOp::Ashr:
          case ExOp::Rol:
          case ExOp::Ror:
            // The amount operand's width is free.
            if (require_arity(2) && e.width != kidw(0))
                widthError(r, e, loc, "shift must keep value width");
            break;
          case ExOp::Read: {
            if (!require_arity(1))
                return;
            if (!d.hasDecl(e.name)) {
                report.error("oyster.undeclared", loc,
                             "read of undeclared memory '" + e.name +
                                 "'");
                return;
            }
            const Decl &dc = d.decl(e.name);
            if (dc.kind != DeclKind::Memory &&
                dc.kind != DeclKind::Rom) {
                report.error("oyster.undeclared", loc,
                             "read of non-memory '" + e.name + "'");
                return;
            }
            if (kidw(0) != dc.addrWidth) {
                report.error("oyster.read-width", loc,
                             "read address is " +
                                 std::to_string(kidw(0)) +
                                 " bits, memory '" + e.name +
                                 "' expects " +
                                 std::to_string(dc.addrWidth));
            }
            if (e.width != dc.width) {
                report.error("oyster.read-width", loc,
                             "read data width " +
                                 std::to_string(e.width) +
                                 " does not match memory '" + e.name +
                                 "' width " +
                                 std::to_string(dc.width));
            }
            break;
          }
        }
    }
};

/** Names of all Var references inside an expression tree. */
void
collectVarUses(const Design &d, ExprRef root,
               std::unordered_set<std::string> &out)
{
    if (root.idx < 0 || static_cast<size_t>(root.idx) >= d.exprCount())
        return;
    std::vector<ExprRef> stack{root};
    while (!stack.empty()) {
        ExprRef r = stack.back();
        stack.pop_back();
        const Expr &e = d.expr(r);
        if (e.op == ExOp::Var)
            out.insert(e.name);
        for (ExprRef k : e.kids) {
            if (k.idx >= 0 &&
                static_cast<size_t>(k.idx) < d.exprCount() &&
                k.idx < r.idx) {
                stack.push_back(k);
            }
        }
    }
}

} // namespace

void
lintDesign(const Design &design, const DesignLintOptions &opts,
           Report &report)
{
    const std::string dloc = designLoc(design);

    // ---- declarations --------------------------------------------------
    for (const Decl &dc : design.decls()) {
        if (dc.kind == DeclKind::Hole && !opts.allowHoles) {
            report.error("oyster.holes-remain", dloc,
                         "design still contains hole '" + dc.name +
                             "'");
        }
        if (dc.kind == DeclKind::Hole) {
            for (const std::string &dep : dc.holeDeps) {
                if (!design.hasDecl(dep)) {
                    report.error("oyster.hole-dep-unknown", dloc,
                                 "hole '" + dc.name +
                                     "' lists undeclared dependency '" +
                                     dep + "'");
                }
            }
        }
    }

    // ---- statements ----------------------------------------------------
    ExprChecker exprs(design, report);
    std::unordered_map<std::string, size_t> assign_count;
    std::unordered_set<std::string> used;
    size_t i = 0;
    for (const Stmt &s : design.stmts()) {
        const std::string loc = stmtLoc(design, i, s);
        if (s.kind == Stmt::Assign) {
            if (!design.hasDecl(s.target)) {
                report.error("oyster.undeclared", loc,
                             "assignment to undeclared name '" +
                                 s.target + "'");
                i++;
                continue;
            }
            const Decl &dc = design.decl(s.target);
            switch (dc.kind) {
              case DeclKind::Wire:
              case DeclKind::Output:
              case DeclKind::Register:
                break;
              case DeclKind::Hole:
                report.error("oyster.hole-assigned", loc,
                             "hole '" + s.target +
                                 "' must not be assigned");
                break;
              default:
                report.error("oyster.undeclared", loc,
                             "cannot assign to " +
                                 std::string(declKindName(dc.kind)) +
                                 " '" + s.target + "'");
                break;
            }
            if (++assign_count[s.target] == 2) {
                // Report once per over-assigned target.
                report.error("oyster.multiple-assign", loc,
                             "multiple assignments to '" + s.target +
                                 "'");
            }
            exprs.check(s.value, loc);
            if (static_cast<size_t>(s.value.idx) <
                    design.exprCount() &&
                s.value.idx >= 0 &&
                dc.width != design.exprWidth(s.value)) {
                report.error("oyster.width-mismatch", loc,
                             "assignment width mismatch for '" +
                                 s.target + "': declared " +
                                 std::to_string(dc.width) +
                                 ", assigned " +
                                 std::to_string(
                                     design.exprWidth(s.value)));
            }
            collectVarUses(design, s.value, used);
        } else {
            if (!design.hasDecl(s.mem)) {
                report.error("oyster.undeclared", loc,
                             "write to undeclared memory '" + s.mem +
                                 "'");
                i++;
                continue;
            }
            const Decl &dc = design.decl(s.mem);
            if (dc.kind != DeclKind::Memory) {
                report.error("oyster.undeclared", loc,
                             "write to non-memory '" + s.mem + "'");
            }
            exprs.check(s.addr, loc);
            exprs.check(s.data, loc);
            exprs.check(s.enable, loc);
            auto w = [&](ExprRef r) {
                return (r.idx >= 0 && static_cast<size_t>(r.idx) <
                                          design.exprCount())
                           ? design.exprWidth(r)
                           : -1;
            };
            if (dc.kind == DeclKind::Memory) {
                if (w(s.addr) != dc.addrWidth) {
                    report.error("oyster.read-width", loc,
                                 "write address width mismatch for '" +
                                     s.mem + "'");
                }
                if (w(s.data) != dc.width) {
                    report.error("oyster.read-width", loc,
                                 "write data width mismatch for '" +
                                     s.mem + "'");
                }
            }
            if (w(s.enable) != 1) {
                report.error("oyster.width-mismatch", loc,
                             "write enable must be 1 bit wide");
            }
            collectVarUses(design, s.addr, used);
            collectVarUses(design, s.data, used);
            collectVarUses(design, s.enable, used);
        }
        i++;
    }

    // ---- assignment coverage -------------------------------------------
    for (const Decl &dc : design.decls()) {
        bool assigned = assign_count.count(dc.name) != 0;
        if ((dc.kind == DeclKind::Wire ||
             dc.kind == DeclKind::Output) &&
            !assigned) {
            report.error("oyster.unassigned", dloc,
                         "unassigned " +
                             std::string(declKindName(dc.kind)) +
                             " '" + dc.name + "'");
        }
    }

    // ---- hole reachability ---------------------------------------------
    // A hole no statement reads cannot influence any register, output
    // or memory: whatever the synthesizer fills in is dead logic, so
    // no opcode path reaches the control point and the sketch is
    // under-constrained (likely a renamed wire or a forgotten use).
    if (opts.holeReachability) {
        for (const Decl &dc : design.decls()) {
            if (dc.kind != DeclKind::Hole)
                continue;
            if (!used.count(dc.name)) {
                report.warning("oyster.hole-unreachable", dloc,
                               "hole '" + dc.name +
                                   "' is never read by any statement; "
                                   "the sketch is under-constrained");
            }
        }
    }
}

Report
lintDesign(const Design &design, const DesignLintOptions &opts)
{
    Report report;
    lintDesign(design, opts, report);
    return report;
}

void
checkDesign(const Design &design, bool allow_holes)
{
    DesignLintOptions opts;
    opts.allowHoles = allow_holes;
    // Reachability warnings are not validation failures; skip the
    // extra walk on this hot-ish path.
    opts.holeReachability = false;
    Report report = lintDesign(design, opts);
    if (report.hasErrors()) {
        owl_fatal("design ", design.name(), " failed validation (",
                  report.summary(), "):\n", report.errorsToString());
    }
}

} // namespace owl::lint
