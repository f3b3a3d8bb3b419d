#include "text/ila_text.h"

#include <sstream>
#include <unordered_set>

#include "base/logging.h"
#include "text/lexer.h"

namespace owl::text
{

using ila::Ila;
using ila::IlaContext;
using ila::IlaExpr;
using ila::IlaNode;
using ila::IlaOp;
using ila::Instr;
using ila::StateInfo;
using ila::StateKind;

bool
isIlaReservedWord(const std::string &word)
{
    // Unlike Oyster, the spec grammar has no identifier-led
    // statements (no assignments), so statement keywords like
    // `state` or `update` can never be ambiguous at statement-head
    // position and stay usable as names — the accumulator spec
    // really does have a state called `state`. Only the keywords
    // that lead or continue an *expression* can collide with a bare
    // identifier operand, and only those are reserved.
    static const std::unordered_set<std::string> reserved = {
        "if", "then", "else", "load", "store", "zext", "sext", "rol",
        "ror", "clmul", "clmulh",
    };
    return reserved.count(word) != 0;
}

namespace
{

const char *
ilaOpSymbol(IlaOp op)
{
    switch (op) {
      case IlaOp::And: return "&";
      case IlaOp::Or: return "|";
      case IlaOp::Xor: return "^";
      case IlaOp::Add: return "+";
      case IlaOp::Sub: return "-";
      case IlaOp::Mul: return "*";
      case IlaOp::Eq: return "==";
      case IlaOp::Ult: return "<u";
      case IlaOp::Ule: return "<=u";
      case IlaOp::Slt: return "<s";
      case IlaOp::Sle: return "<=s";
      case IlaOp::Shl: return "<<";
      case IlaOp::Lshr: return ">>";
      case IlaOp::Ashr: return ">>>";
      default: return nullptr;
    }
}

/** Same contract as the oyster printer's name check. */
void
checkPrintableName(const char *what, const std::string &name)
{
    if (!isIdentifier(name))
        owl_fatal("cannot print spec: ", what, " '", name,
                  "' is not a valid identifier");
    if (isIlaReservedWord(name))
        owl_fatal("cannot print spec: ", what, " '", name,
                  "' is a reserved word in the spec grammar");
}

} // namespace

std::string
ilaExprToString(const IlaContext &ctx, int32_t idx)
{
    const IlaNode &e = ctx.node(idx);
    std::ostringstream os;
    auto kid = [&](int i) { return ilaExprToString(ctx, e.kids[i]); };
    if (const char *sym = ilaOpSymbol(e.op)) {
        os << "(" << kid(0) << " " << sym << " " << kid(1) << ")";
        return os.str();
    }
    switch (e.op) {
      case IlaOp::Const:
        os << e.cval.toString();
        break;
      case IlaOp::StateVar:
      case IlaOp::InputVar:
        os << ctx.state(e.a).name;
        break;
      case IlaOp::Not:
        os << "~" << kid(0);
        break;
      case IlaOp::Neg:
        os << "-" << kid(0);
        break;
      case IlaOp::Ite:
        os << "if " << kid(0) << " then " << kid(1) << " else "
           << kid(2);
        break;
      case IlaOp::Extract: {
        // Same reparse hazard as the oyster printer: a postfix [h:l]
        // binds to the nearest primary, so operands whose printed
        // form does not self-close need parentheses.
        const IlaNode &k = ctx.node(e.kids[0]);
        bool paren = k.op == IlaOp::Ite || k.op == IlaOp::Not ||
                     k.op == IlaOp::Neg;
        os << (paren ? "(" : "") << kid(0) << (paren ? ")" : "")
           << "[" << e.a << ":" << e.b << "]";
        break;
      }
      case IlaOp::Concat:
        os << "{" << kid(0) << ", " << kid(1) << "}";
        break;
      case IlaOp::ZExt:
        os << "zext(" << kid(0) << ", " << e.width << ")";
        break;
      case IlaOp::SExt:
        os << "sext(" << kid(0) << ", " << e.width << ")";
        break;
      case IlaOp::Rol:
        os << "rol(" << kid(0) << ", " << kid(1) << ")";
        break;
      case IlaOp::Ror:
        os << "ror(" << kid(0) << ", " << kid(1) << ")";
        break;
      case IlaOp::Clmul:
        os << "clmul(" << kid(0) << ", " << kid(1) << ")";
        break;
      case IlaOp::Clmulh:
        os << "clmulh(" << kid(0) << ", " << kid(1) << ")";
        break;
      case IlaOp::Load:
        os << "load(" << kid(0) << ", " << kid(1) << ")";
        break;
      case IlaOp::Store:
        os << "store(" << kid(0) << ", " << kid(1) << ", " << kid(2)
           << ")";
        break;
      default:
        owl_panic("unhandled op in ILA printer");
    }
    return os.str();
}

std::string
printIla(const Ila &m)
{
    const IlaContext &ctx = m.ctx();
    checkPrintableName("spec name", m.name());
    for (const StateInfo &s : ctx.states())
        checkPrintableName("state", s.name);
    for (const auto &i : m.instrs())
        checkPrintableName("instruction", i->name());
    std::ostringstream os;
    os << "spec " << m.name() << "\n";
    for (const StateInfo &s : ctx.states()) {
        switch (s.kind) {
          case StateKind::Input:
            os << "  input " << s.name << " " << s.width << "\n";
            break;
          case StateKind::BvState:
            os << "  state " << s.name << " " << s.width << "\n";
            break;
          case StateKind::MemState:
            os << "  mem " << s.name << " addr " << s.addrWidth
               << " data " << s.width << "\n";
            break;
          case StateKind::MemConst: {
            os << "  table " << s.name << " addr " << s.addrWidth
               << " data " << s.width << " contents(";
            for (size_t i = 0; i < s.constContents.size(); i++)
                os << (i ? " " : "") << s.constContents[i].toString();
            os << ")\n";
            break;
          }
        }
    }
    if (m.hasFetch())
        os << "  fetch " << ilaExprToString(ctx, m.fetch().idx())
           << "\n";
    for (const auto &i : m.instrs()) {
        os << "  instr " << i->name() << "\n";
        if (i->hasDecode())
            os << "    decode "
               << ilaExprToString(ctx, i->decode().idx()) << "\n";
        for (const ila::Update &u : i->updates()) {
            os << "    update " << ctx.state(u.stateIdx).name << " "
               << ilaExprToString(ctx, u.value.idx()) << "\n";
        }
    }
    return os.str();
}

namespace
{

class SpecParser
{
  public:
    SpecParser(const std::string &text, int firstLine)
        : lex(text, "spec", firstLine)
    {
    }

    std::unique_ptr<Ila>
    run()
    {
        expectIdent("spec");
        Token name = expect(Token::Ident, "spec name");
        checkName(name, "a spec");
        auto m = std::make_unique<Ila>(name.text);
        Instr *current = nullptr;
        while (!lex.atEnd())
            statement(*m, current);
        return m;
    }

  private:
    Lexer lex;

    [[noreturn]] void
    fail(const std::string &msg, const Token &t)
    {
        lex.fail(msg, t);
    }

    Token
    expect(Token::Kind kind, const char *what)
    {
        Token t = lex.next();
        if (t.kind != kind)
            fail(std::string("expected ") + what, t);
        return t;
    }

    void
    expectIdent(const std::string &word)
    {
        Token t = lex.next();
        if (t.kind != Token::Ident || t.text != word)
            fail("expected '" + word + "'", t);
    }

    void
    expectPunct(char c)
    {
        Token t = lex.next();
        if (t.kind != Token::Punct || t.text[0] != c)
            fail(std::string("expected '") + c + "'", t);
    }

    int
    expectNumber()
    {
        return expect(Token::Number, "a number").intValue;
    }

    void
    checkName(const Token &name, const char *what)
    {
        if (isIlaReservedWord(name.text))
            fail("'" + name.text +
                     "' is a reserved word and cannot name " +
                     what + " component",
                 name);
    }

    /**
     * Run a model-building action, converting semantic errors (width
     * mismatches, sort mismatches, unknown states, ...) into located
     * parse errors. PanicError is caught too: expression factories
     * guard some sort errors with owl_assert, and text input must not
     * be able to crash the process through them.
     */
    template <typename Fn>
    auto
    checked(const Token &at, Fn &&fn) -> decltype(fn())
    {
        try {
            return fn();
        } catch (const FatalError &e) {
            owl_fatal("spec parse error at line ", at.line,
                      ", column ", at.col, ": ", e.what());
        } catch (const PanicError &e) {
            owl_fatal("spec parse error at line ", at.line,
                      ", column ", at.col, ": ", e.what());
        }
    }

    void
    statement(Ila &m, Instr *&current)
    {
        Token head = expect(Token::Ident, "a spec statement");
        const std::string &w = head.text;
        if (w == "input" || w == "state") {
            Token name = expect(Token::Ident, "a state name");
            checkName(name, "a spec");
            int width = expectNumber();
            checked(head, [&] {
                return w == "input" ? m.NewBvInput(name.text, width)
                                    : m.NewBvState(name.text, width);
            });
            return;
        }
        if (w == "mem" || w == "table") {
            Token name = expect(Token::Ident, "a memory name");
            checkName(name, "a spec");
            expectIdent("addr");
            int aw = expectNumber();
            expectIdent("data");
            int dw = expectNumber();
            if (w == "mem") {
                checked(head,
                        [&] { return m.NewMemState(name.text, aw, dw); });
                return;
            }
            expectIdent("contents");
            expectPunct('(');
            std::vector<BitVec> contents;
            while (true) {
                const Token &t = lex.peek();
                if (t.kind == Token::Punct && t.text == ")") {
                    lex.next();
                    break;
                }
                contents.push_back(
                    *expect(Token::BvConst, "a table entry or ')'")
                         .bvValue);
            }
            checked(head, [&] {
                return m.NewMemConst(name.text, aw, dw,
                                     std::move(contents));
            });
            return;
        }
        if (w == "fetch") {
            IlaExpr f = expr(m);
            checked(head, [&] { m.SetFetch(f); });
            return;
        }
        if (w == "instr") {
            Token name = expect(Token::Ident, "an instruction name");
            checkName(name, "a spec");
            current = &checked(head, [&]() -> Instr & {
                return m.NewInstr(name.text);
            });
            return;
        }
        if (w == "decode") {
            if (!current)
                fail("'decode' before any 'instr'", head);
            IlaExpr c = expr(m);
            checked(head, [&] { current->SetDecode(c); });
            return;
        }
        if (w == "update") {
            if (!current)
                fail("'update' before any 'instr'", head);
            Token st = expect(Token::Ident, "a state name");
            IlaExpr v = expr(m);
            checked(head, [&] {
                current->SetUpdate(m.state(st.text), v);
            });
            return;
        }
        fail("expected a spec statement (input/state/mem/table/fetch/"
             "instr/decode/update)",
             head);
    }

    IlaExpr
    binFromOp(Ila &, const Token &op, IlaExpr a, IlaExpr b)
    {
        const std::string &w = op.text;
        return checked(op, [&]() -> IlaExpr {
            if (w == "&") return a & b;
            if (w == "|") return a | b;
            if (w == "^") return a ^ b;
            if (w == "+") return a + b;
            if (w == "-") return a - b;
            if (w == "*") return Mul(a, b);
            if (w == "==") return a == b;
            if (w == "!=") return a != b;
            if (w == "<u") return a < b;
            if (w == "<=u") return a <= b;
            if (w == "<s") return Slt(a, b);
            if (w == "<=s") return Sle(a, b);
            if (w == "<<") return Shl(a, b);
            if (w == ">>>") return Ashr(a, b);
            if (w == ">>") return Lshr(a, b);
            owl_fatal("unknown operator '", w, "'");
        });
    }

    IlaExpr
    expr(Ila &m)
    {
        return postfix(m, primary(m));
    }

    IlaExpr
    postfix(Ila &, IlaExpr e)
    {
        while (true) {
            const Token &t = lex.peek();
            if (t.kind == Token::Punct && t.text == "[") {
                Token open = lex.next();
                int high = expectNumber();
                expectPunct(':');
                int low = expectNumber();
                expectPunct(']');
                e = checked(open, [&] {
                    return ila::Extract(e, high, low);
                });
                continue;
            }
            break;
        }
        return e;
    }

    IlaExpr
    primary(Ila &m)
    {
        Token t = lex.next();
        Lexer::Nest nest(lex, t);
        if (t.kind == Token::BvConst)
            return m.ctx().makeConst(*t.bvValue);
        if (t.kind == Token::Op && (t.text == "~" || t.text == "-")) {
            // As in the Oyster parser: the operand's errors are located
            // already and must not be re-wrapped per operator.
            IlaExpr a = postfix(m, primary(m));
            return checked(t, [&] {
                return m.ctx().makeUnop(
                    t.text == "~" ? IlaOp::Not : IlaOp::Neg, a);
            });
        }
        if (t.kind == Token::Punct && t.text == "(") {
            IlaExpr a = expr(m);
            Token op = lex.next();
            if (op.kind == Token::Punct && op.text == ")")
                return a;
            if (op.kind != Token::Op)
                fail("expected an operator or ')'", op);
            IlaExpr b = expr(m);
            expectPunct(')');
            return binFromOp(m, op, a, b);
        }
        if (t.kind == Token::Punct && t.text == "{") {
            IlaExpr hi = expr(m);
            expectPunct(',');
            IlaExpr lo = expr(m);
            expectPunct('}');
            return checked(t, [&] { return ila::Concat(hi, lo); });
        }
        if (t.kind == Token::Ident) {
            const std::string &w = t.text;
            if (w == "if") {
                IlaExpr c = expr(m);
                expectIdent("then");
                IlaExpr a = expr(m);
                expectIdent("else");
                IlaExpr b = expr(m);
                return checked(t, [&] { return ila::Ite(c, a, b); });
            }
            if (w == "zext" || w == "sext") {
                expectPunct('(');
                IlaExpr a = expr(m);
                expectPunct(',');
                int width = expectNumber();
                expectPunct(')');
                return checked(t, [&] {
                    return w == "zext" ? ila::ZExt(a, width)
                                       : ila::SExt(a, width);
                });
            }
            if (w == "rol" || w == "ror" || w == "clmul" ||
                w == "clmulh" || w == "load") {
                expectPunct('(');
                IlaExpr a = expr(m);
                expectPunct(',');
                IlaExpr b = expr(m);
                expectPunct(')');
                return checked(t, [&]() -> IlaExpr {
                    if (w == "rol")
                        return ila::Rol(a, b);
                    if (w == "ror")
                        return ila::Ror(a, b);
                    if (w == "clmul")
                        return ila::Clmul(a, b);
                    if (w == "clmulh")
                        return ila::Clmulh(a, b);
                    return ila::Load(a, b);
                });
            }
            if (w == "store") {
                expectPunct('(');
                IlaExpr mem = expr(m);
                expectPunct(',');
                IlaExpr addr = expr(m);
                expectPunct(',');
                IlaExpr data = expr(m);
                expectPunct(')');
                return checked(t, [&] {
                    return ila::Store(mem, addr, data);
                });
            }
            return checked(t, [&] { return m.state(w); });
        }
        fail("unexpected token in expression", t);
    }
};

} // namespace

std::unique_ptr<Ila>
parseIla(const std::string &text, int firstLine)
{
    SpecParser p(text, firstLine);
    return p.run();
}

} // namespace owl::text
