#include "oyster/parser.h"

#include <unordered_set>

#include "base/logging.h"
#include "text/lexer.h"

namespace owl::oyster
{

bool
isOysterReservedWord(const std::string &word)
{
    static const std::unordered_set<std::string> reserved = {
        // Section / declaration / statement keywords.
        "design", "input", "output", "wire", "register", "memory",
        "rom", "hole", "write",
        // Expression-leading keywords.
        "if", "then", "else", "read", "zext", "sext", "rol", "ror",
        "clmul", "clmulh",
    };
    return reserved.count(word) != 0;
}

namespace
{

using text::Lexer;
using text::Token;

class Parser
{
  public:
    Parser(const std::string &text, int firstLine)
        : lex(text, "oyster", firstLine)
    {
    }

    Design
    run()
    {
        expectIdent("design");
        Token name = expect(Token::Ident, "design name");
        checkName(name);
        Design d(name.text);
        while (!lex.atEnd())
            statement(d);
        return d;
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

    /** Reject declarations whose names could not be reparsed. */
    void
    checkName(const Token &name)
    {
        if (isOysterReservedWord(name.text))
            fail("'" + name.text +
                     "' is a reserved word and cannot name a "
                     "design component",
                 name);
    }

    /**
     * Run an IR-building action, rethrowing semantic errors (width
     * mismatches, unknown names, ...) with the statement's location.
     */
    template <typename Fn>
    auto
    checked(const Token &at, Fn &&fn) -> decltype(fn())
    {
        try {
            return fn();
        } catch (const FatalError &e) {
            owl_fatal("oyster parse error at line ", at.line,
                      ", column ", at.col, ": ", e.what());
        }
    }

    void
    statement(Design &d)
    {
        Token head = expect(Token::Ident, "a statement");
        const std::string &w = head.text;
        if (w == "input" || w == "output" || w == "wire" ||
            w == "register" || w == "memory" || w == "rom" ||
            w == "hole") {
            declaration(d, w, head);
            return;
        }
        if (w == "write") {
            Token mem = expect(Token::Ident, "a memory name");
            ExprRef addr = expr(d);
            ExprRef data = expr(d);
            ExprRef enable = expr(d);
            checked(head, [&] {
                d.memWrite(mem.text, addr, data, enable);
            });
            return;
        }
        // Assignment: <target> := <expr>
        Token t = lex.next();
        if (t.kind != Token::Assign)
            fail("expected ':=' after '" + w + "'", t);
        ExprRef value = expr(d);
        checked(head, [&] { d.assign(w, value); });
    }

    void
    declaration(Design &d, const std::string &kind, const Token &head)
    {
        Token name = expect(Token::Ident, "a declaration name");
        checkName(name);
        int width = expectNumber();
        if (kind == "input") {
            checked(head, [&] { d.addInput(name.text, width); });
        } else if (kind == "output") {
            checked(head, [&] { d.addOutput(name.text, width); });
        } else if (kind == "wire") {
            checked(head, [&] { d.addWire(name.text, width); });
        } else if (kind == "register") {
            BitVec reset(width >= 1 ? width : 1);
            // `reset` is context-sensitive, not reserved: it only
            // introduces a reset value when followed by a bitvector
            // constant. `register r 8` + `reset := e` (a wire named
            // reset, as in the accumulator) stays parseable.
            if (lex.peek().kind == Token::Ident &&
                lex.peek().text == "reset" &&
                lex.peek2().kind == Token::BvConst) {
                lex.next();
                reset = *expect(Token::BvConst, "a reset value").bvValue;
            }
            checked(head,
                    [&] { d.addRegister(name.text, width, reset); });
        } else if (kind == "memory" || kind == "rom") {
            expectIdent("addr");
            int aw = expectNumber();
            if (kind == "memory") {
                checked(head,
                        [&] { d.addMemory(name.text, aw, width); });
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
                    *expect(Token::BvConst, "a ROM entry or ')'")
                         .bvValue);
            }
            checked(head, [&] {
                d.addRom(name.text, aw, width, std::move(contents));
            });
        } else if (kind == "hole") {
            std::vector<std::string> deps;
            // Like `reset`: `deps` only opens a dependency list when
            // followed by '('.
            if (lex.peek().kind == Token::Ident &&
                lex.peek().text == "deps" &&
                lex.peek2().kind == Token::Punct &&
                lex.peek2().text == "(") {
                lex.next();
                expectPunct('(');
                if (!(lex.peek().kind == Token::Punct &&
                      lex.peek().text == ")")) {
                    while (true) {
                        deps.push_back(
                            expect(Token::Ident, "a dependency name")
                                .text);
                        Token t = lex.next();
                        if (t.kind == Token::Punct && t.text == ")")
                            break;
                        if (!(t.kind == Token::Punct && t.text == ","))
                            fail("expected ',' or ')' in deps list",
                                 t);
                    }
                } else {
                    lex.next();
                }
            }
            checked(head, [&] {
                d.addHole(name.text, width, std::move(deps));
            });
        }
    }

    ExprRef
    binFromOp(Design &d, const Token &op, ExprRef a, ExprRef b)
    {
        const std::string &w = op.text;
        return checked(op, [&] {
            if (w == "&") return d.opAnd(a, b);
            if (w == "|") return d.opOr(a, b);
            if (w == "^") return d.opXor(a, b);
            if (w == "+") return d.opAdd(a, b);
            if (w == "-") return d.opSub(a, b);
            if (w == "*") return d.opMul(a, b);
            if (w == "==") return d.opEq(a, b);
            if (w == "!=") return d.opNe(a, b);
            if (w == "<u") return d.opUlt(a, b);
            if (w == "<=u") return d.opUle(a, b);
            if (w == "<s") return d.opSlt(a, b);
            if (w == "<=s") return d.opSle(a, b);
            if (w == "<<") return d.opShl(a, b);
            if (w == ">>>") return d.opAshr(a, b);
            if (w == ">>") return d.opLshr(a, b);
            owl_fatal("unknown operator '", w, "'");
        });
    }

    /** Parse a (possibly postfixed) expression. */
    ExprRef
    expr(Design &d)
    {
        return postfix(d, primary(d));
    }

    /** Apply postfix extracts: e[h:l] (may repeat). */
    ExprRef
    postfix(Design &d, ExprRef e)
    {
        while (true) {
            const Token &t = lex.peek();
            if (t.kind == Token::Punct && t.text == "[") {
                Token open = lex.next();
                int high = expectNumber();
                expectPunct(':');
                int low = expectNumber();
                expectPunct(']');
                e = checked(open,
                            [&] { return d.opExtract(e, high, low); });
                continue;
            }
            break;
        }
        return e;
    }

    ExprRef
    primary(Design &d)
    {
        Token t = lex.next();
        Lexer::Nest nest(lex, t);
        if (t.kind == Token::BvConst)
            return d.lit(*t.bvValue);
        if (t.kind == Token::Op && (t.text == "~" || t.text == "-")) {
            // The operand is parsed outside checked(): its own errors
            // are located already and must not be re-wrapped once per
            // enclosing operator.
            ExprRef a = postfix(d, primary(d));
            return checked(t, [&] {
                return t.text == "~" ? d.opNot(a) : d.opNeg(a);
            });
        }
        if (t.kind == Token::Punct && t.text == "(") {
            ExprRef a = expr(d);
            Token op = lex.next();
            // Parenthesized group: (e). The printer wraps operands of
            // postfix extracts this way; see exprToString.
            if (op.kind == Token::Punct && op.text == ")")
                return a;
            if (op.kind != Token::Op)
                fail("expected an operator or ')'", op);
            ExprRef b = expr(d);
            expectPunct(')');
            return binFromOp(d, op, a, b);
        }
        if (t.kind == Token::Punct && t.text == "{") {
            ExprRef hi = expr(d);
            expectPunct(',');
            ExprRef lo = expr(d);
            expectPunct('}');
            return checked(t, [&] { return d.opConcat(hi, lo); });
        }
        if (t.kind == Token::Ident) {
            const std::string &w = t.text;
            if (w == "if") {
                ExprRef c = expr(d);
                expectIdent("then");
                ExprRef a = expr(d);
                expectIdent("else");
                ExprRef b = expr(d);
                return checked(t, [&] { return d.opIte(c, a, b); });
            }
            if (w == "read") {
                Token mem = expect(Token::Ident, "a memory name");
                ExprRef addr = expr(d);
                return checked(
                    t, [&] { return d.opRead(mem.text, addr); });
            }
            if (w == "zext" || w == "sext") {
                expectPunct('(');
                ExprRef a = expr(d);
                expectPunct(',');
                int width = expectNumber();
                expectPunct(')');
                return checked(t, [&] {
                    return w == "zext" ? d.opZExt(a, width)
                                       : d.opSExt(a, width);
                });
            }
            if (w == "rol" || w == "ror" || w == "clmul" ||
                w == "clmulh") {
                expectPunct('(');
                ExprRef a = expr(d);
                expectPunct(',');
                ExprRef b = expr(d);
                expectPunct(')');
                return checked(t, [&] {
                    if (w == "rol")
                        return d.opRol(a, b);
                    if (w == "ror")
                        return d.opRor(a, b);
                    if (w == "clmul")
                        return d.opClmul(a, b);
                    return d.opClmulh(a, b);
                });
            }
            return checked(t, [&] { return d.var(w); });
        }
        fail("unexpected token in expression", t);
    }
};

} // namespace

Design
parseOyster(const std::string &text, int firstLine)
{
    Parser p(text, firstLine);
    return p.run();
}

} // namespace owl::oyster
