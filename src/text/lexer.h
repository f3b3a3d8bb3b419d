/**
 * @file
 * Shared lexer for the textual frontends (Oyster designs, ILA specs,
 * `.owl` bundles). One token language covers all of them: identifiers,
 * decimal integers, sized bitvector constants (`8'h3f`), punctuation,
 * and the operator set of the Oyster expression grammar.
 *
 * Every token carries its 1-based line and column, and fail() renders
 * diagnostics as
 *
 *   <context> parse error at line L, column C: <msg> (near '<tok>')
 *
 * so parse errors in hand-written `.owl` files point at the offending
 * token instead of just naming it (the original oyster parser had no
 * line tracking at all).
 */

#ifndef OWL_TEXT_LEXER_H
#define OWL_TEXT_LEXER_H

#include <cctype>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "base/bitvec.h"
#include "base/logging.h"

namespace owl::text
{

/** One token. kind/text/values plus the source location. */
struct Token
{
    enum Kind
    {
        Ident,
        Number,   ///< plain integer
        BvConst,  ///< w'hhex
        Punct,    ///< one of ( ) [ ] { } , : ...
        Op,       ///< operator symbol
        Assign,   ///< :=
        End,
    } kind = End;
    std::string text;
    int intValue = 0;
    /** BvConst only: other tokens allocate no bitvector. */
    std::optional<BitVec> bvValue;
    int line = 1, col = 1;

    /** Human-readable rendering for diagnostics. */
    std::string display() const
    {
        if (kind == End)
            return "end of input";
        if (kind == BvConst)
            return bvValue->toString();
        return text;
    }
};

/**
 * Deepest expression nesting the Oyster and ILA-spec parsers accept.
 * Both recurse a few stack frames per level, so deeper input (say
 * 200k '(' or '~') ends in a located "nesting too deep" error instead
 * of a stack overflow. The deepest printed registry design, example or
 * fuzz bundle nests 52 levels (aes). Some walks after parsing (the
 * printer, Verilog emission) recurse per level too; the cap keeps
 * them far from the stack's limit.
 */
constexpr int kMaxExprDepth = 512;

/**
 * The lexer. peek()/peek2() give two tokens of lookahead (needed to
 * disambiguate context-sensitive words like `reset` and `deps` from
 * ordinary identifiers in statement position).
 */
class Lexer
{
  public:
    /**
     * Tokens of `s` are located from line `firstLine`: a section cut
     * out of a larger file reports the file's line numbers.
     */
    Lexer(const std::string &s, std::string context, int firstLine = 1)
        : s(s), ctx(std::move(context)), line(firstLine)
    {
    }

    Token
    next()
    {
        if (!ahead.empty()) {
            Token t = std::move(ahead.front());
            ahead.pop_front();
            return t;
        }
        return lex();
    }

    const Token &
    peek()
    {
        fill(1);
        return ahead[0];
    }

    const Token &
    peek2()
    {
        fill(2);
        return ahead[1];
    }

    bool atEnd() { return peek().kind == Token::End; }

    /** Report a parse error anchored at `t` and throw FatalError. */
    [[noreturn]] void
    fail(const std::string &msg, const Token &t) const
    {
        owl_fatal(ctx, " parse error at line ", t.line, ", column ",
                  t.col, ": ", msg, " (near '", t.display(), "')");
    }

    /**
     * One level of expression nesting, opened at token `t` for the
     * guard's lifetime. Opening level kMaxExprDepth + 1 fails at `t`.
     */
    struct Nest
    {
        Nest(Lexer &lex, const Token &t) : depth(lex.depth)
        {
            if (depth == kMaxExprDepth)
                lex.fail("nesting too deep", t);
            depth++;
        }
        ~Nest() { depth--; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;
        int &depth;
    };

  private:
    const std::string &s;
    std::string ctx;
    int depth = 0; ///< open Nest guards
    size_t pos = 0;
    int line;
    int lineStart = 0; ///< offset of the current line's first char
    std::deque<Token> ahead;

    void
    fill(size_t n)
    {
        while (ahead.size() < n)
            ahead.push_back(lex());
    }

    int column() const { return static_cast<int>(pos) - lineStart + 1; }

    void
    advance()
    {
        if (s[pos] == '\n') {
            line++;
            lineStart = static_cast<int>(pos) + 1;
        }
        pos++;
    }

    void
    skipSpace()
    {
        while (pos < s.size()) {
            if (std::isspace(static_cast<unsigned char>(s[pos]))) {
                advance();
            } else if (s[pos] == '#') {
                while (pos < s.size() && s[pos] != '\n')
                    advance();
            } else {
                break;
            }
        }
    }

    Token
    lex()
    {
        skipSpace();
        Token t;
        t.line = line;
        t.col = column();
        if (pos >= s.size()) {
            t.kind = Token::End;
            return t;
        }
        char c = s[pos];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
            return identifier(t);
        if (std::isdigit(static_cast<unsigned char>(c)))
            return number(t);
        return punctOrOp(t);
    }

    Token
    identifier(Token t)
    {
        size_t start = pos;
        while (pos < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '_' || s[pos] == '.')) {
            advance();
        }
        t.kind = Token::Ident;
        t.text = s.substr(start, pos - start);
        return t;
    }

    Token
    number(Token t)
    {
        size_t start = pos;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos]))) {
            advance();
        }
        std::string digits = s.substr(start, pos - start);
        errno = 0;
        long value = strtol(digits.c_str(), nullptr, 10);
        if (errno == ERANGE || value > 1000000000L)
            fail("integer literal too large", withText(t, digits));
        // Bitvector literal: <width>'h<hex>
        if (pos + 1 < s.size() && s[pos] == '\'' &&
            (s[pos + 1] == 'h' || s[pos + 1] == 'H')) {
            advance();
            advance();
            if (value < 1)
                fail("bitvector literal needs a positive width",
                     withText(t, digits));
            size_t hs = pos;
            while (pos < s.size() &&
                   std::isxdigit(static_cast<unsigned char>(s[pos]))) {
                advance();
            }
            if (pos == hs)
                fail("expected hex digits after '" + digits + "'h'",
                     withText(t, digits + "'h"));
            t.kind = Token::BvConst;
            t.intValue = static_cast<int>(value);
            t.bvValue = BitVec::fromHex(static_cast<int>(value),
                                        s.substr(hs, pos - hs));
            return t;
        }
        t.kind = Token::Number;
        t.text = digits;
        t.intValue = static_cast<int>(value);
        return t;
    }

    Token
    punctOrOp(Token t)
    {
        // Longest-match multi-character operators first.
        static const char *ops[] = {":=",  "==", "!=", "<=u", "<=s",
                                    "<u",  "<s", ">>>", "<<",  ">>",
                                    "&",   "|",  "^",  "+",   "-",
                                    "*",   "~"};
        for (const char *op : ops) {
            size_t n = strlen(op);
            if (s.compare(pos, n, op) == 0) {
                for (size_t i = 0; i < n; i++)
                    advance();
                t.kind = strcmp(op, ":=") == 0 ? Token::Assign
                                               : Token::Op;
                t.text = op;
                return t;
            }
        }
        char c = s[pos];
        advance();
        t.kind = Token::Punct;
        t.text = std::string(1, c);
        return t;
    }

    static Token
    withText(Token t, std::string text)
    {
        t.text = std::move(text);
        t.kind = Token::Ident;
        return t;
    }
};

/**
 * True when `name` is lexically a valid identifier: letter or
 * underscore first, then letters, digits, underscores or dots.
 */
inline bool
isIdentifier(const std::string &name)
{
    if (name.empty())
        return false;
    unsigned char c0 = static_cast<unsigned char>(name[0]);
    if (!std::isalpha(c0) && name[0] != '_')
        return false;
    for (char c : name) {
        unsigned char uc = static_cast<unsigned char>(c);
        if (!std::isalnum(uc) && c != '_' && c != '.')
            return false;
    }
    return true;
}

} // namespace owl::text

#endif // OWL_TEXT_LEXER_H
