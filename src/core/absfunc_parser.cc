#include "core/absfunc_parser.h"

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "text/lexer.h"

namespace owl::synth
{

namespace
{

using text::Lexer;
using text::Token;

/** Largest `with cycles` depth: the CLI's --cycles range. */
constexpr int kMaxCycles = 1024;

std::optional<MapType>
mapTypeFromName(const std::string &t)
{
    if (t == "input")
        return MapType::Input;
    if (t == "output")
        return MapType::Output;
    if (t == "register" || t == "regster") // the paper's §4.3 typo
        return MapType::Register;
    if (t == "memory")
        return MapType::Memory;
    return std::nullopt;
}

const char *
mapTypeName(MapType t)
{
    switch (t) {
      case MapType::Input: return "input";
      case MapType::Output: return "output";
      case MapType::Register: return "register";
      case MapType::Memory: return "memory";
    }
    return "?";
}

class Parser
{
  public:
    Parser(const std::string &text, int firstLine)
        : lex(text, "abstraction function", firstLine)
    {
    }

    AbsFunc
    run()
    {
        AbsFunc alpha;
        bool saw_with = false;
        while (!lex.atEnd()) {
            Token head = ident("an entry, 'with' or 'alias'");
            if (head.text == "with") {
                withClause(alpha);
                saw_with = true;
            } else if (head.text == "alias") {
                std::string a = name();
                expectPunct('=');
                std::string b = name();
                alpha.aliasInit(b, a); // alias f_pc = pc: pc is canonical
            } else {
                entry(alpha, head.text);
            }
        }
        if (!saw_with)
            lex.fail("missing 'with cycles: N' clause", lex.peek());
        return alpha;
    }

  private:
    Lexer lex;

    Token
    ident(const char *what)
    {
        Token t = lex.next();
        if (t.kind != Token::Ident)
            lex.fail(std::string("expected ") + what, t);
        return t;
    }

    int
    number()
    {
        Token t = lex.next();
        if (t.kind != Token::Number)
            lex.fail("expected a number", t);
        return t.intValue;
    }

    bool
    tryPunct(char c)
    {
        const Token &t = lex.peek();
        if (t.kind != Token::Punct || t.text[0] != c)
            return false;
        lex.next();
        return true;
    }

    void
    expectPunct(char c)
    {
        if (!tryPunct(c))
            lex.fail(std::string("expected '") + c + "'", lex.peek());
    }

    /** Identifier optionally wrapped in single quotes. */
    std::string
    name()
    {
        if (tryPunct('\'')) {
            std::string n = ident("a name").text;
            expectPunct('\'');
            return n;
        }
        return ident("a name").text;
    }

    /** with cycles: N [, [wire: t, wire: t ...]] */
    void
    withClause(AbsFunc &alpha)
    {
        Token kw = ident("'cycles' after 'with'");
        if (kw.text != "cycles")
            lex.fail("expected 'cycles' after 'with'", kw);
        expectPunct(':');
        Token n = lex.peek();
        int cycles = number();
        if (cycles < 1 || cycles > kMaxCycles)
            lex.fail("cycles must be in [1, " +
                         std::to_string(kMaxCycles) + "]",
                     n);
        alpha.withCycles(cycles);
        if (tryPunct(',')) {
            expectPunct('[');
            while (!tryPunct(']')) {
                std::string wire = name();
                expectPunct(':');
                alpha.assume(wire, number());
                tryPunct(',');
            }
        }
    }

    /** <SpecID>: {name: 'x', type: t, [effects], fetch: 'wire'} */
    void
    entry(AbsFunc &alpha, const std::string &head)
    {
        expectPunct(':');
        expectPunct('{');
        std::string dp_name;
        MapType type = MapType::Input;
        std::vector<Effect> effects;
        bool is_fetch = false;
        std::string fetch_wire;
        while (!tryPunct('}')) {
            if (tryPunct('[')) {
                while (!tryPunct(']')) {
                    Token kind = ident("'read' or 'write'");
                    expectPunct(':');
                    int t = number();
                    if (kind.text == "read")
                        effects.push_back({Effect::Read, t});
                    else if (kind.text == "write")
                        effects.push_back({Effect::Write, t});
                    else
                        lex.fail("unknown effect '" + kind.text + "'",
                                 kind);
                    tryPunct(',');
                }
                tryPunct(',');
                continue;
            }
            Token attr = ident("an attribute");
            expectPunct(':');
            if (attr.text == "name") {
                dp_name = name();
            } else if (attr.text == "type") {
                Token t = ident("a type");
                std::optional<MapType> mt = mapTypeFromName(t.text);
                if (!mt)
                    lex.fail("unknown type '" + t.text + "'", t);
                type = *mt;
            } else if (attr.text == "fetch") {
                is_fetch = true;
                fetch_wire = name();
            } else {
                lex.fail("unknown attribute '" + attr.text + "'", attr);
            }
            tryPunct(',');
        }
        if (is_fetch)
            alpha.mapFetch(head, dp_name, effects, fetch_wire);
        else
            alpha.map(head, dp_name, type, effects);
    }
};

} // namespace

AbsFunc
parseAbsFunc(const std::string &text, int firstLine)
{
    return Parser(text, firstLine).run();
}

std::string
printAbsFunc(const AbsFunc &alpha)
{
    std::ostringstream os;
    for (const AbsEntry &e : alpha.entries()) {
        os << e.specName << ": {name: '" << e.datapathName
           << "', type: " << mapTypeName(e.type) << ", [";
        for (size_t i = 0; i < e.effects.size(); i++) {
            os << (i ? ", " : "")
               << (e.effects[i].kind == Effect::Read ? "read"
                                                     : "write")
               << ": " << e.effects[i].time;
        }
        os << "]";
        if (e.isFetch)
            os << ", fetch: '" << e.fetchWire << "'";
        os << "}\n";
    }
    for (const auto &[a, b] : alpha.initAliases())
        os << "alias " << b << " = " << a << "\n";
    os << "with cycles: " << alpha.cycles();
    if (!alpha.assumes().empty()) {
        os << ", [";
        for (size_t i = 0; i < alpha.assumes().size(); i++) {
            os << (i ? ", " : "") << alpha.assumes()[i].wire << ": "
               << alpha.assumes()[i].time;
        }
        os << "]";
    }
    os << "\n";
    return os.str();
}

} // namespace owl::synth
