#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace owl::obs::json
{

Value &
Value::set(const std::string &key, Value v)
{
    for (auto &[k, existing] : obj_) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj_.emplace_back(key, std::move(v));
    return *this;
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
quote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<size_t>(indent) * d, ' ');
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += b_ ? "true" : "false";
        break;
      case Kind::Int: {
        char buf[32];
        snprintf(buf, sizeof(buf), "%lld",
                 static_cast<long long>(i_));
        out += buf;
        break;
      }
      case Kind::Double: {
        if (std::isfinite(d_)) {
            char buf[40];
            snprintf(buf, sizeof(buf), "%.17g", d_);
            std::string tok(buf);
            // Keep doubles recognizable as such on re-parse.
            if (tok.find_first_of(".eE") == std::string::npos)
                tok += ".0";
            out += tok;
        } else {
            out += "null"; // JSON has no inf/nan
        }
        break;
      }
      case Kind::String:
        out += quote(s_);
        break;
      case Kind::Array: {
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < arr_.size(); i++) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < obj_.size(); i++) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += quote(obj_[i].first);
            out += indent > 0 ? ": " : ":";
            obj_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

namespace
{

/** Recursive-descent JSON parser over a string. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *err)
        : text(text), err(err)
    {
    }

    bool
    run(Value &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos != text.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    /**
     * Deepest array/object nesting accepted. The parser recurses once
     * per level, so hostile input (a serve request of 300k '[') would
     * otherwise overflow the stack instead of ending in an error.
     */
    static constexpr int kMaxDepth = 512;

    const std::string &text;
    std::string *err;
    size_t pos = 0;
    int depth = 0; ///< open arrays/objects around pos

    bool
    fail(const std::string &msg)
    {
        if (err) {
            *err = "json error at offset " + std::to_string(pos) +
                   ": " + msg;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            pos++;
        }
    }

    bool
    literal(const char *word, Value v, Value &out)
    {
        size_t n = std::string(word).size();
        if (text.compare(pos, n, word) != 0)
            return fail("invalid literal");
        pos += n;
        out = std::move(v);
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        switch (c) {
          case '{':
          case '[': {
            if (depth == kMaxDepth)
                return fail("nesting too deep");
            depth++;
            bool ok = c == '{' ? parseObject(out) : parseArray(out);
            depth--;
            return ok;
          }
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value(std::move(s));
            return true;
          }
          case 't': return literal("true", Value(true), out);
          case 'f': return literal("false", Value(false), out);
          case 'n': return literal("null", Value(), out);
          default: return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out)
    {
        pos++; // '{'
        out = Value::object();
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            pos++;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            pos++;
            skipWs();
            Value v;
            if (!parseValue(v))
                return false;
            out.set(key, std::move(v));
            skipWs();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                pos++;
                continue;
            }
            if (text[pos] == '}') {
                pos++;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value &out)
    {
        pos++; // '['
        out = Value::array();
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            pos++;
            return true;
        }
        while (true) {
            skipWs();
            Value v;
            if (!parseValue(v))
                return false;
            out.push(std::move(v));
            skipWs();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                pos++;
                continue;
            }
            if (text[pos] == ']') {
                pos++;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    hex4(unsigned &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; i++) {
            char c = text[pos + i];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= c - '0';
            else if (c >= 'a' && c <= 'f')
                out |= c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                out |= c - 'A' + 10;
            else
                return fail("bad hex digit in \\u escape");
        }
        pos += 4;
        return true;
    }

    void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xc0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xe0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            s += static_cast<char>(0xf0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    parseString(std::string &out)
    {
        pos++; // opening quote
        out.clear();
        while (true) {
            if (pos >= text.size())
                return fail("unterminated string");
            char c = text[pos];
            if (c == '"') {
                pos++;
                return true;
            }
            if (c != '\\') {
                out += c;
                pos++;
                continue;
            }
            pos++;
            if (pos >= text.size())
                return fail("truncated escape");
            char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                unsigned cp = 0;
                if (!hex4(cp))
                    return false;
                // Combine surrogate pairs when both halves appear.
                if (cp >= 0xd800 && cp <= 0xdbff &&
                    pos + 1 < text.size() && text[pos] == '\\' &&
                    text[pos + 1] == 'u') {
                    size_t save = pos;
                    pos += 2;
                    unsigned lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo >= 0xdc00 && lo <= 0xdfff) {
                        cp = 0x10000 + ((cp - 0xd800) << 10) +
                             (lo - 0xdc00);
                    } else {
                        pos = save; // not a pair, reprocess next loop
                    }
                }
                appendUtf8(out, cp);
                break;
              }
              default: return fail("unknown escape");
            }
        }
    }

    bool
    parseNumber(Value &out)
    {
        size_t start = pos;
        bool is_double = false;
        if (pos < text.size() && text[pos] == '-')
            pos++;
        while (pos < text.size() && isdigit(
                   static_cast<unsigned char>(text[pos]))) {
            pos++;
        }
        if (pos < text.size() && text[pos] == '.') {
            is_double = true;
            pos++;
            while (pos < text.size() && isdigit(
                       static_cast<unsigned char>(text[pos]))) {
                pos++;
            }
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            is_double = true;
            pos++;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-')) {
                pos++;
            }
            while (pos < text.size() && isdigit(
                       static_cast<unsigned char>(text[pos]))) {
                pos++;
            }
        }
        if (pos == start || (pos == start + 1 && text[start] == '-'))
            return fail("invalid number");
        std::string tok = text.substr(start, pos - start);
        if (is_double)
            out = Value(strtod(tok.c_str(), nullptr));
        else
            out = Value(static_cast<int64_t>(
                strtoll(tok.c_str(), nullptr, 10)));
        return true;
    }
};

} // namespace

bool
Value::parse(const std::string &text, Value &out, std::string *err)
{
    return Parser(text, err).run(out);
}

} // namespace owl::obs::json
