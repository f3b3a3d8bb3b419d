#include "text/bundle.h"

#include <cctype>
#include <cstring>
#include <sstream>

#include "base/logging.h"
#include "core/absfunc_parser.h"
#include "oyster/parser.h"
#include "oyster/printer.h"
#include "text/ila_text.h"

namespace owl::text
{

namespace
{

/**
 * True when `line` starts a section: the keyword at column 0,
 * followed by whitespace or end of line. Indented body lines and
 * words that merely share a prefix (`design_out :=`, an alpha entry
 * `design: {...}`) do not match.
 */
bool
isSectionHead(const std::string &line, const char *kw)
{
    size_t n = strlen(kw);
    if (line.compare(0, n, kw) != 0)
        return false;
    return line.size() == n ||
           std::isspace(static_cast<unsigned char>(line[n]));
}

} // namespace

Bundle
parseBundle(const std::string &text)
{
    // Split into sections on column-0 keywords, tracking the line
    // number each section starts at so parse errors inside a section
    // carry the whole file's line numbers.
    struct Section
    {
        std::string kind;
        std::string body;
        int firstLine;
    };
    std::vector<Section> sections;
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        lineNo++;
        if (isSectionHead(line, "design") ||
            isSectionHead(line, "spec")) {
            std::string kind = line.substr(0, line.find_first_of(" \t"));
            sections.push_back({kind, line + "\n", lineNo});
            continue;
        }
        if (isSectionHead(line, "alpha")) {
            // The `alpha` keyword is a bundle-level marker, not part
            // of the §3.2 grammar: the body alone is handed to
            // parseAbsFunc.
            sections.push_back({"alpha", "", lineNo});
            continue;
        }
        if (sections.empty()) {
            // Leading comments/blank lines before the first section.
            std::string stripped = line;
            size_t i = stripped.find_first_not_of(" \t\r");
            if (i == std::string::npos || stripped[i] == '#')
                continue;
            owl_fatal("bundle parse error at line ", lineNo,
                      ": expected a section header (design/spec/"
                      "alpha) before '", line, "'");
        }
        sections.back().body += line + "\n";
    }

    Bundle b;
    for (const Section &s : sections) {
        auto dup = [&](const char *what, bool present) {
            if (present)
                owl_fatal("bundle parse error at line ", s.firstLine,
                          ": duplicate '", what, "' section");
        };
        if (s.kind == "design") {
            dup("design", b.design.has_value());
            b.design = oyster::parseOyster(s.body, s.firstLine);
        } else if (s.kind == "spec") {
            dup("spec", b.spec != nullptr);
            b.spec = parseIla(s.body, s.firstLine);
        } else {
            dup("alpha", b.alpha.has_value());
            // The alpha body starts on the line after its keyword.
            b.alpha = synth::parseAbsFunc(s.body, s.firstLine + 1);
        }
    }
    return b;
}

std::string
printBundle(const Bundle &b)
{
    std::ostringstream os;
    if (b.design)
        os << oyster::printOyster(*b.design);
    if (b.spec)
        os << printIla(*b.spec);
    if (b.alpha)
        os << "alpha\n" << synth::printAbsFunc(*b.alpha);
    return os.str();
}

Bundle
cloneBundle(const Bundle &b)
{
    return parseBundle(printBundle(b));
}

} // namespace owl::text
