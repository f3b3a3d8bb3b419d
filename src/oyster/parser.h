/**
 * @file
 * Parser for the Oyster concrete syntax emitted by printOyster().
 *
 * This gives the toolchain a file-based frontend: datapath sketches
 * can be written (or generated) as text and loaded for synthesis,
 * completing the "HDL in, HDL out" story of Figure 4. Round trips
 * with the printer are exact: parse(print(d)) prints identically, a
 * property the `owl fuzz` round-trip oracle checks on randomly
 * generated designs.
 *
 * Grammar (lines; `#` starts a comment):
 *
 *   design <name>
 *   input <name> <width>
 *   output <name> <width>
 *   register <name> <width> [reset <w>'h<hex>]
 *   memory <name> <width> addr <awidth>
 *   rom <name> <width> addr <awidth> contents(<hex> <hex> ...)
 *   hole <name> <width> [deps(a, b, ...)]
 *   wire <name> <width>
 *   <target> := <expr>
 *   write <mem> <expr> <expr> <expr>
 *
 * Expressions use the printer's fully parenthesized form:
 *   <w>'h<hex> | ident | ~e | -e | (e) | (e OP e)
 *   | if e then e else e | e[h:l] | {e, e} | zext(e, w) | sext(e, w)
 *   | rol(e, e) | ror(e, e) | clmul(e, e) | clmulh(e, e)
 *   | read <mem> <expr>
 *
 * Parse errors throw FatalError carrying the 1-based line and column
 * of the offending token.
 */

#ifndef OWL_OYSTER_PARSER_H
#define OWL_OYSTER_PARSER_H

#include <string>

#include "oyster/ir.h"

namespace owl::oyster
{

/**
 * Parse a design from Oyster text. Throws FatalError on bad input.
 * Lines are numbered from `firstLine` (a bundle section passes its
 * position in the file).
 */
Design parseOyster(const std::string &text, int firstLine = 1);

/**
 * True for words the Oyster grammar claims for itself: declaration
 * and statement keywords plus expression-leading keywords. Declaring
 * a component with such a name would print as text that cannot be
 * reparsed, so the printer rejects them (printOyster) and the parser
 * refuses the declarations outright.
 *
 * Context-sensitive words (`reset`, `addr`, `contents`, `deps`) are
 * NOT reserved: the parser disambiguates them with two-token
 * lookahead, so e.g. an input named `reset` (the accumulator has one)
 * keeps working.
 */
bool isOysterReservedWord(const std::string &word);

} // namespace owl::oyster

#endif // OWL_OYSTER_PARSER_H
