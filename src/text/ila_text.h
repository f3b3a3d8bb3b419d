/**
 * @file
 * Textual serialization for ILA specifications — the spec-side twin
 * of oyster/printer.h + oyster/parser.h. Together with the §3.2
 * abstraction-function syntax (core/absfunc_parser.h) this completes
 * the textual frontend: a whole synthesis problem can live in one
 * `.owl` bundle file (text/bundle.h).
 *
 * Grammar (`#` starts a comment):
 *
 *   spec <name>
 *   input <name> <width>
 *   state <name> <width>
 *   mem <name> addr <awidth> data <width>
 *   table <name> addr <awidth> data <width> contents(<bv> ...)
 *   fetch <expr>
 *   instr <name>
 *   decode <expr>
 *   update <state> <expr>
 *
 * `decode` and `update` lines attach to the most recent `instr`.
 * Expressions use the Oyster printed form plus the memory-sorted
 * constructors `load(<mem>, <addr>)` and `store(<mem>, <addr>,
 * <data>)`. Round trips are exact: parse(print(m)) prints
 * identically (the `owl fuzz` round-trip oracle covers the spec side
 * too).
 */

#ifndef OWL_TEXT_ILA_TEXT_H
#define OWL_TEXT_ILA_TEXT_H

#include <memory>
#include <string>

#include "ila/ila.h"

namespace owl::text
{

/** Render an ILA model in the concrete syntax above. */
std::string printIla(const ila::Ila &m);

/** Render one ILA expression (diagnostics, tests). */
std::string ilaExprToString(const ila::IlaContext &ctx, int32_t idx);

/** Parse an ILA model. Throws FatalError (with line/column) on bad
 * input; lines are numbered from `firstLine`. Returned by pointer:
 * Ila owns its context and is not copyable. */
std::unique_ptr<ila::Ila> parseIla(const std::string &text,
                                   int firstLine = 1);

/** Reserved words of the spec grammar (cannot name states/instrs). */
bool isIlaReservedWord(const std::string &word);

} // namespace owl::text

#endif // OWL_TEXT_ILA_TEXT_H
