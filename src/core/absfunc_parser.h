/**
 * @file
 * Parser for the paper's abstraction-function concrete syntax (§3.2):
 *
 *   pc:  {name: 'pc', type: register, [read: 1, write: 2]}
 *   GPR: {name: 'rf', type: memory,   [read: 1, write: 2]}
 *   mem: {name: 'i_mem', type: memory, [read: 1], fetch: 'instruction'}
 *   with cycles: 2, [instruction_valid: 1]
 *   alias f_pc = pc
 *
 * Extensions over the paper's grammar (documented in DESIGN.md §3):
 * the `fetch: '<wire>'` attribute tags the entry serving instruction
 * fetch, and `alias a = b` declares an initial-state register alias.
 * `#` starts a comment.
 */

#ifndef OWL_CORE_ABSFUNC_PARSER_H
#define OWL_CORE_ABSFUNC_PARSER_H

#include <string>

#include "core/absfunc.h"

namespace owl::synth
{

/**
 * Parse an abstraction function. Throws FatalError carrying the line
 * and column of the offending token on bad input, including a
 * `with cycles` depth outside [1, 1024]. Lines are numbered from
 * `firstLine` (a bundle section passes its position in the file).
 */
AbsFunc parseAbsFunc(const std::string &text, int firstLine = 1);

/** Render an abstraction function back to the §3.2 syntax. */
std::string printAbsFunc(const AbsFunc &alpha);

} // namespace owl::synth

#endif // OWL_CORE_ABSFUNC_PARSER_H
