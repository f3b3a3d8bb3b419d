/**
 * @file
 * Content-addressed keys for the serve cache (DESIGN.md §11).
 *
 * A per-instruction CEGIS subproblem is fully determined by (sketch,
 * abstraction function, instruction semantics): two requests whose
 * fingerprints match pose byte-identical ∃∀ queries, so a memoized
 * hole assignment — canonicalized to the lexmin solution, a property
 * of the formula alone — can be returned verbatim.
 *
 * The sketch is hashed structurally over its expression DAG, with
 * everything printOyster prints and nothing else: two sketches get the
 * same key exactly when their printed text is equal (hash collisions
 * aside), so whatever distinguishes two sketches semantically
 * distinguishes their keys. The printer itself is not used: it writes
 * the DAG as a tree, and the aes sketch's shared round logic unfolds
 * to 925 KB of text. ServeFingerprint.SketchKeyMatchesPrintedText
 * checks the equivalence on every registry design and 200 fuzz
 * designs. The abstraction function is small and has no shared DAG,
 * so it is hashed through printAbsFunc.
 *
 * Instruction semantics are hashed structurally over the ILA
 * expression DAG, naming states by their registry *name* (not index)
 * so two builds of the same ILA that merely register states in a
 * different order still collide — the edit-stability the interactive
 * sketch-refinement workflow depends on.
 *
 * Both DAG walks run on explicit stacks and visit each node once, so a
 * builder-made expression of any depth or sharing hashes in linear
 * time without recursing.
 */

#ifndef OWL_SERVE_FINGERPRINT_H
#define OWL_SERVE_FINGERPRINT_H

#include <cstdint>
#include <memory>
#include <string>

#include "core/absfunc.h"
#include "ila/ila.h"
#include "oyster/ir.h"

namespace owl::serve
{

/** Incremental FNV-1a 64-bit hasher. */
class Fnv64
{
  public:
    Fnv64 &bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; i++) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
        return *this;
    }
    Fnv64 &str(const std::string &s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }
    Fnv64 &u64(uint64_t v) { return bytes(&v, sizeof v); }
    Fnv64 &i64(int64_t v) { return u64(static_cast<uint64_t>(v)); }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 1469598103934665603ull;
};

/**
 * Structural hash of an Oyster sketch: the design name, each
 * declaration as printOyster prints it, and the statements in order
 * (target or memory, then the expression hashes). Equal exactly when
 * the printed texts are equal; the `generated` statement flag is not
 * printed and not hashed.
 */
uint64_t sketchFingerprint(const oyster::Design &sketch);

/**
 * Hash of everything request-independent that shapes *every*
 * instruction's query: the sketch, the abstraction function
 * text, the ILA's state registry (names, kinds, widths, memconst
 * contents), and the fetch expression.
 */
uint64_t designFingerprint(const oyster::Design &sketch,
                           const ila::Ila &spec,
                           const synth::AbsFunc &alpha);

/**
 * Structural hash of one instruction's semantics: name, decode DAG,
 * and each update as (state name, value DAG).
 */
uint64_t instrFingerprint(const ila::Ila &spec,
                          const ila::Instr &instr);

class ExprHasher;

/**
 * instrFingerprint for many instructions of one spec, with one memo
 * over its expression pool: the instructions' decode and update DAGs
 * share most of their nodes, so a request that fingerprints all of
 * them hashes each node once. Returns exactly what instrFingerprint
 * returns. The spec must outlive it.
 */
class InstrFingerprinter
{
  public:
    explicit InstrFingerprinter(const ila::Ila &spec);
    ~InstrFingerprinter();

    uint64_t operator()(const ila::Instr &instr);

  private:
    std::unique_ptr<ExprHasher> hasher;
};

/**
 * The cache key for one per-instruction subproblem:
 * "<designFp hex>:<instrFp hex>".
 */
std::string cacheKey(uint64_t design_fp, uint64_t instr_fp);

} // namespace owl::serve

#endif // OWL_SERVE_FINGERPRINT_H
