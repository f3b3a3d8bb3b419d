/**
 * @file
 * The warm solver pool: smt::IncrementalContext-backed SynthSessions
 * kept alive between requests (DESIGN.md §11).
 *
 * A cold per-instruction CEGIS run pays bit-blasting, CNF
 * construction, and the full conflict search. A warm rerun of the
 * same subproblem starts from the previous run's session — groups,
 * learned clauses, and blast cache intact — so the verify/synth loop
 * reconverges in a couple of propagation-only solves. Lexmin
 * canonicalization (PR 4) makes this *bit-identical* to a cold run:
 * the final assignment is the formula's lexmin solution, independent
 * of accumulated solver state, and re-fed counterexamples dedup to
 * their existing groups inside IncrementalContext.
 *
 * Ownership: each design fingerprint gets a Slot owning its own
 * CaseStudy rebuilt from the registry maker; every pooled session is
 * constructed against that slot-owned design state, never against
 * request-local objects, so parking a session at checkin is always
 * safe. Slots are LRU-evicted (never while bound to a request).
 */

#ifndef OWL_SERVE_SESSION_POOL_H
#define OWL_SERVE_SESSION_POOL_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/cegis.h"
#include "designs/case_study.h"
#include "designs/registry.h"

namespace owl::serve
{

/** Point-in-time pool accounting. */
struct SessionPoolStats
{
    uint64_t created = 0; ///< sessions built by the pool
    uint64_t reused = 0;  ///< warm checkouts
    uint64_t slots = 0;   ///< design slots resident
    uint64_t parked = 0;  ///< sessions parked across all slots
};

class WarmSessionPool
{
  public:
    /** @param max_slots designs kept warm; LRU eviction beyond. */
    explicit WarmSessionPool(size_t max_slots = 8);
    ~WarmSessionPool();
    WarmSessionPool(const WarmSessionPool &) = delete;
    WarmSessionPool &operator=(const WarmSessionPool &) = delete;

    /**
     * Per-request handle implementing the cegis-side pool interface.
     * Wire into CegisOptions::sessionPool for the request's synthesize
     * calls; destroy (or release) before the next bind of the same
     * request thread. Thread-safe like the pool itself.
     */
    class Binding : public synth::SynthSessionPool
    {
      public:
        ~Binding() override;
        Binding(const Binding &) = delete;
        Binding &operator=(const Binding &) = delete;

        /**
         * A session for this instruction against the slot-owned
         * design: warm when one is parked and was built under an equal
         * solver policy
         * (books serve.sessions.reused + beginReuse()), else freshly
         * built (books serve.sessions.created). Never null for
         * instructions of the slot's spec.
         */
        std::unique_ptr<synth::SynthSession>
        checkout(const std::string &instr_name,
                 const synth::CegisOptions &opts) override;

        /** Park the session for the next request (latest wins). */
        void
        checkin(std::unique_ptr<synth::SynthSession> session) override;

        /** Warm checkouts through this binding. */
        uint64_t reused() const;
        /** Sessions this binding's checkouts built. */
        uint64_t created() const;

      private:
        friend class WarmSessionPool;
        Binding(WarmSessionPool &pool, struct PoolSlot &slot)
            : pool(pool), slot(slot)
        {
        }
        WarmSessionPool &pool;
        struct PoolSlot &slot;
        uint64_t nReused = 0;  ///< guarded by pool.mu
        uint64_t nCreated = 0; ///< guarded by pool.mu
    };

    /**
     * Bind a request to the design's slot, creating it (CaseStudy
     * rebuilt via maker) on first use. The binding pins the slot
     * against eviction until destroyed.
     */
    std::unique_ptr<Binding> bind(uint64_t design_fp,
                                  const designs::CaseStudyMaker &maker);

    SessionPoolStats stats() const;

  private:
    void evictLocked();

    mutable std::mutex mu;
    std::map<uint64_t, std::unique_ptr<struct PoolSlot>> slots;
    size_t maxSlots;
    uint64_t tick = 0; ///< LRU clock
    uint64_t created = 0;
    uint64_t reused = 0;
};

} // namespace owl::serve

#endif // OWL_SERVE_SESSION_POOL_H
