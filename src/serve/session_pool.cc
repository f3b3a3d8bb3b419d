#include "serve/session_pool.h"

#include "base/logging.h"
#include "obs/obs.h"

namespace owl::serve
{

/** One design's warm state: the pool-owned CaseStudy plus parked
 * per-instruction sessions built against it. Declaration order
 * matters: sessions reference cs and must be destroyed first. */
struct PoolSlot
{
    uint64_t designFp = 0;
    designs::CaseStudy cs;
    std::map<std::string, std::unique_ptr<synth::SynthSession>> parked;
    int liveBindings = 0;
    uint64_t lastUse = 0;

    explicit PoolSlot(designs::CaseStudy cs_in) : cs(std::move(cs_in))
    {
    }
};

WarmSessionPool::WarmSessionPool(size_t max_slots)
    : maxSlots(max_slots > 0 ? max_slots : 1)
{
}

WarmSessionPool::~WarmSessionPool() = default;

std::unique_ptr<WarmSessionPool::Binding>
WarmSessionPool::bind(uint64_t design_fp,
                      const designs::CaseStudyMaker &maker)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = slots.find(design_fp);
    if (it == slots.end()) {
        auto slot = std::make_unique<PoolSlot>(maker());
        slot->designFp = design_fp;
        it = slots.emplace(design_fp, std::move(slot)).first;
        OWL_COUNTER_INC("serve.pool.slots_created");
    }
    PoolSlot &slot = *it->second;
    slot.liveBindings++;
    slot.lastUse = ++tick;
    evictLocked();
    return std::unique_ptr<Binding>(new Binding(*this, slot));
}

void
WarmSessionPool::evictLocked()
{
    while (slots.size() > maxSlots) {
        auto victim = slots.end();
        for (auto it = slots.begin(); it != slots.end(); ++it) {
            if (it->second->liveBindings > 0)
                continue;
            if (victim == slots.end() ||
                it->second->lastUse < victim->second->lastUse)
                victim = it;
        }
        if (victim == slots.end())
            return; // everything pinned; retry on a later bind
        OWL_COUNTER_INC("serve.pool.slots_evicted");
        slots.erase(victim);
    }
}

SessionPoolStats
WarmSessionPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    SessionPoolStats out;
    out.created = created;
    out.reused = reused;
    out.slots = slots.size();
    for (const auto &[fp, slot] : slots)
        out.parked += slot->parked.size();
    return out;
}

WarmSessionPool::Binding::~Binding()
{
    std::lock_guard<std::mutex> lock(pool.mu);
    slot.liveBindings--;
    owl_assert(slot.liveBindings >= 0, "binding underflow");
}

std::unique_ptr<synth::SynthSession>
WarmSessionPool::Binding::checkout(const std::string &instr_name,
                                   const synth::CegisOptions &opts)
{
    {
        std::lock_guard<std::mutex> lock(pool.mu);
        slot.lastUse = ++pool.tick;
        // The policy is baked into the session's IncrementalContext
        // (proof sink, simplification, Ackermann mode), so only an
        // equal one may reuse it.
        auto it = slot.parked.find(instr_name);
        if (it != slot.parked.end() &&
            it->second->policy() == opts.solver) {
            std::unique_ptr<synth::SynthSession> s =
                std::move(it->second);
            slot.parked.erase(it);
            pool.reused++;
            nReused++;
            s->beginReuse();
            OWL_COUNTER_INC("serve.sessions.reused");
            return s;
        }
    }
    // Cold (or options-incompatible): build a session against the
    // slot-owned design state, outside the pool lock — construction
    // allocates a solver and blasts the hole variables. The slot is
    // pinned by this binding, so the references stay valid.
    auto s = std::make_unique<synth::SynthSession>(
        slot.cs.sketch, slot.cs.spec, slot.cs.alpha, instr_name, opts);
    {
        std::lock_guard<std::mutex> lock(pool.mu);
        pool.created++;
        nCreated++;
    }
    OWL_COUNTER_INC("serve.sessions.created");
    return s;
}

uint64_t
WarmSessionPool::Binding::reused() const
{
    std::lock_guard<std::mutex> lock(pool.mu);
    return nReused;
}

uint64_t
WarmSessionPool::Binding::created() const
{
    std::lock_guard<std::mutex> lock(pool.mu);
    return nCreated;
}

void
WarmSessionPool::Binding::checkin(
    std::unique_ptr<synth::SynthSession> session)
{
    if (!session)
        return;
    std::lock_guard<std::mutex> lock(pool.mu);
    slot.lastUse = ++pool.tick;
    slot.parked[session->instrName()] = std::move(session);
}

} // namespace owl::serve
