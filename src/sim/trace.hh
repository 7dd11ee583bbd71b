/**
 * @file
 * Deterministic transaction tracing.
 *
 * Components record span ("X") and instant ("i") events — coherence
 * transaction lifetimes, NoC packet flights, TLB walks/shootdowns,
 * kernel launches — into one capacity-bounded buffer per machine.
 * Events are recorded when a span ends, so writeJson() sorts them by
 * (start tick, record sequence) before emitting; the machine's event
 * order is deterministic, so the exported trace is too.
 *
 * The output is Chrome trace-event JSON (one "traceEvents" array of
 * complete/instant events plus thread_name metadata), loadable in
 * ui.perfetto.dev or chrome://tracing. Ticks are picoseconds; the
 * JSON "ts"/"dur" fields are microseconds as the format requires.
 *
 * Zero overhead when disabled: every record site is guarded by
 * `enabled(cat)`, a single load + mask test against a bitmask that is
 * 0 by default.
 */

#ifndef CCSVM_SIM_TRACE_HH
#define CCSVM_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.hh"

namespace ccsvm::sim
{

/** Trace categories, one bit each (--trace-categories). */
enum TraceCat : unsigned
{
    traceCoh = 1u << 0,     ///< coherence transactions (L1s + directory)
    traceNoc = 1u << 1,     ///< torus packet flights
    traceVm = 1u << 2,      ///< TLB walks, shootdowns, fault relays
    traceKernel = 1u << 3,  ///< kernel launches, page-fault service
};

/** All categories on. */
inline constexpr unsigned traceAll =
    traceCoh | traceNoc | traceVm | traceKernel;

/** One recorded event. `name` must be a string literal. */
struct TraceEvent
{
    Tick when = 0;           ///< start tick (ps)
    Tick dur = 0;            ///< span length; 0 for instants
    std::uint64_t seq = 0;   ///< record sequence (sort tie-break)
    unsigned cat = 0;        ///< single TraceCat bit
    char phase = 'X';        ///< 'X' complete span, 'i' instant
    int lane = 0;            ///< interned lane (Perfetto "thread") id
    const char *name = "";   ///< event name (static literal)
    std::uint64_t arg = 0;   ///< address / payload argument
    bool hasArg = false;
};

/** Per-machine trace recorder, owned by the StatRegistry. */
class Tracer
{
  public:
    /** Is any record site for @p cat (a TraceCat bit) live? */
    bool enabled(unsigned cat) const { return (mask_ & cat) != 0; }
    bool anyEnabled() const { return mask_ != 0; }

    void setMask(unsigned mask) { mask_ = mask; }
    unsigned mask() const { return mask_; }

    /**
     * Parse a --trace-categories list ("coh,noc,vm,kernel" or
     * "all") into a bitmask. Returns false on an unknown token
     * (leaving @p mask untouched).
     */
    static bool parseCategories(const std::string &list, unsigned &mask);

    /** Category bit -> name, for JSON "cat" fields. */
    static const char *catName(unsigned bit);

    /**
     * Intern a lane (rendered as a Perfetto thread row). Host-side
     * only — call during machine construction, never from events.
     */
    int lane(const std::string &name);

    /** Most events kept; once full, each new event overwrites the
     * oldest and is counted as dropped. Host-side only. */
    void setCapacity(std::size_t cap);

    /** Record a complete span [start, end). */
    void
    complete(unsigned cat, int lane, const char *name, Tick start,
             Tick end, std::uint64_t arg, bool has_arg = true)
    {
        TraceEvent ev;
        ev.when = start;
        ev.dur = end - start;
        ev.cat = cat;
        ev.phase = 'X';
        ev.lane = lane;
        ev.name = name;
        ev.arg = arg;
        ev.hasArg = has_arg;
        push(ev);
    }

    /** Record an instant event. */
    void
    instant(unsigned cat, int lane, const char *name, Tick when,
            std::uint64_t arg, bool has_arg = true)
    {
        TraceEvent ev;
        ev.when = when;
        ev.cat = cat;
        ev.phase = 'i';
        ev.lane = lane;
        ev.name = name;
        ev.arg = arg;
        ev.hasArg = has_arg;
        push(ev);
    }

    /** Total events recorded, and those overwritten once full. */
    std::uint64_t recorded() const { return seq_; }
    std::uint64_t dropped() const { return dropped_; }

    /** Kept events in (when, seq) order. */
    const std::vector<TraceEvent> &events();

    /** Write the Chrome trace-event JSON document. */
    void writeJson(std::ostream &os);

  private:
    void push(TraceEvent ev);

    unsigned mask_ = 0;
    std::size_t cap_ = std::size_t(1) << 22;
    std::vector<std::string> lanes_;
    /** Ring of kept events; once full, next_ is the oldest. */
    std::vector<TraceEvent> buf_;
    std::size_t next_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t dropped_ = 0;
    /** buf_ sorted for export; rebuilt when stale. */
    std::vector<TraceEvent> sorted_;
    bool sortedValid_ = true;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_TRACE_HH
