#include "sim/trace.hh"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "base/logging.hh"

namespace ccsvm::sim
{

bool
Tracer::parseCategories(const std::string &list, unsigned &mask)
{
    unsigned m = 0;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string tok = list.substr(pos, comma - pos);
        if (tok == "all")
            m |= traceAll;
        else if (tok == "coh")
            m |= traceCoh;
        else if (tok == "noc")
            m |= traceNoc;
        else if (tok == "vm")
            m |= traceVm;
        else if (tok == "kernel")
            m |= traceKernel;
        else if (!tok.empty())
            return false;
        pos = comma + 1;
    }
    mask = m;
    return true;
}

const char *
Tracer::catName(unsigned bit)
{
    switch (bit) {
      case traceCoh: return "coh";
      case traceNoc: return "noc";
      case traceVm: return "vm";
      case traceKernel: return "kernel";
      default: return "?";
    }
}

int
Tracer::lane(const std::string &name)
{
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        if (lanes_[i] == name)
            return static_cast<int>(i);
    lanes_.push_back(name);
    return static_cast<int>(lanes_.size() - 1);
}

void
Tracer::setCapacity(std::size_t cap)
{
    ccsvm_assert(cap > 0, "trace capacity must be positive");
    ccsvm_assert(buf_.empty(), "set the trace capacity before recording");
    cap_ = cap;
}

void
Tracer::push(TraceEvent ev)
{
    ev.seq = seq_++;
    sortedValid_ = false;
    if (buf_.size() < cap_) {
        buf_.push_back(ev);
        return;
    }
    // Full: overwrite the oldest, count the loss.
    buf_[next_] = ev;
    next_ = (next_ + 1) % cap_;
    ++dropped_;
}

const std::vector<TraceEvent> &
Tracer::events()
{
    if (!sortedValid_) {
        sorted_ = buf_;
        std::sort(sorted_.begin(), sorted_.end(),
                  [](const TraceEvent &a, const TraceEvent &b) {
                      return std::tie(a.when, a.seq) <
                             std::tie(b.when, b.seq);
                  });
        sortedValid_ = true;
    }
    return sorted_;
}

namespace
{

/** Ticks (ps) -> trace-format microseconds, exactly. */
std::string
ticksToUs(Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(t / 1000000),
                  static_cast<unsigned long long>(t % 1000000));
    return buf;
}

} // namespace

void
Tracer::writeJson(std::ostream &os)
{
    const std::vector<TraceEvent> &evs = events();
    os << "{\n\"displayTimeUnit\": \"ns\",\n"
       << "\"otherData\": {\"recorded\": " << recorded()
       << ", \"dropped\": " << dropped() << "},\n"
       << "\"traceEvents\": [\n"
       << "{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
          "\"args\": {\"name\": \"ccsvm\"}}";
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        os << ",\n{\"ph\": \"M\", \"pid\": 0, \"tid\": " << i
           << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
           << lanes_[i] << "\"}}";
    }
    for (const TraceEvent &ev : evs) {
        os << ",\n{\"ph\": \"" << ev.phase << "\", \"pid\": 0, \"tid\": "
           << ev.lane << ", \"ts\": " << ticksToUs(ev.when);
        if (ev.phase == 'X')
            os << ", \"dur\": " << ticksToUs(ev.dur);
        else
            os << ", \"s\": \"t\"";
        os << ", \"cat\": \"" << catName(ev.cat) << "\", \"name\": \""
           << ev.name << "\"";
        if (ev.hasArg) {
            char hex[24];
            std::snprintf(hex, sizeof(hex), "0x%llx",
                          static_cast<unsigned long long>(ev.arg));
            os << ", \"args\": {\"arg\": \"" << hex << "\"}";
        }
        os << "}";
    }
    os << "\n]\n}\n";
}

} // namespace ccsvm::sim
