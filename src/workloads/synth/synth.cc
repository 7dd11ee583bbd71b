/**
 * @file
 * Synthetic coherence-traffic generator implementation.
 *
 * Every pattern follows the same shape: the CPU main thread allocates
 * and (via host pokes, which cost no simulated time) initializes the
 * pattern's memory regions, launches one MTTOP thread per traffic
 * generator, and waits on the standard xthreads cond-var array. The
 * MTTOP kernels generate *only* the pattern's accesses, so the
 * coherence counters a run leaves behind are attributable to the
 * pattern — which is what lets abl_synth and synth_test discriminate
 * protocols. Determinism rules:
 *
 *  - plain loads/stores touch data only one thread ever writes, or
 *    data serialized by a hand-off (migratory token, prodcons flag);
 *  - contended writes use atomics (hot, readmostly), whose *final*
 *    values are schedule-independent even though observed
 *    intermediates are not — those are checked against bounds or
 *    monotonicity instead of exact values.
 */

#include "workloads/synth/synth.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <numeric>
#include <string>
#include <vector>

#include "base/random.hh"
#include "runtime/xthreads.hh"

namespace ccsvm::workloads::synth
{

using core::ThreadContext;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

const char *
patternName(Pattern p)
{
    switch (p) {
      case Pattern::Padded: return "padded";
      case Pattern::FalseShare: return "false";
      case Pattern::Hot: return "hot";
      case Pattern::Migratory: return "migratory";
      case Pattern::ProdCons: return "prodcons";
      case Pattern::Stream: return "stream";
      case Pattern::PtrChase: return "ptrchase";
      case Pattern::ReadMostly: return "readmostly";
      case Pattern::Conflict: return "conflict";
    }
    return "?";
}

bool
patternFromName(std::string_view name, Pattern &out)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    for (const Pattern p : allPatterns) {
        if (lower == patternName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

const char *
patternSummary(Pattern p)
{
    switch (p) {
      case Pattern::Padded:
        return "per-thread private lines (coherence-idle baseline)";
      case Pattern::FalseShare:
        return "distinct words of one line (false sharing)";
      case Pattern::Hot:
        return "atomic increments of one word (true sharing)";
      case Pattern::Migratory:
        return "token-passed read-then-write line (migratory data)";
      case Pattern::ProdCons:
        return "flag+data line ping-pong per thread pair";
      case Pattern::Stream:
        return "private footprint sweep (capacity/DRAM bandwidth)";
      case Pattern::PtrChase:
        return "private pointer-ring walk (dependent-load latency)";
      case Pattern::ReadMostly:
        return "shared lines, configurable read/write ratio";
      case Pattern::Conflict:
        return "same-set same-bank private lines (conflict/recall "
               "stressor)";
    }
    return "?";
}

namespace
{

constexpr Addr lineB = mem::blockBytes;

/** Argument block layout (byte offsets). */
enum ArgSlot : unsigned
{
    argRegion = 0,
    argResults = 8,
    argDone = 16,
    argAux = 24,
    argPattern = 32,
    argIters = 36,
    argThreads = 40,
    argRpw = 44,
    argStride = 48,
    argSharing = 52,
    argChunk = 56,
};

/** Deterministic producer payload for prodcons pair @p pair,
 * round @p r. */
constexpr std::uint64_t
pcValue(unsigned pair, unsigned r)
{
    return static_cast<std::uint64_t>(pair) * 131 +
           static_cast<std::uint64_t>(r) * 17 + 1;
}

/** Initial value of readmostly shared word @p l. */
constexpr std::uint64_t
rmInit(unsigned l)
{
    return static_cast<std::uint64_t>(l) * 7 + 3;
}

/**
 * Migratory token hop stride. Threads are dispatched to MTTOP cores
 * in SIMD chunks of adjacent tids, so a +1 hand-off stays inside one
 * L1 most of the time; a stride around the chunk width makes nearly
 * every hand-off cross cores. Must be coprime with @p threads so the
 * token still visits every thread each round.
 */
unsigned
migStride(unsigned threads)
{
    for (const unsigned s : {9u, 7u, 11u, 13u, 5u, 3u, 2u}) {
        if (s < threads && std::gcd(s, threads) == 1)
            return s;
    }
    return threads > 1 ? 1 : 0;
}

/** Derived, sanitized geometry shared by the runner, the guest
 * kernels and the golden models. */
struct Geometry
{
    SynthParams p;            ///< sanitized copy
    unsigned wordsPerLine;    ///< false sharing: u64 words per line
    unsigned falseLines;      ///< false sharing: lines used
    unsigned pairs;           ///< prodcons producer/consumer pairs
    bool leftover;            ///< prodcons: odd thread present
    Addr chunkBytes;          ///< stream/ptrchase bytes per thread
    unsigned wordsPerThread;  ///< stream/ptrchase accesses per pass
    unsigned sharedLines;     ///< readmostly line count

    Addr
    regionBytes() const
    {
        switch (p.pattern) {
          case Pattern::Padded: return Addr(p.threads) * lineB;
          case Pattern::FalseShare: return Addr(falseLines) * lineB;
          case Pattern::Hot: return lineB;
          case Pattern::Migratory: return lineB;
          case Pattern::ProdCons:
            return Addr(pairs + (leftover ? 1 : 0)) * lineB;
          case Pattern::Stream:
          case Pattern::PtrChase:
          case Pattern::Conflict:
            return Addr(p.threads) * chunkBytes;
          case Pattern::ReadMostly:
            return Addr(sharedLines) * lineB;
        }
        return lineB;
    }
};

Geometry
makeGeometry(const SynthParams &in, unsigned max_threads)
{
    Geometry g;
    g.p = in;
    g.p.threads = std::clamp(in.threads, 1u, max_threads);
    g.p.iters = std::max(in.iters, 1u);
    g.p.strideBytes =
        std::max(in.strideBytes & ~7u, 8u); // 8-byte aligned
    g.p.sharingDegree = std::max(in.sharingDegree, 1u);

    g.wordsPerLine = std::min(g.p.sharingDegree,
                              static_cast<unsigned>(lineB / 8));
    g.falseLines =
        (g.p.threads + g.wordsPerLine - 1) / g.wordsPerLine;
    g.pairs = g.p.threads / 2;
    g.leftover = (g.p.threads % 2) != 0;

    const Addr min_chunk = g.p.strideBytes;
    g.chunkBytes = std::max<Addr>(
        in.footprintBytes / g.p.threads, min_chunk);
    // Conflict sizes its chunk from the line count, not the
    // footprint: sharingDegree lines per thread, one set-stride
    // apart, so every line in the region lands in the same set.
    if (g.p.pattern == Pattern::Conflict)
        g.chunkBytes = Addr(g.p.sharingDegree) * g.p.strideBytes;
    // The chunk size travels to the guest kernel through a u32 arg
    // slot; clamp so a giant --footprint-kb cannot silently truncate
    // into a host/guest geometry mismatch.
    g.chunkBytes = std::min<Addr>(g.chunkBytes, (Addr(1) << 32) - 1);
    g.chunkBytes -= g.chunkBytes % g.p.strideBytes;
    g.wordsPerThread = static_cast<unsigned>(
        g.chunkBytes / g.p.strideBytes);

    g.sharedLines = g.p.sharingDegree;
    return g;
}

/** The pointer ring for ptrchase thread @p t: next[i] is the node
 * index the walk visits after node i (one full cycle, Sattolo). */
std::vector<unsigned>
ringNext(const Geometry &g, unsigned t)
{
    const unsigned w = g.wordsPerThread;
    std::vector<unsigned> order(w);
    std::iota(order.begin(), order.end(), 0u);
    Random rng(g.p.seed ^ (0xc0ffee00ull + t));
    for (unsigned i = w - 1; i > 0; --i)
        std::swap(order[i],
                  order[static_cast<unsigned>(rng.below(i))]);
    std::vector<unsigned> next(w);
    for (unsigned k = 0; k < w; ++k)
        next[order[k]] = order[(k + 1) % w];
    return next;
}

// --- guest kernels ---------------------------------------------------

/** Spin with backoff until the u64 at @p va equals @p want. */
GuestTask
spinUntilEq64(ThreadContext &ctx, VAddr va, std::uint64_t want)
{
    for (;;) {
        const auto v = co_await ctx.load<std::uint64_t>(va);
        if (v == want)
            co_return;
        co_await ctx.compute(xt::spinBackoffMttop);
    }
}

/** Spin with backoff until the u32 at @p va equals @p want. */
GuestTask
spinUntilEq32(ThreadContext &ctx, VAddr va, std::uint32_t want)
{
    for (;;) {
        const auto v = co_await ctx.load<std::uint32_t>(va);
        if (v == want)
            co_return;
        co_await ctx.compute(xt::spinBackoffMttop);
    }
}

/** Padded / false sharing: RMW the private word at @p target with
 * @p rpw extra reads per write; checksum of everything read lands at
 * @p result. */
GuestTask
rmwOwnWord(ThreadContext &ctx, VAddr target, unsigned iters,
           unsigned rpw, VAddr result)
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < iters; ++i) {
        const auto v = co_await ctx.load<std::uint64_t>(target);
        sum += v;
        for (unsigned r = 0; r < rpw; ++r)
            sum += co_await ctx.load<std::uint64_t>(target);
        co_await ctx.compute(2);
        co_await ctx.store<std::uint64_t>(target, v + 1);
    }
    co_await ctx.store<std::uint64_t>(result, sum);
}

/** Hot: atomic increments of one shared word. The amo results must
 * be strictly increasing in coherence order; the violation count
 * (expected 0) is the thread's result. */
GuestTask
hotBody(ThreadContext &ctx, VAddr word, unsigned iters, unsigned rpw,
        VAddr result)
{
    std::uint64_t violations = 0;
    std::uint64_t last = 0;
    bool have_last = false;
    for (unsigned i = 0; i < iters; ++i) {
        for (unsigned r = 0; r < rpw; ++r)
            co_await ctx.load<std::uint64_t>(word);
        const auto old = co_await ctx.amo(
            word, coherence::AmoOp::Add, 1, 0, 8);
        co_await ctx.compute(2);
        if (have_last && old <= last)
            ++violations;
        last = old;
        have_last = true;
    }
    co_await ctx.store<std::uint64_t>(result, violations);
}

/** Migratory: wait for the token, read-modify-write the shared
 * accumulator line, pass the token on. Fully serialized, so plain
 * loads/stores are deterministic. */
GuestTask
migratoryBody(ThreadContext &ctx, VAddr acc_line, VAddr token,
              unsigned iters, unsigned threads, unsigned rpw,
              unsigned tid, VAddr result)
{
    std::uint64_t wrote = 0;
    for (unsigned round = 0; round < iters; ++round) {
        co_await spinUntilEq64(ctx, token, tid);
        const auto v = co_await ctx.load<std::uint64_t>(acc_line);
        for (unsigned r = 0; r < rpw; ++r)
            co_await ctx.load<std::uint64_t>(acc_line);
        co_await ctx.compute(2);
        wrote = v + 1;
        co_await ctx.store<std::uint64_t>(acc_line, wrote);
        const auto e =
            co_await ctx.load<std::uint64_t>(acc_line + 8);
        co_await ctx.store<std::uint64_t>(acc_line + 8, e + 1);
        co_await ctx.store<std::uint64_t>(
            token, (tid + migStride(threads)) % threads);
    }
    co_await ctx.store<std::uint64_t>(result, wrote);
}

/** Producer half of a prodcons pair: publish pcValue(pair, r) and
 * raise the flag; wait for the consumer to drain it. */
GuestTask
producerBody(ThreadContext &ctx, VAddr pair_line, unsigned pair,
             unsigned iters, VAddr result)
{
    for (unsigned r = 0; r < iters; ++r) {
        co_await spinUntilEq32(ctx, pair_line, 0);
        co_await ctx.store<std::uint64_t>(pair_line + 8,
                                          pcValue(pair, r));
        co_await ctx.store<std::uint32_t>(pair_line, 1);
    }
    co_await ctx.store<std::uint64_t>(result, iters);
}

/** Consumer half: wait for the flag, accumulate the payload, lower
 * the flag. */
GuestTask
consumerBody(ThreadContext &ctx, VAddr pair_line, unsigned iters,
             VAddr result)
{
    std::uint64_t sum = 0;
    for (unsigned r = 0; r < iters; ++r) {
        co_await spinUntilEq32(ctx, pair_line, 1);
        sum += co_await ctx.load<std::uint64_t>(pair_line + 8);
        co_await ctx.store<std::uint32_t>(pair_line, 0);
    }
    co_await ctx.store<std::uint64_t>(result, sum);
}

/** Stream: sweep the private chunk, read-modify-writing one word per
 * stride, @p iters passes. */
GuestTask
streamBody(ThreadContext &ctx, VAddr chunk, unsigned words,
           unsigned stride, unsigned iters, VAddr result)
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < iters; ++i) {
        for (unsigned k = 0; k < words; ++k) {
            const VAddr w = chunk + Addr(k) * stride;
            const auto v = co_await ctx.load<std::uint64_t>(w);
            sum += v;
            co_await ctx.compute(1);
            co_await ctx.store<std::uint64_t>(w, v + 1);
        }
    }
    co_await ctx.store<std::uint64_t>(result, sum);
}

/** Pointer chase: walk the private ring (each node's u64 holds the
 * VA of its successor), order-sensitive checksum of visited node
 * indices. */
GuestTask
ptrchaseBody(ThreadContext &ctx, VAddr chunk, unsigned words,
             unsigned stride, unsigned iters, VAddr result)
{
    std::uint64_t sum = 0;
    VAddr cur = chunk;
    const std::uint64_t hops =
        static_cast<std::uint64_t>(iters) * words;
    for (std::uint64_t h = 0; h < hops; ++h) {
        cur = co_await ctx.load<std::uint64_t>(cur);
        co_await ctx.compute(2); // index recovery + mix
        const std::uint64_t idx = (cur - chunk) / stride;
        sum = sum * 3 + idx;
    }
    co_await ctx.store<std::uint64_t>(result, sum);
}

/** Read-mostly: @p rpw reads round-robin over the shared words per
 * atomic increment; iters increments total. */
GuestTask
readmostlyBody(ThreadContext &ctx, VAddr region, unsigned lines,
               unsigned iters, unsigned rpw, unsigned tid,
               VAddr result)
{
    std::uint64_t sum = 0;
    std::uint64_t read_idx = tid;
    for (unsigned i = 0; i < iters; ++i) {
        for (unsigned r = 0; r < rpw; ++r) {
            const VAddr w = region + (read_idx % lines) * lineB;
            sum += co_await ctx.load<std::uint64_t>(w);
            ++read_idx;
        }
        const VAddr w = region + ((tid + i) % lines) * lineB;
        co_await ctx.amo(w, coherence::AmoOp::Add, 1, 0, 8);
    }
    co_await ctx.store<std::uint64_t>(result, sum);
}

/** The MTTOP kernel: decode the arg block, dispatch the pattern,
 * signal completion. */
GuestTask
synthKernel(ThreadContext &ctx, VAddr args)
{
    const VAddr region =
        co_await ctx.load<std::uint64_t>(args + argRegion);
    const VAddr results =
        co_await ctx.load<std::uint64_t>(args + argResults);
    const VAddr done =
        co_await ctx.load<std::uint64_t>(args + argDone);
    const VAddr aux = co_await ctx.load<std::uint64_t>(args + argAux);
    const auto pat = static_cast<Pattern>(
        co_await ctx.load<std::uint32_t>(args + argPattern));
    const auto iters = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argIters));
    const auto threads = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argThreads));
    const auto rpw = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argRpw));
    const auto stride = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argStride));
    const auto sharing = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argSharing));
    const auto chunk = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argChunk));

    const unsigned tid = ctx.tid();
    const VAddr result = results + Addr(tid) * lineB;

    switch (pat) {
      case Pattern::Padded:
        co_await rmwOwnWord(ctx, region + Addr(tid) * lineB, iters,
                            rpw, result);
        break;
      case Pattern::FalseShare: {
        // Transposed mapping (line = tid % lines): adjacent tids —
        // which share a SIMD chunk and therefore an L1 — land on
        // different lines, so each line's sharers span cores.
        const unsigned lines = sharing; // falseLines via argSharing
        const VAddr target = region + Addr(tid % lines) * lineB +
                             Addr(tid / lines) * 8;
        co_await rmwOwnWord(ctx, target, iters, rpw, result);
        break;
      }
      case Pattern::Hot:
        co_await hotBody(ctx, region, iters, rpw, result);
        break;
      case Pattern::Migratory:
        co_await migratoryBody(ctx, region, aux, iters, threads, rpw,
                               tid, result);
        break;
      case Pattern::ProdCons: {
        // Producers are tids [0, pairs), consumers [pairs, 2*pairs):
        // the two halves sit in different SIMD chunks (hence
        // different L1s) for any multi-chunk thread count.
        const unsigned pairs = threads / 2;
        if (tid + 1 == threads && (threads % 2) != 0) {
            // Odd thread out: private-line loop on its own line.
            co_await rmwOwnWord(ctx, region + Addr(pairs) * lineB,
                                iters, rpw, result);
        } else if (tid < pairs) {
            co_await producerBody(ctx, region + Addr(tid) * lineB,
                                  tid, iters, result);
        } else {
            co_await consumerBody(
                ctx, region + Addr(tid - pairs) * lineB, iters,
                result);
        }
        break;
      }
      case Pattern::Stream:
      case Pattern::Conflict:
        // Conflict is a stream sweep whose stride was chosen by the
        // host so every visited line shares one set of one home bank.
        co_await streamBody(ctx, region + Addr(tid) * chunk,
                            chunk / stride, stride, iters, result);
        break;
      case Pattern::PtrChase:
        co_await ptrchaseBody(ctx, region + Addr(tid) * chunk,
                              chunk / stride, stride, iters, result);
        break;
      case Pattern::ReadMostly:
        co_await readmostlyBody(ctx, region, sharing, iters, rpw,
                                tid, result);
        break;
    }
    co_await xt::mttopSignal(ctx, done);
}

// --- host golden models ----------------------------------------------

/** Checksum rmwOwnWord accumulates when undisturbed: the word climbs
 * 0,1,...,iters-1 and each value is read rpw+1 times. */
constexpr std::uint64_t
rmwChecksum(unsigned iters, unsigned rpw)
{
    return static_cast<std::uint64_t>(rpw + 1) * iters *
           (iters - 1) / 2;
}

/** Verify region contents and per-thread results against the
 * pattern's golden model. */
bool
verify(runtime::Process &proc, const Geometry &g, VAddr region,
       VAddr results, VAddr aux)
{
    const SynthParams &p = g.p;
    const auto result = [&](unsigned t) {
        return proc.peek<std::uint64_t>(results + Addr(t) * lineB);
    };
    const auto word = [&](Addr off) {
        return proc.peek<std::uint64_t>(region + off);
    };

    switch (p.pattern) {
      case Pattern::Padded:
        for (unsigned t = 0; t < p.threads; ++t) {
            if (word(Addr(t) * lineB) != p.iters)
                return false;
            if (result(t) != rmwChecksum(p.iters, p.readsPerWrite))
                return false;
        }
        return true;

      case Pattern::FalseShare:
        for (unsigned t = 0; t < p.threads; ++t) {
            const Addr off = Addr(t % g.falseLines) * lineB +
                             Addr(t / g.falseLines) * 8;
            if (word(off) != p.iters)
                return false;
            if (result(t) != rmwChecksum(p.iters, p.readsPerWrite))
                return false;
        }
        return true;

      case Pattern::Hot:
        if (word(0) !=
            static_cast<std::uint64_t>(p.threads) * p.iters)
            return false;
        for (unsigned t = 0; t < p.threads; ++t) {
            if (result(t) != 0) // monotonicity violations
                return false;
        }
        return true;

      case Pattern::Migratory: {
        const std::uint64_t total =
            static_cast<std::uint64_t>(p.threads) * p.iters;
        if (word(0) != total || word(8) != total)
            return false;
        if (proc.peek<std::uint64_t>(aux) != 0) // token wrapped home
            return false;
        // The token visits threads in +migStride order; the thread
        // holding position j of the cycle writes acc value
        // (iters-1)*threads + j + 1 on its final turn.
        const unsigned s = migStride(p.threads);
        unsigned cur = 0;
        for (unsigned j = 0; j < p.threads; ++j) {
            const std::uint64_t expect =
                static_cast<std::uint64_t>(p.iters - 1) * p.threads +
                j + 1;
            if (result(cur) != expect)
                return false;
            cur = (cur + s) % p.threads;
        }
        return true;
      }

      case Pattern::ProdCons: {
        for (unsigned pair = 0; pair < g.pairs; ++pair) {
            if (result(pair) != p.iters) // producer
                return false;
            std::uint64_t sum = 0;
            for (unsigned r = 0; r < p.iters; ++r)
                sum += pcValue(pair, r);
            if (result(g.pairs + pair) != sum) // consumer
                return false;
            // Flag lowered, last payload still published.
            if (proc.peek<std::uint32_t>(region +
                                         Addr(pair) * lineB) != 0)
                return false;
            if (word(Addr(pair) * lineB + 8) !=
                pcValue(pair, p.iters - 1))
                return false;
        }
        if (g.leftover) {
            if (result(p.threads - 1) !=
                rmwChecksum(p.iters, p.readsPerWrite))
                return false;
        }
        return true;
      }

      case Pattern::Stream:
      case Pattern::Conflict: {
        const std::uint64_t expect_sum =
            static_cast<std::uint64_t>(g.wordsPerThread) * p.iters *
            (p.iters - 1) / 2;
        for (unsigned t = 0; t < p.threads; ++t) {
            if (result(t) != expect_sum)
                return false;
            for (unsigned k = 0; k < g.wordsPerThread; ++k) {
                if (word(Addr(t) * g.chunkBytes +
                         Addr(k) * p.strideBytes) != p.iters)
                    return false;
            }
        }
        return true;
      }

      case Pattern::PtrChase:
        for (unsigned t = 0; t < p.threads; ++t) {
            const auto next = ringNext(g, t);
            std::uint64_t sum = 0;
            unsigned cur = 0;
            const std::uint64_t hops =
                static_cast<std::uint64_t>(p.iters) *
                g.wordsPerThread;
            for (std::uint64_t h = 0; h < hops; ++h) {
                cur = next[cur];
                sum = sum * 3 + cur;
            }
            if (result(t) != sum)
                return false;
        }
        return true;

      case Pattern::ReadMostly: {
        // Exact final word values: every (t, i) increment targets
        // word (t + i) % lines.
        std::vector<std::uint64_t> incs(g.sharedLines, 0);
        for (unsigned t = 0; t < p.threads; ++t)
            for (unsigned i = 0; i < p.iters; ++i)
                ++incs[(t + i) % g.sharedLines];
        for (unsigned l = 0; l < g.sharedLines; ++l) {
            if (word(Addr(l) * lineB) != rmInit(l) + incs[l])
                return false;
        }
        // Reader checksums: every read of word w observed a value in
        // [rmInit(w), rmInit(w) + incs[w]].
        for (unsigned t = 0; t < p.threads; ++t) {
            std::uint64_t lo = 0, hi = 0;
            std::uint64_t read_idx = t;
            for (unsigned i = 0; i < p.iters; ++i) {
                for (unsigned r = 0; r < p.readsPerWrite; ++r) {
                    const unsigned w =
                        static_cast<unsigned>(read_idx %
                                              g.sharedLines);
                    lo += rmInit(w);
                    hi += rmInit(w) + incs[w];
                    ++read_idx;
                }
            }
            if (result(t) < lo || result(t) > hi)
                return false;
        }
        return true;
      }
    }
    return false;
}

} // namespace

RunResult
synthXthreads(system::CcsvmMachine &m, const SynthParams &in)
{
    const unsigned max_contexts =
        static_cast<unsigned>(m.numMttopCores()) *
        m.mttopCore(0).totalContexts();
    SynthParams params = in;
    if (in.pattern == Pattern::Conflict) {
        // The conflict stride is a machine property, not a knob: one
        // set-stride of the L2 bank array times enough banks that
        // consecutive lines keep both the same set index and (under
        // the default mod slice hash) the same home bank. Both
        // factors are powers of two, so max() is their lcm.
        const auto &l2 = m.config().l2;
        const Addr sets = l2.bankSizeBytes / mem::blockBytes /
                          std::max(l2.assoc, 1u);
        const Addr stride_blocks = std::max<Addr>(
            std::max<Addr>(sets, 1),
            static_cast<Addr>(m.config().numL2Banks));
        params.strideBytes =
            static_cast<unsigned>(stride_blocks * mem::blockBytes);
    }
    const Geometry g = makeGeometry(params, max_contexts);
    const SynthParams &p = g.p;

    runtime::Process &proc = m.createProcess();
    // gmalloc is only 16-byte aligned; the patterns reason about
    // whole cache lines, so place every block on its own line(s) —
    // otherwise e.g. the done array the CPU polls could share a line
    // with the migratory token and distort the measured pattern.
    auto lineAlloc = [&proc](Addr bytes) {
        const VAddr raw = proc.gmalloc(bytes + lineB);
        return (raw + lineB - 1) & ~Addr(lineB - 1);
    };
    // The data region: with a non-default coherence attribute it must
    // sit on its own pages (attrs ride in the TLB at page
    // granularity) and gets annotated; the auxiliary blocks (results,
    // done flags, token, args) always stay default-coherent so the
    // attribute shapes only the pattern's own traffic.
    VAddr region;
    if (p.regionAttr != coherence::RegionAttr::Coherent) {
        region = proc.gmallocPages(g.regionBytes());
        const Addr bytes = roundUp(g.regionBytes(), mem::pageBytes);
        // An explicit machine-level --region covering this buffer
        // takes precedence over the workload's default annotation.
        if (proc.addressSpace().regions().overlaps(region, bytes)) {
            ccsvm_warn("synth: an explicit region already covers the "
                       "%s buffer; keeping its attribute",
                       patternName(p.pattern));
        } else {
            proc.addressSpace().addRegion(
                {std::string("synth:") + patternName(p.pattern),
                 region, bytes, p.regionAttr, p.regionProt});
        }
    } else {
        region = lineAlloc(g.regionBytes());
    }
    const VAddr results = lineAlloc(Addr(p.threads) * lineB);
    const VAddr done = lineAlloc(Addr(p.threads) * 4);
    const VAddr aux = lineAlloc(lineB);
    const VAddr args = lineAlloc(64);

    // Host-side init: zero everything, then the pattern's seeds.
    // Pokes are functional (no simulated time), so the measured
    // region is pure pattern traffic. Either way the region's frames
    // are bump-allocated in VA order — which is what makes the
    // conflict pattern's VA set-stride a PA set-stride. The conflict
    // region is almost entirely padding between its widely-strided
    // lines, so it gets one word per page (or per line when the
    // stride is sub-page), which still zeroes every word the guest
    // touches. Every other region is written a page at a time: one
    // page-table walk per page, not per word.
    if (p.pattern == Pattern::Conflict) {
        const Addr step = std::min<Addr>(p.strideBytes, mem::pageBytes);
        for (Addr off = 0; off < g.regionBytes(); off += step)
            proc.poke<std::uint64_t>(region + off, 0);
    } else {
        static const std::array<std::uint8_t, mem::pageBytes> zeros{};
        for (Addr off = 0; off < g.regionBytes(); off += mem::pageBytes)
            proc.writeGuest(region + off, zeros.data(),
                            std::min<Addr>(mem::pageBytes,
                                           g.regionBytes() - off));
    }
    for (unsigned t = 0; t < p.threads; ++t) {
        proc.poke<std::uint64_t>(results + Addr(t) * lineB, 0);
        proc.poke<std::uint32_t>(done + t * 4, 0);
    }
    proc.poke<std::uint64_t>(aux, 0); // migratory token -> thread 0

    if (p.pattern == Pattern::PtrChase) {
        for (unsigned t = 0; t < p.threads; ++t) {
            const auto next = ringNext(g, t);
            const VAddr base = region + Addr(t) * g.chunkBytes;
            for (unsigned k = 0; k < g.wordsPerThread; ++k)
                proc.poke<std::uint64_t>(
                    base + Addr(k) * p.strideBytes,
                    base + Addr(next[k]) * p.strideBytes);
        }
    } else if (p.pattern == Pattern::ReadMostly) {
        for (unsigned l = 0; l < g.sharedLines; ++l)
            proc.poke<std::uint64_t>(region + Addr(l) * lineB,
                                     rmInit(l));
    }

    proc.poke<std::uint64_t>(args + argRegion, region);
    proc.poke<std::uint64_t>(args + argResults, results);
    proc.poke<std::uint64_t>(args + argDone, done);
    proc.poke<std::uint64_t>(args + argAux, aux);
    proc.poke<std::uint32_t>(args + argPattern,
                             static_cast<std::uint32_t>(p.pattern));
    proc.poke<std::uint32_t>(args + argIters, p.iters);
    proc.poke<std::uint32_t>(args + argThreads, p.threads);
    proc.poke<std::uint32_t>(args + argRpw, p.readsPerWrite);
    proc.poke<std::uint32_t>(args + argStride, p.strideBytes);
    proc.poke<std::uint32_t>(args + argSharing,
                             p.pattern == Pattern::FalseShare
                                 ? g.falseLines
                                 : g.sharedLines);
    proc.poke<std::uint32_t>(args + argChunk,
                             static_cast<std::uint32_t>(
                                 g.chunkBytes));

    const std::uint64_t dram0 = m.dramAccesses();
    const Tick ticks = m.runMain(
        proc,
        [num = p.threads](ThreadContext &ctx,
                          VAddr args_va) -> GuestTask {
            const VAddr done_va =
                co_await ctx.load<std::uint64_t>(args_va + argDone);
            co_await xt::createMthread(ctx, synthKernel, args_va, 0,
                                       num - 1);
            co_await xt::cpuWaitAll(ctx, done_va, 0, num - 1);
        },
        args);

    RunResult r;
    r.ticks = ticks;
    r.ticksNoInit = ticks;
    r.dramAccesses = m.dramAccesses() - dram0;
    r.correct = verify(proc, g, region, results, aux);
    return r;
}

RunResult
synthXthreads(const SynthParams &p, system::CcsvmConfig cfg)
{
    system::CcsvmMachine m(cfg);
    return synthXthreads(m, p);
}

} // namespace ccsvm::workloads::synth
