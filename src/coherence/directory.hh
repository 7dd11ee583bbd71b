/**
 * @file
 * Banked, inclusive shared L2 cache with an embedded directory.
 * Protocol-specific decisions (E fills, Owned vs writeback-on-read)
 * are delegated to the ProtocolPolicy selected by DirConfig, so the
 * same bank runs MSI, MESI or MOESI (the default) — and, with a
 * cluster split configured, a different protocol per cluster: the
 * bank resolves every transaction against the requestor's cluster
 * policy (sole-copy fills) or the owner/requestor pair (dirty
 * sharing), so a MOESI CPU cluster and an MSI MTTOP cluster share
 * one directory soundly.
 *
 * This is the paper's home node: "the shared L2 cache is banked and
 * co-located with a banked directory that holds state used for cache
 * coherence" (Sec. 3.1), with "directory state embedded in the L2
 * blocks, similar to recent Intel and AMD chips. With an inclusive L2,
 * an L2 miss indicates that the block is not cached in any L1 and thus
 * triggers an access to off-chip memory" (Sec. 3.2.2).
 *
 * The directory is blocking: one transaction per block at a time,
 * closed by the requestor's Unblock message; requests to a busy block
 * stall in a per-block FIFO. Inclusive-L2 evictions recall the block
 * from all L1 holders before freeing the frame.
 */

#ifndef CCSVM_COHERENCE_DIRECTORY_HH
#define CCSVM_COHERENCE_DIRECTORY_HH

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "cache/cache_array.hh"
#include "cache/replacer.hh"
#include "coherence/l1_cache.hh"
#include "coherence/msgs.hh"
#include "coherence/slice_hash.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "noc/network.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace ccsvm::coherence
{

/** Geometry and timing of one L2 bank + directory slice. */
struct DirConfig
{
    Addr bankSizeBytes = 1024 * 1024; ///< Table 2: 4 x 1 MB banks
    unsigned assoc = 16;
    Tick l2DataLatency = 3450;  ///< ~10 CPU cycles / 2 MTTOP cycles
    Tick ctrlLatency = 1000;    ///< directory state access

    /** Coherence protocol for every L1 when no cluster split is
     * configured (firstMttopL1 < 0); must match the L1 controllers'. */
    Protocol protocol = Protocol::MOESI;

    /**
     * Per-cluster heterogeneous protocols. When firstMttopL1 >= 0,
     * L1 ids below the boundary belong to the CPU cluster and run
     * cpuProtocol, ids at or above it are MTTOP L1s running
     * mttopProtocol; `protocol` is ignored. The directory mediates
     * mixed pairs: sole-copy fills follow the requestor's policy and
     * dirty sharing requires the O state at both ends.
     */
    Protocol cpuProtocol = Protocol::MOESI;
    Protocol mttopProtocol = Protocol::MOESI;
    int firstMttopL1 = -1;

    /**
     * Directory-at-memory mode (the APU baseline's CPU cluster): the
     * bank tracks coherence state but has no shared data cache — data
     * "served from the L2" is really fetched from DRAM (counted), and
     * dirty writebacks flush straight to DRAM. Llano's CPUs share
     * only the Unified Northbridge, not a cache (paper Sec. 2.3).
     */
    bool memoryResident = false;

    /** Home-slice hash; must match the L1 controllers' (and the
     * machine's functional accessors') so every site agrees on each
     * block's home bank. The bank only asserts it, it never routes. */
    SliceHashKind sliceHash = SliceHashKind::Mod;

    /** L2/directory-entry replacement policy for victim selection. */
    cache::ReplacerKind replace = cache::ReplacerKind::Lru;

    /** Seed for stochastic replacement (rand); each bank offsets it
     * by its bank id so banks draw independent victim streams. */
    std::uint64_t replaceSeed = 0x2545F4914F6CDD1Dull;
};

/** One L2 bank with embedded directory state. */
class Directory
{
  public:
    Directory(sim::EventQueue &eq, sim::StatRegistry &stats,
              const std::string &name, const DirConfig &cfg, int bank_id,
              int num_banks, noc::Network &net, noc::NodeId my_node,
              mem::DramCtrl &dram, mem::PhysMem &phys);

    /** Wire up the L1s (index = L1Id). */
    void connectL1s(std::vector<L1Ref> l1s);

    /** Network-side entry point. */
    void handleMessage(CohMsg msg);

    noc::NodeId node() const { return node_; }

    /** Number of open transactions + stalled messages (for tests). */
    std::size_t pendingWork() const;

    /** Describe any open work (for test diagnostics). */
    std::string describePending() const;

    /** Directory's view of a block (for tests): returns true and fills
     * the out-params when the block is present in this bank. */
    bool probe(Addr block_addr, DirState &st, L1Id &owner,
               unsigned &num_sharers);

    /** Functional probe: copy L2 data if the block is resident. */
    bool funcReadBlock(Addr block_addr, std::uint8_t *out);

    /** Functional write-through into a resident L2 copy. */
    void funcWriteBlock(Addr block_addr, unsigned offset,
                        const void *src, unsigned len);

  private:
    /** L2 line with embedded directory state. The L2 arrays are a
     * machine's largest allocation, so the fields are ordered (and
     * the flags packed) to keep a line at 88 bytes. */
    struct L2Line
    {
        Addr addr = invalidAddr;
        std::uint64_t sharers = 0; ///< bit i = L1 i holds S (or O)
        L1Id owner = noL1;
        bool valid : 1 = false;
        bool busy : 1 = false;  ///< transaction or recall in flight
        bool dirty : 1 = false; ///< L2 data newer than DRAM
        DirState st = DirState::S;
        /** Region class of the block, recorded from its requests. A
         * block belongs to exactly one VM region, so every request
         * agrees; ProtocolOverride lines resolve both ends of a
         * transaction against regionProt instead of the clusters'. */
        RegionAttr region = RegionAttr::Coherent;
        Protocol regionProt{};
        std::array<std::uint8_t, mem::blockBytes> data{};

        /** The region replacement policy's preference hook: lines a
         * workload marked non-default (bypass-adjacent or
         * protocol-override/read-mostly) volunteer for eviction
         * before hard-earned default-coherent lines. */
        bool evictPreferred() const
        {
            return region != RegionAttr::Coherent;
        }
    };

    /** Open Get transaction, closed by Unblock. */
    struct Txn
    {
        MsgType req = MsgType::GetS;
        L1Id requestor = noL1;
        bool forwarded = false;
        L1Id oldOwner = noL1;
        Tick startTick = 0; ///< trace span start (request accepted)
    };

    /** Inclusive-eviction recall in progress. */
    struct Recall
    {
        int acksLeft = 0;
        CohMsg pendingReq; ///< the allocation that triggered it
    };

    // --- request processing (line not busy on entry) ---
    void processRequest(CohMsg &msg);
    void processGetS(CohMsg &msg, L2Line *line);
    void processGetM(CohMsg &msg, L2Line *line);
    /** Uncacheable scalar op from a bypass region: run it at the home
     * (resident L2 copy, else DRAM) without allocating or granting
     * any L1 permission. */
    void processBypass(CohMsg &msg, L2Line *line);
    void processPutS(CohMsg &msg, L2Line *line);
    void processPutOwned(CohMsg &msg, L2Line *line);
    void processUnblock(CohMsg &msg);
    void processRecallResponse(CohMsg &msg);

    /** NP block: allocate a frame (recalling a victim if needed) and
     * fetch from DRAM, then grant. */
    void allocateAndFetch(CohMsg msg);
    void startRecall(L2Line *victim, CohMsg pending_msg);
    void finishRecall(Addr victim_addr);

    void retryStalled(Addr block_addr);
    void retryStalledAllocs();

    /** Take dirty data arriving at the home (dirty PutOwned, or a
     * dirty Unblock under protocols without O): update the L2 copy
     * and either mark it dirty or, in memory-resident mode, flush it
     * off-chip immediately. */
    void absorbDirtyData(L2Line &line, const CohMsg &msg);

    // --- helpers ---
    static unsigned popcount(std::uint64_t m);
    static std::uint64_t bit(L1Id id) { return std::uint64_t(1) << id; }
    bool isSharer(const L2Line &line, L1Id id) const;
    /** L1 @p id belongs to the MTTOP cluster (cluster split active
     * and id at or past the boundary). */
    bool isMttopL1(L1Id id) const;
    /** The protocol policy governing L1 @p id's cluster. */
    const ProtocolPolicy &policyFor(L1Id id) const;
    /** The policy governing a request: the region's override when the
     * request carries one, else the requestor's cluster policy. */
    const ProtocolPolicy &policyForReq(const CohMsg &msg) const;
    /** The policy governing L1 @p id's side of a transaction on
     * @p line: the line's region override, else its cluster policy. */
    const ProtocolPolicy &policyFor(const L2Line &line, L1Id id) const;
    /** Record the request's region class on the line. */
    static void stampRegion(L2Line &line, const CohMsg &msg);
    void sendInvs(L2Line &line, L1Id skip, L1Id ack_dest);
    void sendToL1(L1Id dst, CohMsg msg, Tick extra_latency);
    void sendPutAck(Addr block_addr, L1Id dst);
    /** Serve a data response whose payload nominally comes from the
     * L2 array; in memory-resident mode it is fetched off-chip. */
    void serveData(L1Id dst, CohMsg msg);

    sim::EventQueue *eq_;
    DirConfig cfg_;
    const ProtocolPolicy *cpuPolicy_;
    const ProtocolPolicy *mttopPolicy_;
    int bankId_;
    int numBanks_;
    noc::Network *net_;
    noc::NodeId node_;
    mem::DramCtrl *dram_;
    mem::PhysMem *phys_;

    cache::CacheArray<L2Line> array_;
    std::unordered_map<Addr, Txn> txns_;
    std::unordered_map<Addr, Recall> recalls_;
    std::unordered_map<Addr, std::deque<CohMsg>> stalled_;
    std::vector<CohMsg> stalledAllocs_;
    std::vector<L1Ref> l1s_;

    sim::Counter &getS_;
    sim::Counter &getM_;
    sim::Counter &fetches_;
    /** fetches split by the requesting block's region class (bypass
     * regions never fill the L2, so they have no fetch counter —
     * their traffic shows up as bypassReads/bypassWrites instead). */
    sim::Counter &fetchesCoherent_;
    sim::Counter &fetchesOverride_;
    sim::Counter &writebacks_;
    /** Uncacheable ops served at the home for bypass regions (an AMO
     * counts as a write). */
    sim::Counter &bypassReads_;
    sim::Counter &bypassWrites_;
    sim::Counter &sharingWb_;
    /** sharingWb split by the cluster of the requestor that carried
     * the dirty data home (the side paying the writeback). */
    sim::Counter &sharingWbCpu_;
    sim::Counter &sharingWbMttop_;
    /** Invalidations sent, split by destination cluster. */
    sim::Counter &invsSentCpu_;
    sim::Counter &invsSentMttop_;
    /** Invalidations sent, split by the block's region class. */
    sim::Counter &invsSentCoherent_;
    sim::Counter &invsSentOverride_;
    sim::Counter &recallsStat_;
    sim::Counter &stalls_;
    /** Coherence requests accepted at this bank (Get/Put/Bypass
     * arrivals, including retries after a recall frees their frame) —
     * the per-bank load-balance view of the slice hash. */
    sim::Counter &requests_;
    /** High-water mark of valid lines in this bank — the per-bank
     * capacity-balance view of the slice hash. */
    sim::Counter &occupancy_;
    /** Set-conflict evictions: recalls started to free a frame for an
     * allocation, total and split for victims that were
     * default-coherent lines (what the region replacer protects). */
    sim::Counter &conflictEvictions_;
    sim::Counter &conflictEvictionsCoherent_;
    /** Home-side transaction latency (request accepted to Unblock). */
    sim::LatencyHistogram &dirLat_;

    /** Current/peak valid-line levels behind occupancy_. */
    unsigned occLevel_ = 0;
    unsigned occPeak_ = 0;

    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_DIRECTORY_HH
