/**
 * @file
 * Reusable wiring harness for coherence-protocol tests: N L1s and B
 * directory banks on a torus, with DRAM, physical memory and the SWMR
 * monitor, plus blocking helpers that issue one access and run the
 * event queue until it completes.
 */

#ifndef CCSVM_TESTS_COHERENCE_HARNESS_HH
#define CCSVM_TESTS_COHERENCE_HARNESS_HH

#include <memory>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/l1_cache.hh"
#include "coherence/monitor.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "noc/torus.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace ccsvm::test
{

using namespace ccsvm::coherence;

/** A small CCSVM memory system for protocol testing. */
struct CohHarness
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    mem::PhysMem phys{64 * 1024 * 1024};
    std::unique_ptr<mem::DramCtrl> dram;
    std::unique_ptr<noc::TorusNetwork> net;
    SwmrMonitor monitor;
    std::vector<std::unique_ptr<L1Controller>> l1s;
    std::vector<std::unique_ptr<Directory>> banks;

    /**
     * @param num_l1s    number of L1 controllers
     * @param num_banks  number of L2/directory banks
     * @param l1_cfg     L1 geometry/timing
     * @param dir_cfg    L2 bank geometry/timing
     * @param proto      coherence protocol for every controller
     *                   (overrides the config structs' setting)
     */
    CohHarness(int num_l1s, int num_banks, L1Config l1_cfg = {},
               DirConfig dir_cfg = {},
               Protocol proto = Protocol::MOESI)
        : CohHarness(Clusters{num_l1s, 0, proto, proto}, num_banks,
                     l1_cfg, dir_cfg)
    {}

    /** Cluster split for the heterogeneous constructor. */
    struct Clusters
    {
        int cpuL1s;
        int mttopL1s;
        Protocol cpuProto;
        Protocol mttopProto;
    };

    /**
     * Heterogeneous harness: @p split.cpuL1s CPU-cluster L1s
     * (ids 0..) running split.cpuProto, then split.mttopL1s
     * MTTOP-cluster L1s running split.mttopProto, against
     * @p num_banks banks that mediate the pair the way the full
     * machine's directory does.
     */
    CohHarness(const Clusters &split, int num_banks,
               L1Config l1_cfg = {}, DirConfig dir_cfg = {})
    {
        const int num_cpu_l1s = split.cpuL1s;
        const Protocol cpu_proto = split.cpuProto;
        const Protocol mttop_proto = split.mttopProto;
        const int num_l1s = split.cpuL1s + split.mttopL1s;
        dir_cfg.cpuProtocol = cpu_proto;
        dir_cfg.mttopProtocol = mttop_proto;
        dir_cfg.firstMttopL1 = num_cpu_l1s;
        mem::DramConfig dram_cfg;
        dram = std::make_unique<mem::DramCtrl>(eq, stats, "dram",
                                               dram_cfg);

        noc::TorusConfig tcfg;
        const int nodes = num_l1s + num_banks;
        tcfg.width = (nodes + 1) / 2;
        tcfg.height = 2;
        net = std::make_unique<noc::TorusNetwork>(eq, stats, "noc",
                                                  tcfg);

        for (int i = 0; i < num_l1s; ++i) {
            l1_cfg.protocol =
                i < num_cpu_l1s ? cpu_proto : mttop_proto;
            l1s.push_back(std::make_unique<L1Controller>(
                eq, stats, "l1." + std::to_string(i), l1_cfg, i, *net,
                /*node=*/i, &monitor));
        }
        for (int b = 0; b < num_banks; ++b) {
            banks.push_back(std::make_unique<Directory>(
                eq, stats, "dir." + std::to_string(b), dir_cfg, b,
                num_banks, *net, /*node=*/num_l1s + b, *dram, phys));
        }

        std::vector<L1Ref> l1refs;
        for (int i = 0; i < num_l1s; ++i)
            l1refs.push_back({l1s[i].get(), i});
        std::vector<DirRef> dirrefs;
        for (int b = 0; b < num_banks; ++b)
            dirrefs.push_back({banks[b].get(), num_l1s + b});

        for (auto &l1 : l1s) {
            l1->connectDirectories(dirrefs);
            l1->connectPeers(l1refs);
        }
        for (auto &bank : banks)
            bank->connectL1s(l1refs);
    }

    /** Issue a load at L1 @p id and run until it completes. The
     * optional region attribute/protocol model a request whose page
     * carries a region annotation (bypass or protocol override). */
    std::uint64_t
    load(int id, Addr pa, unsigned size = 8,
         RegionAttr region = RegionAttr::Coherent,
         Protocol region_prot = {})
    {
        std::uint64_t result = 0;
        bool done = false;
        auto req = std::make_unique<MemRequest>();
        req->kind = MemRequest::Kind::Read;
        req->paddr = pa;
        req->size = size;
        req->region = region;
        req->regionProt = region_prot;
        req->onDone = [&](std::uint64_t v) {
            result = v;
            done = true;
        };
        l1s[id]->access(std::move(req));
        runUntil(done);
        return result;
    }

    /** Issue a store at L1 @p id and run until it completes. */
    void
    store(int id, Addr pa, std::uint64_t value, unsigned size = 8,
          RegionAttr region = RegionAttr::Coherent,
          Protocol region_prot = {})
    {
        bool done = false;
        auto req = std::make_unique<MemRequest>();
        req->kind = MemRequest::Kind::Write;
        req->paddr = pa;
        req->size = size;
        req->wdata = value;
        req->region = region;
        req->regionProt = region_prot;
        req->onDone = [&](std::uint64_t) { done = true; };
        l1s[id]->access(std::move(req));
        runUntil(done);
    }

    /** Issue an atomic at L1 @p id; returns the old value. */
    std::uint64_t
    amo(int id, Addr pa, AmoOp op, std::uint64_t operand = 0,
        std::uint64_t operand2 = 0, unsigned size = 8,
        RegionAttr region = RegionAttr::Coherent,
        Protocol region_prot = {})
    {
        std::uint64_t result = 0;
        bool done = false;
        auto req = std::make_unique<MemRequest>();
        req->kind = MemRequest::Kind::Amo;
        req->paddr = pa;
        req->size = size;
        req->amoOp = op;
        req->operand = operand;
        req->operand2 = operand2;
        req->region = region;
        req->regionProt = region_prot;
        req->onDone = [&](std::uint64_t v) {
            result = v;
            done = true;
        };
        l1s[id]->access(std::move(req));
        runUntil(done);
        return result;
    }

    /** Fire an access without waiting (for concurrency tests). */
    void
    issue(int id, MemRequest::Kind kind, Addr pa, std::uint64_t wdata,
          std::function<void(std::uint64_t)> on_done,
          AmoOp op = AmoOp::Add, std::uint64_t operand = 0)
    {
        auto req = std::make_unique<MemRequest>();
        req->kind = kind;
        req->paddr = pa;
        req->size = 8;
        req->wdata = wdata;
        req->amoOp = op;
        req->operand = operand;
        req->onDone = std::move(on_done);
        l1s[id]->access(std::move(req));
    }

    void
    runUntil(bool &done)
    {
        bool ok = eq.runUntil([&] { return done; });
        ccsvm_assert(ok, "request never completed (deadlock?)");
    }

    /** Run until all queued events drain. */
    void drain() { eq.run(); }

    CohState stateAt(int id, Addr pa)
    {
        return l1s[id]->stateOf(pa);
    }
};

} // namespace ccsvm::test

#endif // CCSVM_TESTS_COHERENCE_HARNESS_HH
