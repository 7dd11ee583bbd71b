/**
 * @file
 * Ablation A9: what trace capture and replay cost on the host.
 *
 * For each probe workload (matmul, synth:false) one job runs three
 * back-to-back simulations on fresh machines:
 *
 *   plain    the workload, no capture        (baseline wall clock)
 *   capture  the workload with --capture-out (hook + encode + flush)
 *   replay   the captured trace re-issued    (decode + re-dispatch)
 *
 * All three execute the same guest op stream, so events-executed is
 * identical by construction and every wall-clock delta is the
 * subsystem's own overhead. The figure reports per-mode wall ms and
 * Mev/s, the capture overhead against plain, and the replay/capture
 * throughput ratio — the host-speed-independent number
 * scripts/bench_compare.py tracks in BENCH_replay.json against its
 * committed baseline.
 *
 * This binary measures host time, so its sweep runs on one worker
 * whatever CCSVM_JOBS says; numbers from a concurrent run_figures.sh
 * session are indicative only.
 */

#include "bench_common.hh"

#include <chrono>
#include <cstdio>

#include "system/ccsvm_machine.hh"
#include "workloads/replay/replayer.hh"
#include "workloads/synth/synth.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

std::string
tracePath(const char *tag)
{
    const char *tmp = std::getenv("TMPDIR");
    return std::string(tmp && tmp[0] ? tmp : "/tmp") +
           "/ccsvm_abl_replay_" + tag + ".ccsvmt";
}

/** One timed simulation; @p run executes the workload on @p m. */
template <typename Fn>
double
timed(system::CcsvmMachine &m, std::uint64_t &events_out, Fn &&run)
{
    const auto t0 = Clock::now();
    const workloads::RunResult r = run(m);
    const double ms = msSince(t0);
    ccsvm_assert(r.correct, "abl_replay workload failed validation");
    events_out = m.engine().eventsExecuted();
    return ms;
}

template <typename Fn>
SweepOutcome
captureReplayProbe(const char *tag, Fn &&workload)
{
    const std::string trace = tracePath(tag);
    SweepOutcome o;
    std::uint64_t ev_plain = 0, ev_capture = 0, ev_replay = 0;

    {
        system::CcsvmMachine m{system::CcsvmConfig{}};
        o.values["plain_ms"] = timed(m, ev_plain, workload);
        o.run.ticks = m.now();
        o.run.dramAccesses = m.dramAccesses();
        o.run.correct = true;
    }
    {
        system::CcsvmConfig cfg;
        cfg.captureOut = trace;
        system::CcsvmMachine m(cfg);
        o.values["capture_ms"] = timed(m, ev_capture, workload);
    }
    {
        system::CcsvmMachine m{system::CcsvmConfig{}};
        o.values["replay_ms"] =
            timed(m, ev_replay, [&trace](system::CcsvmMachine &rm) {
                return workloads::replay::runReplay(rm, trace);
            });
    }
    ccsvm_assert(ev_plain == ev_capture && ev_plain == ev_replay,
                 "capture/replay changed the event count");

    const auto ev = static_cast<double>(ev_plain);
    o.values["events"] = ev;
    o.values["capture_Mev_per_s"] =
        ev / o.values["capture_ms"] / 1e3;
    o.values["replay_Mev_per_s"] = ev / o.values["replay_ms"] / 1e3;
    o.values["capture_overhead_pct"] =
        (o.values["capture_ms"] / o.values["plain_ms"] - 1.0) * 100;
    o.values["replay_capture_ratio"] =
        o.values["capture_ms"] / o.values["replay_ms"];
    std::remove(trace.c_str());
    return o;
}

} // namespace

int
main()
{
    const unsigned n = largeSweeps() ? 48 : 24;
    const unsigned iters = largeSweeps() ? 128 : 48;

    // Row 0: matmul, row 1: synth:false (the bench_compare baseline
    // keys on these x values).
    const std::vector<Job> jobs{
        [n] {
            return captureReplayProbe(
                "matmul", [n](system::CcsvmMachine &m) {
                    return workloads::matmulXthreads(m, n);
                });
        },
        [iters] {
            return captureReplayProbe(
                "synth_false", [iters](system::CcsvmMachine &m) {
                    workloads::synth::SynthParams sp;
                    sp.pattern = workloads::synth::Pattern::FalseShare;
                    sp.iters = iters;
                    return workloads::synth::synthXthreads(m, sp);
                });
        },
    };
    // One worker: every column but events is host time.
    const auto out = runSweep(jobs, 1);

    FigureTable table;
    for (std::uint64_t x = 0; x < out.size(); ++x)
        for (const char *key :
             {"plain_ms", "capture_ms", "replay_ms", "capture_Mev_per_s",
              "replay_Mev_per_s", "capture_overhead_pct",
              "replay_capture_ratio", "events"})
            table.record(x, key, out[x].values.at(key));
    return finish(table, out,
                  "Ablation A9: trace capture/replay host cost (x: "
                  "0=matmul, 1=synth:false)",
                  "workload");
}
