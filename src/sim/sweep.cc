#include "sim/sweep.hh"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "base/logging.hh"

namespace ccsvm::sim
{

unsigned
defaultSweepJobs()
{
    if (const char *env = std::getenv("CCSVM_JOBS")) {
        // strtoul accepts a sign and wraps "-1" to ULONG_MAX, so
        // require a leading digit and a value that fits.
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (std::isdigit(static_cast<unsigned char>(env[0])) && !*end &&
            v > 0 && v <= std::numeric_limits<unsigned>::max())
            return static_cast<unsigned>(v);
        ccsvm_warn("CCSVM_JOBS='%s' is not a positive integer; "
                   "using hardware concurrency", env);
    }
    // hardware_concurrency() may return 0 when the count is unknown.
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? jobs : defaultSweepJobs())
{}

void
SweepRunner::forEachIndex(
    std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    if (jobs_ <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    const std::size_t nthreads =
        std::min<std::size_t>(jobs_, n);
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();

    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace ccsvm::sim
