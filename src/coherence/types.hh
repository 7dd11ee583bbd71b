/**
 * @file
 * Protocol-wide types for the MOESI directory protocol.
 *
 * The paper (Sec. 3.2.2) uses "a standard, unoptimized MOESI directory
 * protocol in which the directory state is embedded in the L2 blocks"
 * with an inclusive L2; every type here mirrors that design.
 */

#ifndef CCSVM_COHERENCE_TYPES_HH
#define CCSVM_COHERENCE_TYPES_HH

#include <cstdint>

#include "base/types.hh"

namespace ccsvm::coherence
{

/** Stable MOESI states at an L1 cache. */
enum class CohState : std::uint8_t
{
    I, ///< invalid
    S, ///< shared, clean, read-only
    E, ///< exclusive, clean, silently upgradable to M
    M, ///< modified, dirty, sole copy
    O, ///< owned, dirty, other sharers may exist
};

const char *cohStateName(CohState s);

/** True if @p s permits loads. */
constexpr bool
canRead(CohState s)
{
    return s != CohState::I;
}

/** True if @p s permits stores and atomics (E upgrades silently). */
constexpr bool
canWrite(CohState s)
{
    return s == CohState::E || s == CohState::M;
}

/** Directory-side summary state embedded in each L2 line. */
enum class DirState : std::uint8_t
{
    S, ///< L2 data valid; zero or more L1 sharers; no owner
    X, ///< one L1 owner holds the block E or M; L2 data possibly stale
    O, ///< one dirty L1 owner plus sharers; L2 data stale
};

const char *dirStateName(DirState s);

/** Identifier of an L1 cache controller within one machine. */
using L1Id = int;
inline constexpr L1Id noL1 = -1;
/** Most L1s one directory can track: sharer sets are 64-bit masks. */
inline constexpr int maxL1s = 64;

/**
 * Selectable coherence protocols, ordered weakest to strongest.
 * Defined here rather than protocol.hh so the VM layer can tag memory
 * regions with a protocol override without pulling the policy and
 * message headers into every translation path.
 */
enum class Protocol : std::uint8_t
{
    MSI,
    MESI,
    MOESI,
};

/**
 * Per-region coherence treatment. A virtual-memory region carries one
 * of these attributes (vm::MemRegion); the TLB hands it to the core
 * with every translation and the L1/directory honor it per request.
 */
enum class RegionAttr : std::uint8_t
{
    /** Default: full hardware coherence under the cluster protocol. */
    Coherent,
    /** Uncacheable: the L1 never allocates; reads/writes/atomics run
     * at the home node (L2 copy if resident, else DRAM) and generate
     * no fills, upgrades or invalidations. */
    Bypass,
    /** Coherent, but under the region's own protocol instead of the
     * cluster default (e.g. read-mostly data pinned to MESI). */
    ProtocolOverride,
};

/** Lower-case attribute name ("coherent", "bypass", "override"). */
const char *regionAttrName(RegionAttr a);

/** Atomic read-modify-write operations (the MTTOP ISA's atomics,
 * Sec. 3.2.4: atomic_cas, atomic_add, atomic_inc, atomic_dec, plus
 * exchange and min/max used by the workloads). */
enum class AmoOp : std::uint8_t
{
    Add,
    Inc,
    Dec,
    Cas,
    Exch,
    Min,
    Max,
};

/**
 * Apply @p op to @p old_val.
 * @param operand   first operand (addend / compare value)
 * @param operand2  second operand (swap value for CAS)
 * @return the new value to store
 */
std::uint64_t amoApply(AmoOp op, std::uint64_t old_val,
                       std::uint64_t operand, std::uint64_t operand2);

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_TYPES_HH
