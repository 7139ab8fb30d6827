// Core identifier types shared across the MTAT simulator.
#pragma once

#include <cstdint>
#include <limits>

namespace mtat {

/// Dense index of a simulated physical page within the TieredMemory page array.
using PageId = std::uint32_t;
constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();

/// Identifies a co-located workload (tenant). Workload 0 is conventionally the
/// LC workload in experiments, but nothing in the memory substrate assumes it.
using WorkloadId = std::uint16_t;
constexpr WorkloadId kInvalidWorkload = std::numeric_limits<WorkloadId>::max();

/// Index of a memory tier in an ordered topology: tier 0 is the fastest
/// (local DRAM), higher ids are progressively slower (CXL, NVM, remote DRAM).
/// Adjacent tiers k and k+1 are connected by migration link k; demotion
/// cascades one link at a time toward the slowest tier.
using TierId = std::uint8_t;

/// Upper bound on tiers in a topology. PageHotness packs the tier into a
/// 3-bit field of its per-page word, and real hierarchies top out well below
/// this (DRAM/CXL/NVM/remote is four).
inline constexpr TierId kMaxTiers = 8;

/// The fastest tier, by the ordering convention above. Code addresses "the
/// fastest tier" / "one tier slower" through kFastestTier and TierId
/// arithmetic; there are no two-tier names outside the tests (tests/
/// tier_aliases.h), so every module works on N-tier topologies unchanged.
inline constexpr TierId kFastestTier = 0;

/// Read/write discriminator for sampled accesses (the paper samples loads via
/// MEM_LOAD_L3_MISS_RETIRED.* and stores via MEM_INST_RETIRED.ALL_STORES).
enum class AccessKind : std::uint8_t { kRead = 0, kWrite = 1 };

}  // namespace mtat
