// Two-tier names for the paper's testbed, for tests that pin two-tier
// fixtures: tier 0 is FMem (local DRAM, ~73 ns), tier 1 is SMem (NUMA-remote
// DRAM emulating CXL, ~202 ns). The simulator itself has no such names — it
// speaks TierId (common/types.h) — and no include path outside tests/ reaches
// this header, so a two-tier name in src/, bench/, tools/ or examples/ fails
// to compile.
#pragma once

#include "common/types.h"

namespace mtat {

struct Tier {
  static constexpr TierId kFMem = 0;  ///< fast tier (local DRAM in the paper; 73 ns)
  static constexpr TierId kSMem = 1;  ///< slow tier (emulated CXL in the paper; 202 ns)
};

}  // namespace mtat
