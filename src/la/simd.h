// Host vector-ISA probe.
//
// Detects once (cpuid) the best SIMD tier the host CPU can execute. No
// kernel in the library dispatches on it; it is recorded alongside
// measurements so a report states what hardware produced it.
#pragma once

#include <string>

namespace pg::la::simd {

/// Tiers in strictly increasing capability order. kScalar is always
/// available.
enum class Tier { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// "scalar" / "sse2" / "avx2".
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// Best tier the host CPU can execute (cpuid-based, cached after the
/// first call). Non-x86 builds report kScalar.
[[nodiscard]] Tier detect_tier();

/// The host tier for an automatic request: `requested` must be "" or
/// "auto" (anything else throws std::invalid_argument); returns
/// detect_tier().
[[nodiscard]] Tier resolve_tier(const std::string& requested);

}  // namespace pg::la::simd
