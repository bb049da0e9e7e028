// Profile computation over exported traces.
//
// Rebuilds span nesting from a Chrome-format trace document (interval
// containment per thread) and aggregates per span name:
//
//   inclusive — total time inside spans of that name
//   self      — inclusive minus time inside directly nested spans
//
// This is the analysis half of the obs layer: hpcem_prof prints these
// tables and diffs two of them into an A/B regression report, which is the
// pipeline the BENCH_*.json / trace artifacts feed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace hpcem::obs {

/// Aggregate of one span name across the whole trace.
struct ProfileEntry {
  std::string name;
  std::uint64_t count = 0;
  double inclusive = 0.0;
  double self = 0.0;
};

/// Whole-trace profile, entries sorted by self time (descending; name
/// breaks ties).
struct Profile {
  /// "us" for wall traces, "ticks" for deterministic ones.
  std::string time_unit = "us";
  std::vector<ProfileEntry> entries;
};

/// Profile a parsed trace document (trace_export.hpp layout; any Chrome
/// trace with "X" events works).  Throws ParseError on malformed input.
[[nodiscard]] Profile profile_trace(const JsonValue& trace_doc);

/// One span name's A/B comparison.  `self_pct` is the self-time change
/// from a (baseline) to b, in percent; +inf when the span is new in b.
struct ProfileDelta {
  std::string name;
  std::uint64_t count_a = 0;
  std::uint64_t count_b = 0;
  double self_a = 0.0;
  double self_b = 0.0;
  double inclusive_a = 0.0;
  double inclusive_b = 0.0;
  double self_pct = 0.0;
};

/// Union of both profiles' span names, sorted by current (b) self time
/// descending.  Throws InvalidArgument when the time units differ.
[[nodiscard]] std::vector<ProfileDelta> compare_profiles(const Profile& a,
                                                         const Profile& b);

}  // namespace hpcem::obs
