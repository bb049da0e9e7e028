#include "obs/profile.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "util/error.hpp"

namespace hpcem::obs {

namespace {

struct OpenSpan {
  std::string name;
  double end = 0.0;
  double dur = 0.0;
  double child_time = 0.0;
};

struct Accum {
  std::uint64_t count = 0;
  double inclusive = 0.0;
  double self = 0.0;
};

struct RawEvent {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
};

void close_span(std::map<std::string, Accum>& by_name, const OpenSpan& s) {
  Accum& a = by_name[s.name];
  ++a.count;
  a.inclusive += s.dur;
  a.self += s.dur - s.child_time;
}

}  // namespace

Profile profile_trace(const JsonValue& trace_doc) {
  const JsonValue* events = trace_doc.get("traceEvents");
  require(events != nullptr && events->is_array(),
          "profile_trace: document has no traceEvents array");

  Profile profile;
  if (const JsonValue* unit = trace_doc.get("time_unit")) {
    profile.time_unit = unit->as_string();
  }

  // Complete ("X") events grouped by thread.
  std::map<double, std::vector<RawEvent>> by_tid;
  for (const auto& ev : events->as_array()) {
    const JsonValue* ph = ev.get("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const double tid =
        ev.get("tid") != nullptr ? ev.at("tid").as_number() : 0.0;
    by_tid[tid].push_back({ev.at("name").as_string(),
                           ev.at("ts").as_number(),
                           ev.at("dur").as_number()});
  }

  std::map<std::string, Accum> by_name;
  for (auto& [tid, raw] : by_tid) {
    // Parents first: by start time, longest first on ties.
    std::sort(raw.begin(), raw.end(),
              [](const RawEvent& a, const RawEvent& b) {
                return std::tuple(a.ts, b.dur, a.name) <
                       std::tuple(b.ts, a.dur, b.name);
              });
    std::vector<OpenSpan> stack;
    for (const RawEvent& ev : raw) {
      while (!stack.empty() && ev.ts >= stack.back().end) {
        close_span(by_name, stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_time += ev.dur;
      stack.push_back({ev.name, ev.ts + ev.dur, ev.dur, 0.0});
    }
    while (!stack.empty()) {
      close_span(by_name, stack.back());
      stack.pop_back();
    }
  }

  profile.entries.reserve(by_name.size());
  for (const auto& [name, a] : by_name) {
    profile.entries.push_back({name, a.count, a.inclusive, a.self});
  }
  std::sort(profile.entries.begin(), profile.entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              return std::tuple(b.self, a.name) < std::tuple(a.self, b.name);
            });
  return profile;
}

std::vector<ProfileDelta> compare_profiles(const Profile& a,
                                           const Profile& b) {
  require(a.time_unit == b.time_unit,
          "compare_profiles: traces use different time units (" +
              a.time_unit + " vs " + b.time_unit +
              "); compare deterministic runs with deterministic baselines");

  std::map<std::string, ProfileDelta> rows;
  for (const auto& e : a.entries) {
    ProfileDelta& d = rows[e.name];
    d.name = e.name;
    d.count_a = e.count;
    d.self_a = e.self;
    d.inclusive_a = e.inclusive;
  }
  for (const auto& e : b.entries) {
    ProfileDelta& d = rows[e.name];
    d.name = e.name;
    d.count_b = e.count;
    d.self_b = e.self;
    d.inclusive_b = e.inclusive;
  }

  std::vector<ProfileDelta> out;
  out.reserve(rows.size());
  for (auto& [name, d] : rows) {
    if (d.self_a > 0.0) {
      d.self_pct = (d.self_b - d.self_a) / d.self_a * 100.0;
    } else if (d.self_b > 0.0) {
      d.self_pct = std::numeric_limits<double>::infinity();
    }
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(),
            [](const ProfileDelta& x, const ProfileDelta& y) {
              return std::tuple(y.self_b, x.name) <
                     std::tuple(x.self_b, y.name);
            });
  return out;
}

}  // namespace hpcem::obs
