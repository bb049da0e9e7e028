#include "traffic.hpp"

#include <iterator>

#include "util.hpp"

namespace perfbench {

namespace {

template <typename T>
void move_append(std::vector<T>& to, std::vector<T>& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

}  // namespace

void PhaseResult::append(PhaseResult&& other) {
  move_append(responses, other.responses);
  move_append(latency_us, other.latency_us);
  move_append(lag_us, other.lag_us);
  elapsed_s += other.elapsed_s;
}

PhaseResult open_loop(hpcem::serve::ServeFront& front,
                      std::span<const Request> requests, double rate_per_s) {
  PhaseResult out;
  const std::size_t n = requests.size();
  out.responses.resize(n);
  out.latency_us.resize(n);
  out.lag_us.resize(n);
  const double interval_ns = 1e9 / rate_per_s;
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::int64_t done = t0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto due =
        t0 + static_cast<std::int64_t>(interval_ns * static_cast<double>(i));
    std::int64_t start = now_ns();
    while (start < due) start = now_ns();
    out.responses[i] = front.handle(*requests[i].line);
    done = now_ns();
    out.lag_us[i] = static_cast<double>(start - due) / 1e3;
    out.latency_us[i] = static_cast<double>(done - due) / 1e3;
  }
  out.elapsed_s = static_cast<double>(done - t0) / 1e9;
  return out;
}

PhaseResult closed_loop(hpcem::serve::ServeFront& front,
                        std::span<const Request> requests) {
  PhaseResult out;
  const std::size_t n = requests.size();
  out.responses.resize(n);
  out.latency_us.resize(n);
  const std::int64_t t0 = now_ns();
  std::int64_t done = t0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t sent = done;
    out.responses[i] = front.handle(*requests[i].line);
    done = now_ns();
    out.latency_us[i] = static_cast<double>(done - sent) / 1e3;
  }
  out.elapsed_s = static_cast<double>(done - t0) / 1e9;
  return out;
}

}  // namespace perfbench
