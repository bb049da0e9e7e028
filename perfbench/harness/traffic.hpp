// Open-loop and closed-loop phases over ServeFront::handle, from one client.
//
// The calling thread is the client and calls the front's synchronous entry
// point directly, so it acts as the front's single worker: a
// first-come-first-served server.  The front's own executor
// (ServeFront::submit) is left out on purpose: on a shared multi-tenant
// guest a thread hand-off through a condition variable costs tens of
// microseconds with millisecond outliers, which drowned the front's own
// costs.  A second client was left out for the same reason: two clients
// contend for the front's locks, and on a guest whose vCPUs the host
// deschedules, a descheduled lock holder stalls its peer, which moved
// capacity by half between runs of the same code.
//
// Open loop: request i falls due at start + i / rate whatever happened
// before it.  While the next request is not yet due the client spins on
// the clock: a sleeping client let the guest idle its vCPU, and the wake-up
// came up to milliseconds late and onto cold caches, which doubled hot
// traffic's p50 and made its p99 a measure of the host's wake-up latency.
// Latency runs from the due time, so time spent waiting behind a slow
// request (the queue) counts.  `lag_us` records how late each request
// started.
//
// Closed loop: the client sends its next request as soon as its previous
// answer arrives.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mix.hpp"
#include "serve/front.hpp"

namespace perfbench {

struct PhaseResult {
  std::vector<std::string> responses;  ///< per sent request, in send order
  std::vector<double> latency_us;      ///< per sent request
  std::vector<double> lag_us;          ///< open loop: start minus due time
  double elapsed_s = 0.0;              ///< first send to last completion

  /// Append another phase's requests (elapsed times add up).
  void append(PhaseResult&& other);
};

[[nodiscard]] PhaseResult open_loop(hpcem::serve::ServeFront& front,
                                    std::span<const Request> requests,
                                    double rate_per_s);

/// Sends every request in order.
[[nodiscard]] PhaseResult closed_loop(hpcem::serve::ServeFront& front,
                                      std::span<const Request> requests);

}  // namespace perfbench
