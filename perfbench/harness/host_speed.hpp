// The host's speed, from a fixed reference kernel timed between the
// workload's traffic rounds.
//
// On a shared multi-tenant guest the effective speed of a vCPU moves by a
// quarter either way from one quarter-second to the next, and between
// periods lasting minutes, while steal time stays near zero: the
// neighbours slow the core down rather than take it away.  A run's
// latencies and rates move with it, so each traffic round's times are
// scaled by the speed the reference kernel saw just before and just after
// that round.  The kernel uses only the standard library, so no change to
// the program under test can move it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  HostSpeed();

  /// The kernel's median time, in seconds, on the host the benchmark was
  /// calibrated on; a run's scale is this over the run's own median.
  static constexpr double kNominalSeconds = 2.25e-3;

  /// Time the reference kernel `times` times.
  void sample(std::size_t times);

  /// Factor turning a time measured while the last `n` samples were taken
  /// into a time on the nominal host: kNominalSeconds over their median.
  [[nodiscard]] double time_scale(std::size_t n) const;
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_s_;
  }

 private:
  std::uint64_t reference_kernel();

  std::vector<std::uint32_t> table_;
  std::vector<double> values_;
  std::string text_;
  std::vector<double> samples_s_;
  std::uint64_t sink_ = 0;  ///< keeps the kernel's result alive
};

}  // namespace perfbench
