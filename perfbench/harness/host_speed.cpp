#include "host_speed.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>
#include <utility>

#include "util.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kValues = 8192;
constexpr std::size_t kTableWords = std::size_t{1} << 19;  // 2 MiB
constexpr std::size_t kChaseSteps = std::size_t{1} << 14;

}  // namespace

HostSpeed::HostSpeed() : table_(kTableWords), values_(kValues) {
  Rng rng(0x7AB1E);
  for (std::uint32_t& t : table_) {
    t = static_cast<std::uint32_t>(rng.next() % kTableWords);
  }
  text_.reserve(kValues * 32);
  reference_kernel();  // first touch of every buffer
}

/// A fixed mix of what the workloads do: format and parse numbers, build a
/// string, sort, hash, and chase pointers through a table as large as one
/// core's L2.  Every buffer is reused, so no call page-faults.
std::uint64_t HostSpeed::reference_kernel() {
  Rng rng(0x5EED);
  for (double& v : values_) v = rng.uniform() * 1e4 - 5e3;
  text_.clear();
  char buf[32];
  for (const double v : values_) {
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    text_.append(buf, res.ptr);
    text_.push_back(',');
  }
  double sum = 0.0;
  const char* const end = text_.data() + text_.size();
  for (const char* p = text_.data(); p < end; ++p) {
    double v = 0.0;
    p = std::from_chars(p, end, v).ptr;
    sum += v;
  }
  std::sort(values_.begin(), values_.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text_) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kChaseSteps; ++i) at = table_[at];
  return h ^ at ^ static_cast<std::uint64_t>(sum + values_[kValues / 2]);
}

void HostSpeed::sample(std::size_t times) {
  for (std::size_t i = 0; i < times; ++i) {
    const Stopwatch sw;
    sink_ ^= reference_kernel();
    samples_s_.push_back(sw.seconds());
  }
}

double HostSpeed::time_scale(std::size_t n) const {
  if (n == 0 || n > samples_s_.size()) {
    throw std::logic_error("host speed: too few samples");
  }
  std::vector<double> last(samples_s_.end() - static_cast<std::ptrdiff_t>(n),
                           samples_s_.end());
  return kNominalSeconds / quantile(std::move(last), 0.5);
}

}  // namespace perfbench
