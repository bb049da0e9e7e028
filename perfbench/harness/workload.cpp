#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <cstdio>
#include <string_view>

#include "colstore/bytes.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

/// Order-sensitive fold of one line's FNV-1a 64 digest into a running one.
std::uint64_t fold(std::uint64_t h, std::string_view line) {
  return (h ^ hpcem::colstore::fnv1a64(line)) * 0x100000001B3ULL;
}

/// The client calls ServeFront::handle itself, so the front's executor
/// stays idle; it still needs one worker.
constexpr std::size_t kExecutorWorkers = 1;

/// Timed rounds of the paper mix in each query pass of the paper pipeline,
/// after one untimed warm-up round: the first requests over a freshly
/// loaded store ran up to ten times slower than the rest, and set the p99
/// of every pass's first window.
constexpr std::size_t kPaperRounds = 4;

/// Reference-kernel samples taken before the first timed round and after
/// every timed round (about 2 ms each); a round's time_scale is the median
/// of those on either side of it.
constexpr std::size_t kSpeedSamples = 3;

std::unique_ptr<ServeRun> serve_traffic(const BuiltStore& built,
                                        const Mix& mix, std::uint64_t seed,
                                        std::size_t rounds,
                                        std::size_t warmup_rounds,
                                        HostSpeed* speed) {
  auto r = std::make_unique<ServeRun>();
  r->generator =
      std::make_unique<Generator>(mix, shape_of(built.artifacts), seed);
  r->warm_requests = r->generator->warmup();
  for (std::size_t i = 0; i < rounds; ++i) {
    for (auto [batch, n] : {std::pair{&r->open_requests, mix.open_per_round},
                            std::pair{&r->closed_requests,
                                      mix.closed_per_round}}) {
      std::vector<Request> next = r->generator->take(n);
      batch->insert(batch->end(), next.begin(), next.end());
    }
  }
  r->warmup_rounds = warmup_rounds;
  hpcem::serve::ServeOptions options;
  options.workers = kExecutorWorkers;
  const Stopwatch sw;
  {
    hpcem::serve::ServeFront front(built.store, options);
    r->warm = closed_loop(front, r->warm_requests);
    const std::span<const Request> open(r->open_requests);
    const std::span<const Request> closed(r->closed_requests);
    for (std::size_t i = 0; i < rounds; ++i) {
      const bool scaled = speed != nullptr && i >= warmup_rounds;
      if (scaled && i == warmup_rounds) speed->sample(kSpeedSamples);
      r->open.append(open_loop(
          front, open.subspan(i * mix.open_per_round, mix.open_per_round),
          mix.rate_per_s));
      PhaseResult c = closed_loop(
          front,
          closed.subspan(i * mix.closed_per_round, mix.closed_per_round));
      const double closed_s = c.elapsed_s;
      r->closed.append(std::move(c));
      r->rounds.push_back({r->open.responses.size(),
                           r->closed.responses.size(), closed_s, 1.0});
      if (scaled) {
        speed->sample(kSpeedSamples);
        r->rounds.back().time_scale = speed->time_scale(2 * kSpeedSamples);
      }
    }
    r->stats = front.stats();
  }
  r->front_s = sw.seconds();
  return r;
}

}  // namespace

std::size_t ServeRun::timed_open_begin() const {
  return warmup_rounds == 0 ? 0 : rounds[warmup_rounds - 1].open_end;
}

std::size_t ServeRun::timed_closed_begin() const {
  return warmup_rounds == 0 ? 0 : rounds[warmup_rounds - 1].closed_end;
}

std::unique_ptr<BuiltStore> build(const Run& run, bool decode_probe) {
  return build_store(run.specs, run.opt.seed, run.work + "/shards",
                     decode_probe);
}

std::unique_ptr<ServeRun> paper_pass(const Run& run, const BuiltStore& built,
                                     HostSpeed* speed) {
  return serve_traffic(built, run.paper_mix, run.opt.seed * 2 + 1,
                       kPaperRounds + 1, 1, speed);
}

std::unique_ptr<ServeRun> traffic_pass(const Run& run,
                                       const BuiltStore& built,
                                       HostSpeed* speed) {
  const Mix& m = *run.traffic_mix;
  const double open_s = static_cast<double>(m.open_per_round) / m.rate_per_s;
  const auto timed = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(kOpenShare * run.opt.seconds / open_s)));
  return serve_traffic(built, m, run.opt.seed * 2, timed + 1, 1, speed);
}

void check_pass(Run& run, const BuiltStore& built, ServeRun* traffic) {
  run.attempted += check_bands(built, run.failures);
  run.attempted += check_round_trip(built, run.failures);
  if (traffic == nullptr) return;
  Reference ref(built, run.work + "/reference");
  const bool memoize = traffic->generator->mix().working_set > 0;
  const Generator& g = *traffic->generator;
  ref.check(g, traffic->warm_requests, traffic->warm.responses, memoize,
            run.failures);
  traffic->open_bad = ref.check(g, traffic->open_requests,
                                traffic->open.responses, memoize,
                                run.failures);
  traffic->closed_bad = ref.check(g, traffic->closed_requests,
                                  traffic->closed.responses, memoize,
                                  run.failures);
  run.attempted += traffic->warm.responses.size() +
                   traffic->open.responses.size() +
                   traffic->closed.responses.size();
}

std::size_t count_bad(const std::vector<char>& bad) {
  return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
}

void print_digests(const ServeRun& t) {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  for (const auto* batch :
       {&t.warm_requests, &t.open_requests, &t.closed_requests}) {
    for (const Request& r : *batch) requests = fold(requests, *r.line);
  }
  for (const auto* phase : {&t.warm, &t.open, &t.closed}) {
    for (const std::string& r : phase->responses) {
      responses = fold(responses, r);
    }
  }
  std::printf("  digests: requests %016llx responses %016llx\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(responses));
}

}  // namespace perfbench
