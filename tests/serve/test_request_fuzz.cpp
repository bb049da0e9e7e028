// Seeded fuzzer for the request NDJSON path.
//
// Inputs are mutations of the committed serve request stream
// (bench/baselines/serve/requests.ndjson) and of generated curve requests:
// truncations, byte flips, duplicated and unknown members, huge and
// malformed numbers, and deep nesting.  A case is a stream of request
// lines sent to long-lived fronts, so cache state carries across lines.
// For every line:
//
//   1. ServeFront::handle neither crashes nor throws, and answers with one
//      line of JSON carrying an "ok" member;
//   2. the bytes are the same through QueryEngine::handle_line and through
//      fronts with the result cache on and off (admin ops, which only the
//      front answers, are exempt from the engine comparison).
//
// The case count scales with HPCEM_REQUEST_FUZZ_CASES (default 100; CI runs
// 200 under ASan/UBSan).  Every case derives from a fixed master seed, so a
// failure reproduces by number.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "request_gen.hpp"
#include "serve/front.hpp"
#include "serve/query.hpp"
#include "util/json.hpp"

namespace hpcem::serve {
namespace {

constexpr std::uint64_t kMasterSeed = 0xF022BEEFULL;
/// Request lines in one fuzz case's stream.
constexpr std::size_t kLinesPerCase = 10;

std::size_t fuzz_cases() {
  if (const char* env = std::getenv("HPCEM_REQUEST_FUZZ_CASES")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 100;
}

std::vector<std::string> committed_lines() {
  std::ifstream in(HPCEM_SERVE_BASELINE_DIR "/requests.ndjson");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Apply one random mutation to `line`.
std::string mutate(std::string line, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto insert_member = [&](const std::string& member) {
    // Right after the opening brace, or before the closing one.
    const std::size_t at = rng.bernoulli(0.5) || line.size() < 2
                               ? std::min<std::size_t>(1, line.size())
                               : line.size() - 1;
    const std::string text = at == 1 ? member + "," : "," + member;
    line.insert(at, text);
  };
  switch (pick(7)) {
    case 0:  // truncation
      line.resize(pick(line.size() + 1));
      break;
    case 1: {  // byte flips, to anything or to JSON punctuation
      static constexpr char kPunct[] = "{}[]\",:\\0-e.";
      const std::size_t flips = 1 + pick(3);
      for (std::size_t i = 0; i < flips && !line.empty(); ++i) {
        line[pick(line.size())] =
            rng.bernoulli(0.5) ? static_cast<char>(pick(256))
                               : kPunct[pick(sizeof(kPunct) - 1)];
      }
      break;
    }
    case 2: {  // duplicated member: repeat one the line already has
      static constexpr const char* kDup[] = {
          R"("op":"list")", R"("op":"whatif")", R"("id":"dup")",
          R"("scenario":"archer2-baseline-2022")", R"("channel":"utilisation")",
          R"("start":1640995200)", R"("end":1e9)",
          R"("intensity":{"constant_g_per_kwh":40})",
          // Finite on the wire, infinite once converted to grams.
          R"("scope3":{"total_tonnes":9e305,"lifetime_years":4})"};
      insert_member(kDup[rng.bernoulli(0.3) ? 8 : pick(8)]);
      break;
    }
    case 3: {  // unknown member
      static constexpr const char* kUnknown[] = {
          R"("bogus":1)", R"("Scenario":"x")", R"("":null)",
          R"("spec":{"grid":{"constant_g_per_kwh":1},"extra":true})"};
      insert_member(kUnknown[pick(4)]);
      break;
    }
    case 4: {  // huge or malformed number in place of a digit run
      static constexpr const char* kNumbers[] = {
          "1e400", "-1e400", "1e308",    "1e303", "1234567890123456789012345",
          "0x10",  "1.",     ".5",       "-",     "1e",
          "NaN",   "Infinity", "-0",     "5e-324", "00", "1e-400"};
      const std::size_t digit =
          line.find_first_of("0123456789", pick(line.size() + 1));
      if (digit == std::string::npos) break;
      std::size_t end = digit;
      while (end < line.size() &&
             std::string("0123456789.eE+-").find(line[end]) !=
                 std::string::npos) {
        ++end;
      }
      line.replace(digit, end - digit, kNumbers[pick(16)]);
      break;
    }
    case 5: {  // deep nesting at a random point
      const std::size_t depth =
          rng.bernoulli(0.5) ? 120 + pick(20) : 1000 + pick(100000);
      const std::size_t at = pick(line.size() + 1);
      const char open = rng.bernoulli(0.5) ? '[' : '{';
      std::string nest(depth, open);
      if (rng.bernoulli(0.5)) {
        nest += std::string(depth, open == '[' ? ']' : '}');
      }
      line.insert(at, nest);
      break;
    }
    default: {  // splice: a slice of the line repeated in place
      if (line.empty()) break;
      const std::size_t a = pick(line.size());
      const std::size_t n =
          1 + pick(std::min<std::size_t>(40, line.size() - a));
      line.insert(a, line.substr(a, n));
      break;
    }
  }
  return line;
}

bool is_admin(const std::string& line) {
  try {
    const auto op = QueryRequest::from_json_text(line).op;
    return op == QueryRequest::Op::kStats || op == QueryRequest::Op::kTrace;
  } catch (const Error&) {
    return false;
  }
}

class RequestFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_ = new ArtifactStore();
    store_->load_directory(HPCEM_SERVE_BASELINE_DIR);
  }
  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
  }
  static ArtifactStore* store_;
};

ArtifactStore* RequestFuzz::store_ = nullptr;

TEST_F(RequestFuzz, MutatedRequestStreamsAnswerOneLineAlikeEverywhere) {
  const std::vector<std::string> seeds = committed_lines();
  ASSERT_FALSE(seeds.empty());

  request_gen::RequestVocabulary vocab;
  vocab.scenarios = store_->scenario_names();
  vocab.channels = {"cabinet_kw", "utilisation", "node_fleet_kw"};
  request_gen::RequestGenerator gen(vocab, kMasterSeed);
  Rng& rng = gen.rng();

  const QueryEngine engine(*store_);
  ServeOptions cached;
  cached.workers = 1;
  ServeOptions uncached = cached;
  uncached.cache_entries = 0;
  ServeFront front_cached(*store_, cached);
  ServeFront front_uncached(*store_, uncached);

  const std::size_t n = fuzz_cases() * kLinesPerCase;
  std::size_t answered_ok = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const auto seed = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1));
    std::string line = rng.bernoulli(0.5) ? seeds[seed] : gen.line();
    const int mutations = static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < mutations; ++m) line = mutate(std::move(line), rng);
    SCOPED_TRACE("case " + std::to_string(c / kLinesPerCase) + " line " +
                 std::to_string(c % kLinesPerCase) + ": " +
                 line.substr(0, 300));

    std::string with_cache;
    std::string without_cache;
    try {
      with_cache = front_cached.handle(line);
      without_cache = front_uncached.handle(line);
    } catch (const std::exception& e) {
      FAIL() << "ServeFront::handle threw: " << e.what();
    }
    ASSERT_EQ(with_cache.find('\n'), std::string::npos);
    const JsonValue parsed = JsonValue::parse(with_cache);
    ASSERT_NE(parsed.get("ok"), nullptr);
    if (parsed.at("ok").as_bool()) ++answered_ok;
    if (is_admin(line)) continue;  // live front counters: not comparable
    EXPECT_EQ(with_cache, without_cache);
    EXPECT_EQ(with_cache, engine.handle_line(line));
  }
  // The stream must not be all parse errors: mutations are light enough
  // that valid requests still reach the engine.
  EXPECT_GT(answered_ok, n / 10);
}

TEST_F(RequestFuzz, RepeatsAndCanonicalSpellingsHitTheSameAnswer) {
  // The verbatim-line and canonical-key cache levels must return exactly
  // what a fresh evaluation returns, however the request was spelled.
  request_gen::RequestVocabulary vocab;
  vocab.scenarios = store_->scenario_names();
  vocab.channels = {"cabinet_kw", "utilisation", "node_fleet_kw"};
  vocab.max_points = 200;
  request_gen::RequestGenerator gen(vocab, kMasterSeed + 1);
  const QueryEngine engine(*store_);
  ServeOptions options;
  options.workers = 1;
  ServeFront front(*store_, options);
  const std::size_t n = fuzz_cases() * 4;
  for (std::size_t c = 0; c < n; ++c) {
    const std::string line = gen.line(c % 2 == 0 ? "whatif" : "regimes");
    SCOPED_TRACE("case " + std::to_string(c / 4) + " line " +
                 std::to_string(c % 4) + ": " + line.substr(0, 300));
    const std::string expected = engine.handle_line(line);
    const std::string key =
        QueryRequest::from_json_text(line).canonical_key();
    EXPECT_EQ(front.handle(line), expected);
    EXPECT_EQ(front.handle(line), expected);  // verbatim-line hit
    EXPECT_EQ(front.handle(key), expected);   // canonical spelling
    EXPECT_EQ(engine.handle_line(key), expected);
  }
}

}  // namespace
}  // namespace hpcem::serve
