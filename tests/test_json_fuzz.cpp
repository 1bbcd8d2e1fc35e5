// Randomized differential fuzz harness for the `ftmc serve` JSON parser:
// serve::parse_json (plain integers read without strtod, array elements
// collected on a parser-owned stack) against the reference parser in
// tests/oracle/json_parse_oracle.cpp, the code it replaced.  The contract:
// on every input, either both throw JsonParseError with the same message,
// or both return equal trees whose numbers are bitwise equal.
//
// The corpus is generated here: RemoteExecutor `batch` requests
// (dist::encode_batch_request) for demo and DT-med chromosomes, the
// `evaluate` and `batch` replies of a live in-process server, and every
// ```json example of docs/PROTOCOL.md.  Each iteration derives mutants
// from it: flipped bytes, truncations, splices of two documents, and
// random number-like tokens written into a document.  Below the fuzz
// loop, hand-made cases pin the number rule and the depth limit.
//
// Every failure is SCOPED_TRACE-tagged with the iteration seed; rerun a
// single failing input with FTMC_FUZZ_SEED=<seed> FTMC_FUZZ_ITERS=1.
//
// Environment knobs: FTMC_FUZZ_ITERS (default 40 — the short deterministic
// tier-1 subset; CI's sanitizer job raises it to 300), FTMC_FUZZ_SEED
// (default 2024, the base of the per-iteration seed sequence).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/dist/remote_executor.hpp"
#include "ftmc/dse/chromosome.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/util/rng.hpp"
#include "helpers.hpp"
#include "oracle/json_parse_oracle.hpp"

namespace {

using namespace ftmc;
using fixtures::env_size;
using fixtures::env_u64;
using serve::JsonParseError;
using serve::JsonValue;

const std::string kDemoPath =
    std::string(FTMC_SOURCE_DIR) + "/examples/systems/demo.ftmc";

/// Path of the first difference between two trees ("" when equal);
/// numbers compare by bit pattern, so -0 differs from 0.
std::string first_difference(const JsonValue& a, const JsonValue& b,
                             const std::string& path = "$") {
  if (a.kind != b.kind) return path + ": kind";
  switch (a.kind) {
    case JsonValue::Kind::kNull:
      return {};
    case JsonValue::Kind::kBool:
      return a.boolean == b.boolean ? "" : path + ": boolean";
    case JsonValue::Kind::kNumber:
      return std::bit_cast<std::uint64_t>(a.number) ==
                     std::bit_cast<std::uint64_t>(b.number)
                 ? ""
                 : path + ": " + obs::Json::number(a.number).dump() + " vs " +
                       obs::Json::number(b.number).dump();
    case JsonValue::Kind::kString:
      return a.string == b.string ? "" : path + ": string";
    case JsonValue::Kind::kArray:
      if (a.array.size() != b.array.size()) return path + ": array size";
      for (std::size_t i = 0; i < a.array.size(); ++i)
        if (std::string diff = first_difference(
                a.array[i], b.array[i], path + "[" + std::to_string(i) + "]");
            !diff.empty())
          return diff;
      return {};
    case JsonValue::Kind::kObject:
      if (a.object.size() != b.object.size()) return path + ": member count";
      for (std::size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first) return path + ": key";
        if (std::string diff =
                first_difference(a.object[i].second, b.object[i].second,
                                 path + "." + a.object[i].first);
            !diff.empty())
          return diff;
      }
      return {};
  }
  return {};
}

/// Parses `text` with both parsers and checks the contract.  Returns
/// whether the document parsed.
bool expect_same_outcome(const std::string& text) {
  std::optional<JsonValue> expected;
  std::optional<JsonValue> actual;
  std::string expected_error;
  std::string actual_error;
  try {
    expected = oracle::parse_json(text);
  } catch (const JsonParseError& error) {
    expected_error = error.what();
  }
  try {
    actual = serve::parse_json(text);
  } catch (const JsonParseError& error) {
    actual_error = error.what();
  }
  EXPECT_EQ(expected_error, actual_error) << "input: " << text;
  if (expected && actual) {
    EXPECT_EQ(first_difference(*expected, *actual), "") << "input: " << text;
  }
  return actual.has_value();
}

/// A number-like token: digits, signs, dots and exponent letters, with
/// runs of 14-18 digits common so both sides of the 15-digit fast-path
/// limit come up often.
std::string random_number_token(util::Rng& rng) {
  static constexpr char kAlphabet[] = "0123456789-+.eE";
  std::string token;
  if (rng.chance(0.5)) {
    if (rng.chance(0.3)) token.push_back('-');
    const std::size_t digits = rng.chance(0.5) ? 14 + rng.index(5)
                                               : 1 + rng.index(20);
    for (std::size_t i = 0; i < digits; ++i)
      token.push_back(static_cast<char>('0' + rng.index(10)));
    if (rng.chance(0.2)) token.push_back(kAlphabet[10 + rng.index(5)]);
    return token;
  }
  const std::size_t length = 1 + rng.index(24);
  for (std::size_t i = 0; i < length; ++i)
    token.push_back(kAlphabet[rng.index(sizeof kAlphabet - 1)]);
  return token;
}

/// One mutant of a corpus document.
std::string mutate(const std::vector<std::string>& corpus, util::Rng& rng) {
  static constexpr char kStructural[] = "{}[]\",:-+.eE0123456789 \\u/tfn";
  std::string text = corpus[rng.index(corpus.size())];
  switch (rng.index(4)) {
    case 0: {  // flip bytes
      const std::size_t flips = 1 + rng.index(4);
      for (std::size_t i = 0; i < flips && !text.empty(); ++i)
        text[rng.index(text.size())] =
            rng.chance(0.5)
                ? kStructural[rng.index(sizeof kStructural - 1)]
                : static_cast<char>(rng.index(256));
      return text;
    }
    case 1:  // truncate
      return text.substr(0, rng.index(text.size() + 1));
    case 2: {  // splice a prefix onto another document's suffix
      const std::string& other = corpus[rng.index(corpus.size())];
      return text.substr(0, rng.index(text.size() + 1)) +
             other.substr(rng.index(other.size() + 1));
    }
    default: {  // overwrite a span with a number-like token
      const std::size_t at = rng.index(text.size() + 1);
      const std::size_t span = std::min(rng.index(4), text.size() - at);
      return text.replace(at, span, random_number_token(rng));
    }
  }
}

dse::Chromosome random_genotype(const model::Architecture& arch,
                                const model::ApplicationSet& apps,
                                util::Rng& rng) {
  return dse::random_chromosome(dse::ChromosomeShape::of(arch, apps), rng);
}

/// The generated documents the mutants derive from.
std::vector<std::string> build_corpus() {
  std::vector<std::string> corpus;
  util::Rng rng(77);
  const io::SystemSpec demo = io::parse_system_file(kDemoPath);
  const benchmarks::Benchmark dt_med = benchmarks::dt_med_benchmark();

  std::vector<dse::Chromosome> demo_genotypes;
  std::vector<dse::Chromosome> dt_med_genotypes;
  for (int i = 0; i < 3; ++i) {
    demo_genotypes.push_back(random_genotype(demo.arch, demo.apps, rng));
    dt_med_genotypes.push_back(random_genotype(dt_med.arch, dt_med.apps, rng));
  }
  const auto frame = [](const std::vector<dse::Chromosome>& genotypes,
                        const std::string& system, std::uint64_t seed) {
    std::vector<dse::EvalRequest> requests(genotypes.size());
    for (std::size_t i = 0; i < genotypes.size(); ++i)
      requests[i].genotype = &genotypes[i];
    return dist::encode_batch_request(requests, system, seed);
  };
  const std::string demo_batch = frame(demo_genotypes, kDemoPath, 7);
  corpus.push_back(demo_batch);
  corpus.push_back(frame(dt_med_genotypes, "dt-med.ftmc", 21));

  serve::ServeOptions options;
  options.system_paths = {kDemoPath};
  options.threads = 1;
  serve::Server server(std::move(options));
  const std::string evaluate =
      obs::Json::object()
          .set("v", serve::kRpcVersion)
          .set("id", 5)
          .set("method", "evaluate")
          .set("params",
               obs::Json::object()
                   .set("chromosome", dist::chromosome_json(demo_genotypes[0]))
                   .set("seed", 7))
          .dump();
  corpus.push_back(evaluate);
  corpus.push_back(server.handle(evaluate));
  corpus.push_back(server.handle(demo_batch));

  for (const std::string& block : fixtures::protocol_json_blocks(
           std::string(FTMC_SOURCE_DIR) + "/docs/PROTOCOL.md"))
    corpus.push_back(block);
  return corpus;
}

TEST(JsonFuzz, ParserMatchesOracleOnMutatedDocuments) {
  const std::size_t iters = env_size("FTMC_FUZZ_ITERS", 40);
  const std::uint64_t base_seed = env_u64("FTMC_FUZZ_SEED", 2024);
  std::printf("[ json fuzz ] FTMC_FUZZ_SEED=%llu FTMC_FUZZ_ITERS=%zu\n",
              static_cast<unsigned long long>(base_seed), iters);
  const std::vector<std::string> corpus = build_corpus();
  for (const std::string& document : corpus)
    ASSERT_TRUE(expect_same_outcome(document)) << document;

  constexpr std::size_t kMutantsPerIteration = 32;
  std::size_t parsed = 0;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = base_seed + iter;
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", seed " +
                 std::to_string(seed) + " (rerun just this input with " +
                 "FTMC_FUZZ_SEED=" + std::to_string(seed) +
                 " FTMC_FUZZ_ITERS=1)");
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
    for (std::size_t m = 0; m < kMutantsPerIteration; ++m)
      parsed += expect_same_outcome(mutate(corpus, rng)) ? 1 : 0;
    for (std::size_t m = 0; m < kMutantsPerIteration; ++m) {
      const std::string token = random_number_token(rng);
      parsed += expect_same_outcome("[" + token + "]") ? 1 : 0;
    }
    if (::testing::Test::HasFailure()) break;  // one seed is enough to debug
  }
  // Both outcomes must actually occur, or the contract is half-tested.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 2 * kMutantsPerIteration * iters);
}

// ---- Hand-made cases ----------------------------------------------------

double parsed_number(const std::string& token) {
  const std::string text = "[" + token + "]";
  EXPECT_TRUE(expect_same_outcome(text)) << text;
  return serve::parse_json(text).array.at(0).number;
}

std::string parse_error(const std::string& text) {
  EXPECT_FALSE(expect_same_outcome(text)) << text;
  try {
    (void)serve::parse_json(text);
  } catch (const JsonParseError& error) {
    return error.what();
  }
  return {};
}

TEST(JsonFuzz, NumberRuleHandCases) {
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  EXPECT_EQ(bits(parsed_number("-0")), bits(-0.0));
  EXPECT_EQ(bits(parsed_number("0")), bits(0.0));
  EXPECT_EQ(parsed_number("00"), 0.0);
  EXPECT_EQ(parsed_number("007"), 7.0);
  EXPECT_EQ(parsed_number("+1"), 1.0);
  EXPECT_EQ(parsed_number(".5"), 0.5);
  EXPECT_EQ(parsed_number("-.5"), -0.5);
  EXPECT_EQ(parsed_number("1."), 1.0);
  EXPECT_EQ(bits(parsed_number("1e-400")), bits(0.0));
  EXPECT_EQ(parse_error("[1e400]"),
            "JSON parse error at byte 1: invalid number");
  EXPECT_EQ(parse_error("[-]"), "JSON parse error at byte 2: invalid value");
  EXPECT_EQ(parse_error("[1e5-3]"),
            "JSON parse error at byte 1: invalid number");
  // 15 digits take the fast path; 16 and 17 go through strtod, which
  // rounds to the nearest double.
  EXPECT_EQ(parsed_number("999999999999999"), 999999999999999.0);
  EXPECT_EQ(parsed_number("-123456789012345"), -123456789012345.0);
  EXPECT_EQ(parsed_number("1234567890123456"), 1234567890123456.0);
  EXPECT_EQ(parsed_number("9999999999999999"), 1e16);
  EXPECT_EQ(parsed_number("12345678901234567"), 12345678901234568.0);
  EXPECT_EQ(parsed_number("9007199254740993"), 9007199254740992.0);
}

TEST(JsonFuzz, NestingLimitIs64Levels) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + "0" + std::string(depth, ']');
  };
  EXPECT_TRUE(expect_same_outcome(nested(64)));
  EXPECT_EQ(parse_error(nested(65)),
            "JSON parse error at byte 65: nesting deeper than 64 levels");
  std::string objects;
  for (int i = 0; i < 64; ++i) objects += R"({"k":)";
  objects += "[]";
  for (int i = 0; i < 64; ++i) objects += "}";
  EXPECT_TRUE(expect_same_outcome(objects));
}

}  // namespace
