// Tests for the `ftmc serve` stack: length-prefixed framing (protocol.hpp),
// the JSON request parser (json_parse.hpp), and the Server itself —
// whose analyze/simulate "output" fields must be byte-identical to the
// one-shot CLI rendering (pinned here by rendering through the same
// serve::write_*_report functions the CLI uses, over a system file round-
// tripped through the text format).
#include "ftmc/serve/server.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ftmc/core/eval_store.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/dse/chromosome.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/hardening/hardening.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"
#include "ftmc/serve/reports.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/rng.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using serve::FrameReader;
using serve::JsonParseError;
using serve::JsonValue;
using serve::ProtocolError;
using serve::Server;
using serve::ServeOptions;
using serve::parse_json;

// --- Framing ----------------------------------------------------------------

TEST(Protocol, FrameFormat) {
  EXPECT_EQ(serve::frame("hello"), "5\nhello");
  EXPECT_EQ(serve::frame(""), "0\n");
}

TEST(Protocol, RoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string first = "{\"multi\nline\": \"payload\"}";
  const std::string second(1000, 'x');
  serve::write_frame(fds[1], first);
  serve::write_frame(fds[1], second);
  ::close(fds[1]);

  FrameReader reader(fds[0]);
  std::string payload;
  ASSERT_TRUE(reader.read(payload));
  EXPECT_EQ(payload, first);
  ASSERT_TRUE(reader.read(payload));
  EXPECT_EQ(payload, second);
  EXPECT_FALSE(reader.read(payload));  // clean EOF
  EXPECT_FALSE(reader.was_interrupted());
  ::close(fds[0]);
}

TEST(Protocol, MalformedPrefixThrows) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "abc\nxyz", 7), 7);
  ::close(fds[1]);
  FrameReader reader(fds[0]);
  std::string payload;
  EXPECT_THROW((void)reader.read(payload), ProtocolError);
  ::close(fds[0]);
}

TEST(Protocol, OversizeLengthThrows) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "999999999\n", 10), 10);
  ::close(fds[1]);
  FrameReader reader(fds[0]);
  std::string payload;
  EXPECT_THROW((void)reader.read(payload), ProtocolError);
  ::close(fds[0]);
}

TEST(Protocol, EofMidPayloadThrows) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "10\nshort", 8), 8);
  ::close(fds[1]);
  FrameReader reader(fds[0]);
  std::string payload;
  EXPECT_THROW((void)reader.read(payload), ProtocolError);
  ::close(fds[0]);
}

// --- JSON parser ------------------------------------------------------------

TEST(JsonParse, ParsesNestedDocument) {
  const JsonValue root = parse_json(
      R"({"id": 7, "name": "x", "flag": true, "none": null,)"
      R"( "list": [1, 2.5, "s"], "sub": {"k": -3e2}})");
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.u64_or("id", 0), 7u);
  EXPECT_EQ(root.str_or("name", ""), "x");
  EXPECT_TRUE(root.bool_or("flag", false));
  EXPECT_TRUE(root.get("none")->is_null());
  ASSERT_EQ(root.get("list")->array.size(), 3u);
  EXPECT_EQ(root.get("list")->array[1].number, 2.5);
  EXPECT_EQ(root.get("sub")->num_or("k", 0.0), -300.0);
}

TEST(JsonParse, DecodesEscapesAndSurrogatePairs) {
  const JsonValue root =
      parse_json(R"({"s": "a\"b\\c\n\t\u00e9\ud83d\ude00"})");
  EXPECT_EQ(root.str_or("s", ""), "a\"b\\c\n\t\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_json("{\"a\": 1} trailing"), JsonParseError);
  EXPECT_THROW((void)parse_json("{\"a\": }"), JsonParseError);
  EXPECT_THROW((void)parse_json("\"unterminated"), JsonParseError);
  EXPECT_THROW((void)parse_json("{\"a\": 1e999}"), JsonParseError);
  EXPECT_THROW((void)parse_json("{\"a\": \"\\ud800\"}"), JsonParseError);
  EXPECT_THROW((void)parse_json("{\"a\": \"raw\ncontrol\"}"),
               JsonParseError);
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  EXPECT_THROW((void)parse_json(deep), JsonParseError);
}

TEST(JsonParse, ErrorsNameTheByteOffset) {
  try {
    (void)parse_json("{\"a\": 1} x");
    FAIL();
  } catch (const JsonParseError& error) {
    EXPECT_NE(std::string(error.what()).find("at byte"), std::string::npos);
  }
}

TEST(JsonParse, U64OrFallsBackOutsideTheUnsignedRange) {
  const JsonValue root = parse_json(
      R"({"huge": 1e300, "two64": 18446744073709551616,)"
      R"( "top": 18446744073709549568, "neg": -1, "half": 2.5})");
  EXPECT_EQ(root.u64_or("huge", 7), 7u);
  EXPECT_EQ(root.u64_or("two64", 7), 7u);
  EXPECT_EQ(root.u64_or("top", 7), 18446744073709549568u);
  EXPECT_EQ(root.u64_or("neg", 7), 7u);
  EXPECT_EQ(root.u64_or("half", 7), 2u);
}

// --- Server -----------------------------------------------------------------

/// Round-trips the standard fixture system through the text format so the
/// server and the expectation both see exactly what a user's file contains.
std::string write_demo_system(const std::string& name) {
  const model::Architecture arch = fixtures::test_arch(2);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const core::Candidate candidate = fixtures::plain_candidate(arch, apps);
  const std::string path =
      ::testing::TempDir() + "ftmc_serve_" + name + ".ftmc";
  std::ofstream out(path);
  io::write_system(out, arch, apps, &candidate);
  return path;
}

ServeOptions demo_options(const std::string& path) {
  ServeOptions options;
  options.system_paths = {path};
  options.threads = 2;
  return options;
}

/// Parses a response and asserts the envelope, returning the result.
JsonValue expect_ok(const std::string& response) {
  const JsonValue root = parse_json(response);
  EXPECT_TRUE(root.bool_or("ok", false)) << response;
  const JsonValue* result = root.get("result");
  EXPECT_NE(result, nullptr) << response;
  return *result;
}

/// Asserts the structured ftmc.rpc.v1 error shape ({code, message,
/// detail?}) and returns the message (what tests grep for).
std::string expect_error(const std::string& response) {
  const JsonValue root = parse_json(response);
  EXPECT_FALSE(root.bool_or("ok", true)) << response;
  EXPECT_EQ(root.str_or("v", ""), serve::kRpcVersion) << response;
  const JsonValue* error = root.get("error");
  EXPECT_NE(error, nullptr) << response;
  if (error == nullptr) return "";
  EXPECT_TRUE(error->is_object()) << response;
  EXPECT_FALSE(error->str_or("code", "").empty()) << response;
  return error->str_or("message", "");
}

/// The error's taxonomy code alone.
std::string expect_error_code(const std::string& response) {
  const JsonValue root = parse_json(response);
  EXPECT_FALSE(root.bool_or("ok", true)) << response;
  const JsonValue* error = root.get("error");
  return error != nullptr ? error->str_or("code", "") : "";
}

TEST(Server, PingEchoesId) {
  const std::string path = write_demo_system("ping");
  Server server(demo_options(path));
  const std::string response =
      server.handle(R"({"v": "ftmc.rpc.v1", "id": "req-1", "method": "ping"})");
  const JsonValue root = parse_json(response);
  EXPECT_EQ(root.str_or("id", ""), "req-1");
  EXPECT_TRUE(expect_ok(response).bool_or("pong", false));
}

TEST(Server, AnalyzeOutputMatchesDirectRendering) {
  const std::string path = write_demo_system("analyze");
  Server server(demo_options(path));
  const JsonValue result =
      expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "id": 1, "method": "analyze"})"));

  // The reference: evaluate + render exactly as the one-shot CLI does.
  const io::SystemSpec spec = io::parse_system_file(path);
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(spec.arch, spec.apps, backend);
  const core::Evaluation evaluation = evaluator.evaluate(*spec.candidate);
  std::ostringstream expected;
  serve::write_analyze_report(expected, spec, *spec.candidate, evaluation);

  EXPECT_EQ(result.str_or("output", ""), expected.str());
  EXPECT_EQ(result.bool_or("feasible", !evaluation.feasible()),
            evaluation.feasible());
  EXPECT_EQ(result.num_or("power", -1.0), evaluation.power);
}

TEST(Server, SimulateOutputMatchesDirectRendering) {
  const std::string path = write_demo_system("simulate");
  Server server(demo_options(path));
  const std::string request =
      R"({"v": "ftmc.rpc.v1", "id": 2, "method": "simulate",)"
      R"( "params": {"profiles": 60, "fault_prob": "0.25", "seed": 9}})";
  const JsonValue result = expect_ok(server.handle(request));

  const io::SystemSpec spec = io::parse_system_file(path);
  const auto system = hardening::apply_hardening(
      spec.apps, spec.candidate->plan, spec.candidate->base_mapping,
      spec.arch.processor_count());
  const auto priorities = sched::assign_priorities(system.apps);
  sim::MonteCarloOptions options;
  options.profiles = 60;
  options.fault_probability = 0.25;
  options.seed = 9;
  options.threads = 2;
  const auto reference = sim::monte_carlo_wcrt(
      spec.arch, system, spec.candidate->drop, priorities, options);
  std::ostringstream expected;
  serve::write_simulate_report(expected, system, reference, 60, "0.25");

  EXPECT_EQ(result.str_or("output", ""), expected.str());
  EXPECT_EQ(result.u64_or("deadline_miss_profiles", ~0ULL),
            reference.deadline_miss_profiles);

  // The resident PreparedSim must not drift: same request, same bytes.
  const JsonValue again = expect_ok(server.handle(request));
  EXPECT_EQ(again.str_or("output", ""), expected.str());
}

TEST(Server, EvaluateHitsTheResidentCacheOnRepeat) {
  const std::string path = write_demo_system("evaluate");
  Server server(demo_options(path));
  const JsonValue first =
      expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "id": 1, "method": "evaluate"})"));
  EXPECT_FALSE(first.bool_or("cache_hit", true));
  const JsonValue second =
      expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "id": 2, "method": "evaluate"})"));
  EXPECT_TRUE(second.bool_or("cache_hit", false));
  EXPECT_EQ(first.num_or("power", -1.0), second.num_or("power", -2.0));
  EXPECT_EQ(first.get("graph_wcrt")->array.size(),
            second.get("graph_wcrt")->array.size());
}

TEST(Server, PersistentStoreWarmsAFreshServer) {
  const std::string path = write_demo_system("store");
  const std::string cache_dir = ::testing::TempDir() + "ftmc_serve_store";
  // A previous run may have left a populated store here; start cold.
  const std::string shard = core::store_directory(
      cache_dir, util::fnv1a_bytes(util::read_file(path)));
  std::remove((shard + "/evals.log").c_str());
  {
    ServeOptions options = demo_options(path);
    options.cache_dir = cache_dir;
    options.enable_cache = false;  // isolate the L2
    Server server(std::move(options));
    const JsonValue first =
        expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "id": 1, "method": "evaluate"})"));
    EXPECT_FALSE(first.bool_or("cache_hit", true));
    server.flush();
  }
  ServeOptions options = demo_options(path);
  options.cache_dir = cache_dir;
  options.enable_cache = false;
  Server server(std::move(options));
  const JsonValue warmed =
      expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "id": 2, "method": "evaluate"})"));
  EXPECT_TRUE(warmed.bool_or("cache_hit", false));
}

TEST(Server, ErrorPathsFailTheRequestNotTheServer) {
  const std::string path = write_demo_system("errors");
  Server server(demo_options(path));
  EXPECT_NE(expect_error(server.handle("not json")).find("JSON parse"),
            std::string::npos);
  EXPECT_NE(expect_error(server.handle("[1,2]"))
                .find("must be a JSON object"),
            std::string::npos);
  EXPECT_NE(expect_error(server.handle(R"({"v": "ftmc.rpc.v1", "id": 1})")).find("method"),
            std::string::npos);
  EXPECT_NE(expect_error(server.handle(R"({"v": "ftmc.rpc.v1", "method": "frobnicate"})"))
                .find("unknown method"),
            std::string::npos);
  EXPECT_NE(expect_error(
                server.handle(R"({"v": "ftmc.rpc.v1", "method": "analyze", "system": "nope"})"))
                .find("unknown system"),
            std::string::npos);
  EXPECT_NE(
      expect_error(server.handle(
                       R"({"v": "ftmc.rpc.v1", "method": "simulate",)"
                       R"( "params": {"fault_prob": 0.3}})"))
          .find("fault_prob"),
      std::string::npos);
  // The server still answers after five failed requests.
  EXPECT_TRUE(expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "method": "ping"})"))
                  .bool_or("pong", false));
}

TEST(Server, OutOfRangeNumericIdsEchoAsDoubles) {
  const std::string path = write_demo_system("wide_ids");
  Server server(demo_options(path));
  const auto echoed = [&](const std::string& id) {
    const std::string response = server.handle(
        R"({"v": "ftmc.rpc.v1", "method": "ping", "id": )" + id + "}");
    const std::size_t at = response.find(R"("id":)");
    EXPECT_NE(at, std::string::npos) << response;
    return response.substr(at + 5, response.find(',', at) - at - 5);
  };
  EXPECT_EQ(echoed("1e300"), "1.0000000000000001e+300");
  EXPECT_EQ(echoed("-1e300"), "-1.0000000000000001e+300");
  EXPECT_EQ(echoed("9223372036854775808"), "9.2233720368547758e+18");
  EXPECT_EQ(echoed("-9223372036854775808"), "-9223372036854775808");
  EXPECT_EQ(echoed("42"), "42");
  EXPECT_EQ(echoed("2.5"), "2.5");
}

TEST(Server, OutOfRangeGenesAreBadRequests) {
  const std::string path = write_demo_system("wide_genes");
  Server server(demo_options(path));
  for (const char* gene : {"-1", "1e300", "-1e300", "0.5"}) {
    const std::string response = server.handle(
        std::string(R"({"v": "ftmc.rpc.v1", "method": "evaluate", "params":)"
                    R"( {"chromosome": {"allocation": [1, )") +
        gene + R"(], "keep": [1, 1], "tasks": []}}})");
    EXPECT_EQ(expect_error_code(response), "bad_request") << gene;
    EXPECT_EQ(expect_error(response),
              "params.chromosome.allocation entries must be integers in "
              "[0, 1]")
        << gene;
  }
}

/// Answers a simulate request with `params`, requiring that it took well
/// under a second: a refused declared size must cost no simulation work.
std::string timed_simulate(Server& server, const std::string& params) {
  const auto start = std::chrono::steady_clock::now();
  std::string response = server.handle(
      R"({"v": "ftmc.rpc.v1", "method": "simulate", "params": )" + params +
      "}");
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500))
      << params;
  return response;
}

TEST(Server, SimulateProfilesAboveTheCapAreBadRequests) {
  const std::string path = write_demo_system("profiles_cap");
  Server server(demo_options(path));
  const std::string response =
      timed_simulate(server, R"({"profiles": 1000000000000})");
  EXPECT_EQ(expect_error_code(response), "bad_request");
  EXPECT_EQ(expect_error(response),
            "params.profiles 1000000000000 exceeds the cap of " +
                std::to_string(serve::kMaxSimulateProfiles));
}

TEST(Server, SimulateHyperperiodsAboveTheCapAreBadRequests) {
  const std::string path = write_demo_system("hyperperiods_cap");
  Server server(demo_options(path));
  const std::string response =
      timed_simulate(server, R"({"profiles": 1, "hyperperiods": 100000000})");
  EXPECT_EQ(expect_error_code(response), "bad_request");
  EXPECT_EQ(expect_error(response),
            "params.hyperperiods 100000000 exceeds the cap of " +
                std::to_string(serve::kMaxSimulateHyperperiods));
  // The cap itself is served.
  (void)expect_ok(timed_simulate(
      server, R"({"profiles": 1, "hyperperiods": )" +
                  std::to_string(serve::kMaxSimulateHyperperiods) + "}"));
}

TEST(Server, VersionGateRejectsMissingOrWrongVersion) {
  const std::string path = write_demo_system("version");
  Server server(demo_options(path));
  // Every response carries the protocol version, success or failure.
  const JsonValue ok_root = parse_json(
      server.handle(R"({"v": "ftmc.rpc.v1", "id": 1, "method": "ping"})"));
  EXPECT_EQ(ok_root.str_or("v", ""), serve::kRpcVersion);
  EXPECT_TRUE(ok_root.bool_or("ok", false));

  // Missing v at the top level: rejected before the method is looked at.
  const std::string missing = server.handle(R"({"id": 2, "method": "ping"})");
  EXPECT_EQ(expect_error_code(missing), "version_mismatch");
  EXPECT_NE(expect_error(missing).find("ftmc.rpc.v1"), std::string::npos);

  // Wrong or non-string v: same code, and the detail names what arrived.
  EXPECT_EQ(expect_error_code(server.handle(
                R"({"v": "ftmc.rpc.v2", "method": "ping"})")),
            "version_mismatch");
  EXPECT_EQ(expect_error_code(server.handle(
                R"({"v": 1, "method": "ping"})")),
            "version_mismatch");

  // Batch items inherit the envelope's version; an explicit wrong one
  // fails that item alone.
  const JsonValue batch = expect_ok(server.handle(
      R"({"v": "ftmc.rpc.v1", "method": "batch", "params": {"requests": [)"
      R"({"id": "i0", "method": "ping"},)"
      R"({"id": "i1", "v": "ftmc.rpc.v0", "method": "ping"}]}})"));
  ASSERT_EQ(batch.get("results")->array.size(), 2u);
  EXPECT_TRUE(batch.get("results")->array[0].bool_or("ok", false));
  EXPECT_FALSE(batch.get("results")->array[1].bool_or("ok", true));
  EXPECT_EQ(batch.get("results")->array[1].get("error")->str_or("code", ""),
            "version_mismatch");
}

TEST(Server, ErrorCodesFollowTheTaxonomy) {
  const std::string path = write_demo_system("taxonomy");
  Server server(demo_options(path));
  EXPECT_EQ(expect_error_code(server.handle("not json")), "bad_request");
  EXPECT_EQ(expect_error_code(server.handle(
                R"({"v": "ftmc.rpc.v1", "method": "frobnicate"})")),
            "unknown_method");
  EXPECT_EQ(expect_error_code(server.handle(
                R"({"v": "ftmc.rpc.v1", "method": "analyze",)"
                R"( "system": "nope"})")),
            "bad_request");
  EXPECT_EQ(expect_error_code(server.handle(
                R"({"v": "ftmc.rpc.v1", "method": "simulate",)"
                R"( "params": {"fault_prob": 0.3}})")),
            "bad_request");
}

TEST(Server, DrainRefusesWorkMethodsButAnswersIntrospection) {
  const std::string path = write_demo_system("drain_gate");
  Server server(demo_options(path));
  (void)server.handle(R"({"v": "ftmc.rpc.v1", "method": "shutdown"})");
  ASSERT_TRUE(server.stopping());
  // Work-bearing methods are refused with shutting_down...
  for (const char* method : {"analyze", "evaluate", "simulate", "batch"}) {
    const std::string response = server.handle(
        std::string(R"({"v": "ftmc.rpc.v1", "method": ")") + method + "\"}");
    EXPECT_EQ(expect_error_code(response), "shutting_down") << method;
  }
  // ...while introspection still answers so monitors can watch the drain.
  for (const char* method :
       {"ping", "health", "metrics", "systems", "shutdown"}) {
    const std::string response = server.handle(
        std::string(R"({"v": "ftmc.rpc.v1", "method": ")") + method + "\"}");
    EXPECT_TRUE(parse_json(response).bool_or("ok", false)) << response;
  }
}

TEST(Server, ShutdownStopsTheServer) {
  const std::string path = write_demo_system("shutdown");
  Server server(demo_options(path));
  (void)server.handle(R"({"v": "ftmc.rpc.v1", "method": "ping"})");
  // `stats` was folded into `health` and `metrics`.
  EXPECT_EQ(expect_error_code(
                server.handle(R"({"v": "ftmc.rpc.v1", "method": "stats"})")),
            "unknown_method");

  EXPECT_FALSE(server.stopping());
  const JsonValue shutdown =
      expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "method": "shutdown"})"));
  EXPECT_TRUE(shutdown.bool_or("stopping", false));
  EXPECT_TRUE(server.stopping());
}

TEST(Server, ServeFdDrainsAPrebufferedStream) {
  const std::string path = write_demo_system("fd");
  Server server(demo_options(path));

  int in[2], out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  serve::write_frame(in[1], R"({"v": "ftmc.rpc.v1", "id": 1, "method": "ping"})");
  serve::write_frame(in[1], R"({"v": "ftmc.rpc.v1", "id": 2, "method": "systems"})");
  ::close(in[1]);  // EOF after two requests

  EXPECT_EQ(server.serve_fd(in[0], out[1]), 0);
  ::close(in[0]);
  ::close(out[1]);

  FrameReader reader(out[0]);
  std::string payload;
  ASSERT_TRUE(reader.read(payload));
  EXPECT_TRUE(expect_ok(payload).bool_or("pong", false));
  ASSERT_TRUE(reader.read(payload));
  EXPECT_EQ(expect_ok(payload).get("systems")->array.size(), 1u);
  EXPECT_FALSE(reader.read(payload));
  ::close(out[0]);
}

TEST(Server, RejectsDuplicateSystems) {
  const std::string path = write_demo_system("dup");
  ServeOptions options;
  options.system_paths = {path, path};
  EXPECT_THROW(Server server(std::move(options)), std::runtime_error);
}

// --- Concurrent TCP serving -------------------------------------------------

/// One TCP connection speaking the framed protocol.
struct TcpClient {
  int fd = -1;
  std::unique_ptr<FrameReader> reader;

  explicit TcpClient(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
      return;
    }
    reader = std::make_unique<FrameReader>(fd);
  }
  ~TcpClient() { close(); }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  void send(const std::string& request) { serve::write_frame(fd, request); }
  /// Next response, or "" on EOF.
  std::string recv() {
    std::string payload;
    if (!reader->read(payload)) return "";
    return payload;
  }
  std::string call(const std::string& request) {
    send(request);
    return recv();
  }
};

/// A Server running serve_tcp on its own thread (ephemeral port).
struct TcpServer {
  Server server;
  std::thread thread;
  int exit_code = -1;

  explicit TcpServer(ServeOptions options) : server(std::move(options)) {
    thread = std::thread([this] { exit_code = server.serve_tcp(0, ""); });
    while (server.bound_port() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ~TcpServer() {
    if (thread.joinable()) shutdown_and_join();
  }
  std::uint16_t port() const { return server.bound_port(); }
  int shutdown_and_join() {
    // Through handle() directly: works even when every connection slot is
    // occupied (handle is thread-safe; the acceptor polls stopping()).
    if (!server.stopping())
      (void)server.handle(R"({"v": "ftmc.rpc.v1", "method": "shutdown"})");
    thread.join();
    return exit_code;
  }
};

/// First evaluate/analyze per server misses the cache; warming both the
/// server under test and the serial reference makes cache_hit (and thus the
/// response bytes) independent of which concurrent request lands first.
void warm(Server& server) {
  (void)server.handle(R"({"v": "ftmc.rpc.v1", "id": "warm-a", "method": "analyze"})");
  (void)server.handle(R"({"v": "ftmc.rpc.v1", "id": "warm-e", "method": "evaluate"})");
  (void)server.handle(
      R"({"v": "ftmc.rpc.v1", "id": "warm-s", "method": "simulate",)"
      R"( "params": {"profiles": 20, "fault_prob": "0.25", "seed": 9}})");
}

TEST(Server, TcpConcurrentMixedStreamsMatchSerialReference) {
  const std::string path = write_demo_system("tcp_concurrent");
  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  static const char* const kMethods[] = {"analyze", "evaluate", "ping",
                                         "simulate"};

  std::vector<std::vector<std::string>> requests(kClients);
  for (int c = 0; c < kClients; ++c)
    for (int i = 0; i < kRequests; ++i) {
      const char* method = kMethods[(c + i) % 4];  // mixed, offset per client
      std::string request = R"({"v": "ftmc.rpc.v1", "id": "c)" + std::to_string(c) + "-" +
                            std::to_string(i) + R"(", "method": ")" + method +
                            "\"";
      if (std::string(method) == "simulate")
        request +=
            R"(, "params": {"profiles": 20, "fault_prob": "0.25", "seed": 9})";
      requests[c].push_back(request + "}");
    }

  // Byte-exact expectations from a warmed serial server.
  Server reference(demo_options(path));
  warm(reference);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c)
    for (const std::string& request : requests[c])
      expected[c].push_back(reference.handle(request));

  ServeOptions options = demo_options(path);
  options.max_connections = kClients;
  TcpServer tcp(std::move(options));
  warm(tcp.server);

  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      TcpClient client(tcp.port());
      ASSERT_GE(client.fd, 0);
      for (const std::string& request : requests[c])
        got[c].push_back(client.call(request));
    });
  for (std::thread& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), expected[c].size());
    for (int i = 0; i < kRequests; ++i)
      EXPECT_EQ(got[c][i], expected[c][i]) << "client " << c << " request "
                                           << i;
  }
  EXPECT_EQ(tcp.shutdown_and_join(), 0);
}

TEST(Server, TcpPipelinedRequestsAnswerInOrder) {
  const std::string path = write_demo_system("tcp_pipeline");
  TcpServer tcp(demo_options(path));
  TcpClient client(tcp.port());
  ASSERT_GE(client.fd, 0);
  constexpr int kFrames = 8;
  // All frames written before any response is read: the session must still
  // answer strictly in request order.
  for (int i = 0; i < kFrames; ++i)
    client.send(R"({"v": "ftmc.rpc.v1", "id": )" + std::to_string(i) +
                R"(, "method": ")" + (i % 2 == 0 ? "ping" : "evaluate") +
                "\"}");
  for (int i = 0; i < kFrames; ++i) {
    const JsonValue root = parse_json(client.recv());
    EXPECT_TRUE(root.bool_or("ok", false));
    EXPECT_EQ(root.u64_or("id", ~0ULL), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tcp.shutdown_and_join(), 0);
}

TEST(Server, TcpBackpressureStillServesQueuedConnections) {
  const std::string path = write_demo_system("tcp_backpressure");
  ServeOptions options = demo_options(path);
  options.max_connections = 1;
  TcpServer tcp(std::move(options));

  auto first = std::make_unique<TcpClient>(tcp.port());
  ASSERT_GE(first->fd, 0);
  EXPECT_TRUE(expect_ok(first->call(R"({"v": "ftmc.rpc.v1", "id": 1, "method": "ping"})"))
                  .bool_or("pong", false));

  // At the cap the acceptor stops accepting; the second connection sits in
  // the listen backlog with its request already written...
  TcpClient second(tcp.port());
  ASSERT_GE(second.fd, 0);
  second.send(R"({"v": "ftmc.rpc.v1", "id": 2, "method": "ping"})");

  // ...and is served as soon as the first connection ends.
  first->close();
  EXPECT_TRUE(expect_ok(second.recv()).bool_or("pong", false));
  EXPECT_EQ(tcp.shutdown_and_join(), 0);
}

TEST(Server, ShutdownDrainsPipelinedRequestsInFlight) {
  const std::string path = write_demo_system("tcp_drain");
  TcpServer tcp(demo_options(path));
  TcpClient client(tcp.port());
  ASSERT_GE(client.fd, 0);
  // Everything up to and including the shutdown answers; later frames are
  // dropped by the drain (the session stops reading, not mid-response).
  client.send(R"({"v": "ftmc.rpc.v1", "id": 0, "method": "ping"})");
  client.send(R"({"v": "ftmc.rpc.v1", "id": 1, "method": "shutdown"})");
  client.send(R"({"v": "ftmc.rpc.v1", "id": 2, "method": "ping"})");
  client.send(R"({"v": "ftmc.rpc.v1", "id": 3, "method": "ping"})");
  EXPECT_TRUE(expect_ok(client.recv()).bool_or("pong", false));
  EXPECT_TRUE(expect_ok(client.recv()).bool_or("stopping", false));
  EXPECT_EQ(client.recv(), "");  // EOF: drained, not answered
  EXPECT_EQ(tcp.shutdown_and_join(), 0);
}

// --- batch ------------------------------------------------------------------

TEST(Server, BatchFansOutAndPreservesRequestOrder) {
  const std::string path = write_demo_system("batch");
  Server server(demo_options(path));
  warm(server);

  const std::string ping = R"({"v": "ftmc.rpc.v1", "id": "b0", "method": "ping"})";
  const std::string evaluate = R"({"v": "ftmc.rpc.v1", "id": "b1", "method": "evaluate"})";
  const std::string analyze = R"({"v": "ftmc.rpc.v1", "id": "b2", "method": "analyze"})";
  const JsonValue expected_evaluate = expect_ok(server.handle(evaluate));
  const JsonValue expected_analyze = expect_ok(server.handle(analyze));

  const std::string batch =
      R"({"v": "ftmc.rpc.v1", "id": "batch", "method": "batch", "params": {"requests": [)" +
      ping + "," + evaluate + "," + analyze + "]}}";
  const JsonValue result = expect_ok(server.handle(batch));
  EXPECT_EQ(result.u64_or("count", 0), 3u);
  const JsonValue* results = result.get("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 3u);

  EXPECT_EQ(results->array[0].str_or("id", ""), "b0");
  EXPECT_TRUE(results->array[0].bool_or("ok", false));
  EXPECT_EQ(results->array[1].str_or("id", ""), "b1");
  EXPECT_EQ(results->array[1].get("result")->num_or("power", -1.0),
            expected_evaluate.num_or("power", -2.0));
  EXPECT_EQ(results->array[2].str_or("id", ""), "b2");
  EXPECT_EQ(results->array[2].get("result")->str_or("output", "a"),
            expected_analyze.str_or("output", "b"));

  // A failing item fails that item only, and nested batches are rejected.
  const std::string mixed =
      R"({"v": "ftmc.rpc.v1", "method": "batch", "params": {"requests": [)"
      R"({"v": "ftmc.rpc.v1", "id": "x", "method": "frobnicate"},)" +
      ping +
      R"(, {"id": "n", "method": "batch", "params": {"requests": []}}]}})";
  const JsonValue partial = expect_ok(server.handle(mixed));
  ASSERT_EQ(partial.get("results")->array.size(), 3u);
  EXPECT_FALSE(partial.get("results")->array[0].bool_or("ok", true));
  EXPECT_TRUE(partial.get("results")->array[1].bool_or("ok", false));
  const JsonValue* nested_error = partial.get("results")->array[2].get("error");
  ASSERT_NE(nested_error, nullptr);
  EXPECT_NE(nested_error->str_or("message", "").find("batch"),
            std::string::npos);
}

// --- inline candidates ------------------------------------------------------

/// The file's own candidate block, verbatim (to_text appends it after the
/// architecture/application body).
std::string candidate_block(const io::SystemSpec& spec) {
  const std::string body = io::to_text(spec.arch, spec.apps, nullptr);
  const std::string full =
      io::to_text(spec.arch, spec.apps, &*spec.candidate);
  EXPECT_EQ(full.compare(0, body.size(), body), 0);
  return full.substr(body.size());
}

TEST(Server, InlineCandidateMatchesResidentEvaluate) {
  const std::string path = write_demo_system("inline_candidate");
  Server server(demo_options(path));
  const io::SystemSpec spec = io::parse_system_file(path);

  const JsonValue resident =
      expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "id": 1, "method": "evaluate"})"));
  const std::string request =
      obs::Json::object()
          .set("v", serve::kRpcVersion)
          .set("id", "inline")
          .set("method", "evaluate")
          .set("params",
               obs::Json::object().set("candidate", candidate_block(spec)))
          .dump();
  const JsonValue inline_result = expect_ok(server.handle(request));

  EXPECT_EQ(inline_result.num_or("power", -1.0),
            resident.num_or("power", -2.0));
  EXPECT_EQ(inline_result.num_or("service", -1.0),
            resident.num_or("service", -2.0));
  EXPECT_EQ(inline_result.bool_or("feasible", false),
            resident.bool_or("feasible", true));
  ASSERT_EQ(inline_result.get("graph_wcrt")->array.size(),
            resident.get("graph_wcrt")->array.size());
  for (std::size_t g = 0; g < resident.get("graph_wcrt")->array.size(); ++g)
    EXPECT_EQ(inline_result.get("graph_wcrt")->array[g].number,
              resident.get("graph_wcrt")->array[g].number);

  // The analyze rendering is equally candidate-driven: inline == resident.
  const JsonValue analyzed =
      expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "id": 2, "method": "analyze"})"));
  const std::string analyze_inline =
      obs::Json::object()
          .set("v", serve::kRpcVersion)
          .set("id", "ia")
          .set("method", "analyze")
          .set("params",
               obs::Json::object().set("candidate", candidate_block(spec)))
          .dump();
  EXPECT_EQ(expect_ok(server.handle(analyze_inline)).str_or("output", "x"),
            analyzed.str_or("output", "y"));
}

TEST(Server, InlineCandidateServesSystemsWithoutACandidateBlock) {
  const model::Architecture arch = fixtures::test_arch(2);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const std::string path = ::testing::TempDir() + "ftmc_serve_bare.ftmc";
  {
    std::ofstream out(path);
    io::write_system(out, arch, apps, nullptr);
  }
  Server server(demo_options(path));
  // Without params the request fails and the error names the way out.
  EXPECT_NE(expect_error(server.handle(R"({"v": "ftmc.rpc.v1", "method": "evaluate"})"))
                .find("params.candidate"),
            std::string::npos);

  const core::Candidate candidate = fixtures::plain_candidate(arch, apps);
  const std::string block = candidate_block(
      io::SystemSpec{arch, apps, candidate});
  const std::string request =
      obs::Json::object()
          .set("v", serve::kRpcVersion)
          .set("id", 1)
          .set("method", "evaluate")
          .set("params", obs::Json::object().set("candidate", block))
          .dump();
  const JsonValue result = expect_ok(server.handle(request));
  EXPECT_GT(result.num_or("power", 0.0), 0.0);
}

TEST(Server, ChromosomeEvaluateMatchesInProcessDecode) {
  const std::string path = write_demo_system("chromosome");
  Server server(demo_options(path));
  const io::SystemSpec spec = io::parse_system_file(path);

  const dse::Decoder decoder(spec.arch, spec.apps);
  util::Rng rng(42);
  const dse::Chromosome chromosome =
      dse::random_chromosome(decoder.shape(), rng);

  // Reference: decode exactly as the GA would with campaign seed 7 —
  // content-seeded RNG over the *undecoded* genotype — then evaluate.
  dse::Chromosome repaired = chromosome;
  util::Rng decode_rng(dse::chromosome_hash(chromosome, 7));
  const core::Candidate expected_candidate =
      decoder.decode(repaired, decode_rng);
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(spec.arch, spec.apps, backend);
  const core::Evaluation expected = evaluator.evaluate(expected_candidate);

  obs::Json allocation = obs::Json::array();
  for (const std::uint8_t bit : chromosome.allocation)
    allocation.push(obs::Json::integer(bit));
  obs::Json keep = obs::Json::array();
  for (const std::uint8_t bit : chromosome.keep)
    keep.push(obs::Json::integer(bit));
  obs::Json tasks = obs::Json::array();
  for (const dse::TaskGenes& task : chromosome.tasks) {
    obs::Json row = obs::Json::array();
    row.push(obs::Json::integer(static_cast<int>(task.technique)));
    row.push(obs::Json::integer(task.reexec));
    row.push(obs::Json::integer(task.active_n));
    row.push(obs::Json::integer(task.base_pe));
    for (const std::uint16_t pe : task.replica_pe)
      row.push(obs::Json::integer(pe));
    row.push(obs::Json::integer(task.voter_pe));
    tasks.push(std::move(row));
  }
  const std::string request =
      obs::Json::object()
          .set("v", serve::kRpcVersion)
          .set("id", "chromosome")
          .set("method", "evaluate")
          .set("params", obs::Json::object()
                             .set("seed", 7)
                             .set("chromosome",
                                  obs::Json::object()
                                      .set("allocation", std::move(allocation))
                                      .set("keep", std::move(keep))
                                      .set("tasks", std::move(tasks))))
          .dump();
  const JsonValue result = expect_ok(server.handle(request));

  EXPECT_EQ(result.bool_or("feasible", !expected.feasible()),
            expected.feasible());
  EXPECT_EQ(result.num_or("power", -1.0), expected.power);
  EXPECT_EQ(result.num_or("service", -1.0), expected.service);
  ASSERT_EQ(result.get("graph_wcrt")->array.size(),
            expected.graph_wcrt.size());
  for (std::size_t g = 0; g < expected.graph_wcrt.size(); ++g)
    EXPECT_EQ(static_cast<model::Time>(
                  result.get("graph_wcrt")->array[g].number),
              expected.graph_wcrt[g]);
}

TEST(Server, CandidateParameterErrorPaths) {
  const std::string path = write_demo_system("candidate_errors");
  Server server(demo_options(path));
  EXPECT_NE(
      expect_error(server.handle(
                       R"({"v": "ftmc.rpc.v1", "method": "evaluate", "params":)"
                       R"( {"candidate": "x", "chromosome": {}}})"))
          .find("not both"),
      std::string::npos);
  EXPECT_NE(expect_error(server.handle(
                             R"({"v": "ftmc.rpc.v1", "method": "evaluate", "params":)"
                             R"( {"candidate": 17}})"))
                .find("must be a string"),
            std::string::npos);
  EXPECT_NE(expect_error(server.handle(
                             R"({"v": "ftmc.rpc.v1", "method": "evaluate", "params":)"
                             R"( {"candidate": "garbage {{{"}})"))
                .find("params.candidate"),
            std::string::npos);
  EXPECT_NE(expect_error(server.handle(
                             R"({"v": "ftmc.rpc.v1", "method": "evaluate", "params":)"
                             R"( {"candidate": ""}})"))
                .find("no candidate block"),
            std::string::npos);
  EXPECT_NE(expect_error(server.handle(
                             R"({"v": "ftmc.rpc.v1", "method": "analyze", "params":)"
                             R"( {"chromosome": {"allocation": [1],)"
                             R"( "keep": [1], "tasks": []}}})"))
                .find("does not fit"),
            std::string::npos);
  EXPECT_NE(expect_error(server.handle(
                             R"({"v": "ftmc.rpc.v1", "method": "analyze", "params":)"
                             R"( {"chromosome": {"allocation": [1, 1],)"
                             R"( "keep": [1], "tasks": [[0, 1]]}}})"))
                .find("rows must be"),
            std::string::npos);
  // The server still answers normally afterwards.
  EXPECT_TRUE(expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "method": "ping"})"))
                  .bool_or("pong", false));
}

// --- Observability ----------------------------------------------------------

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ftmc_serve_obs_" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// One access-log record, schema-checked: required keys, stage breakdown
/// summing to total_us, error class only on failures.
JsonValue check_access_record(const std::string& line) {
  const JsonValue record = parse_json(line);
  EXPECT_TRUE(record.is_object()) << line;
  EXPECT_GT(record.u64_or("ts_ms", 0), 0u) << line;
  EXPECT_FALSE(record.str_or("id", "").empty()) << line;
  // A request that never parsed has no method to record.
  if (record.str_or("error", "") != "bad_request") {
    EXPECT_FALSE(record.str_or("method", "").empty()) << line;
  }
  const JsonValue* stages = record.get("us");
  EXPECT_NE(stages, nullptr) << line;
  std::uint64_t sum = 0;
  for (const char* stage : {"read", "parse", "dispatch", "render", "write"}) {
    const JsonValue* value = stages->get(stage);
    EXPECT_NE(value, nullptr) << stage << " missing: " << line;
    if (value != nullptr) sum += static_cast<std::uint64_t>(value->number);
  }
  EXPECT_EQ(record.u64_or("total_us", ~0ULL), sum) << line;
  if (record.bool_or("ok", true)) {
    EXPECT_EQ(record.get("error"), nullptr) << line;
  } else {
    EXPECT_FALSE(record.str_or("error", "").empty()) << line;
  }
  return record;
}

TEST(ServeObservability, ResponsesByteIdenticalWithTelemetryEnabled) {
  const std::string path = write_demo_system("obs_identity");
  ServeOptions plain_options = demo_options(path);
  plain_options.sample_interval_ms = 0;
  Server plain(std::move(plain_options));
  ServeOptions traced_options = demo_options(path);
  traced_options.access_log = temp_path("identity.jsonl");
  traced_options.sample_interval_ms = 2;
  std::remove(traced_options.access_log.c_str());
  Server traced(std::move(traced_options));
  warm(plain);
  warm(traced);

  const std::string requests[] = {
      R"({"v": "ftmc.rpc.v1", "id": "x1", "method": "analyze"})",
      R"({"v": "ftmc.rpc.v1", "id": "x2", "method": "evaluate"})",
      R"({"v": "ftmc.rpc.v1", "id": "x3", "method": "simulate",)"
      R"( "params": {"profiles": 50, "fault_prob": "0.25", "seed": 9}})",
      R"({"v": "ftmc.rpc.v1", "id": 44, "method": "ping"})",
      R"({"v": "ftmc.rpc.v1", "id": "x5", "method": "nope"})",  // error path must match too
      R"(not json at all)",                 // parse-error path as well
  };
  for (const std::string& request : requests)
    EXPECT_EQ(plain.handle(request), traced.handle(request)) << request;
}

TEST(ServeObservability, AccessLogRecordsEveryRequestWithStageBreakdown) {
  const std::string path = write_demo_system("obs_access");
  const std::string log_path = temp_path("access.jsonl");
  std::remove(log_path.c_str());
  ServeOptions options = demo_options(path);
  options.access_log = log_path;
  options.sample_interval_ms = 0;
  {
    Server server(std::move(options));
    (void)server.handle(R"({"v": "ftmc.rpc.v1", "id": "a1", "method": "analyze"})");
    (void)server.handle(R"({"v": "ftmc.rpc.v1", "id": 12, "method": "evaluate"})");
    (void)server.handle(R"({"v": "ftmc.rpc.v1", "method": "ping"})");       // id generated
    (void)server.handle(R"({"v": "ftmc.rpc.v1", "id": "a4", "method": "nope"})");
    (void)server.handle(R"(garbage)");                  // parse error
  }  // destructor closes (and flushes) the log fd

  const std::vector<std::string> lines = read_lines(log_path);
  ASSERT_EQ(lines.size(), 5u);
  const JsonValue analyze = check_access_record(lines[0]);
  EXPECT_EQ(analyze.str_or("id", ""), "a1");
  EXPECT_EQ(analyze.str_or("method", ""), "analyze");
  EXPECT_EQ(analyze.str_or("system", ""), path);
  EXPECT_TRUE(analyze.bool_or("ok", false));
  ASSERT_NE(analyze.get("cache"), nullptr);  // analyze reports cache outcome
  EXPECT_GT(analyze.u64_or("bytes_in", 0), 0u);
  EXPECT_GT(analyze.u64_or("bytes_out", 0), 0u);

  const JsonValue evaluate = check_access_record(lines[1]);
  EXPECT_EQ(evaluate.str_or("id", ""), "12");  // numeric id, echoed as text

  const JsonValue ping = check_access_record(lines[2]);
  EXPECT_EQ(ping.str_or("id", "").rfind("r", 0), 0u) << "generated id";
  EXPECT_EQ(ping.get("cache"), nullptr);  // ping has no cache outcome

  const JsonValue unknown = check_access_record(lines[3]);
  EXPECT_FALSE(unknown.bool_or("ok", true));
  EXPECT_EQ(unknown.str_or("error", ""), "unknown_method");

  const JsonValue garbage = check_access_record(lines[4]);
  EXPECT_FALSE(garbage.bool_or("ok", true));
  EXPECT_EQ(garbage.str_or("error", ""), "bad_request");
}

TEST(ServeObservability, BatchLogsOneTopLevelRecordWithClientId) {
  const std::string path = write_demo_system("obs_batch");
  const std::string log_path = temp_path("batch.jsonl");
  std::remove(log_path.c_str());
  ServeOptions options = demo_options(path);
  options.access_log = log_path;
  options.sample_interval_ms = 0;
  {
    Server server(std::move(options));
    const JsonValue result = expect_ok(server.handle(
        R"({"v": "ftmc.rpc.v1", "id": "B7", "method": "batch", "params": {"requests": [)"
        R"({"v": "ftmc.rpc.v1", "id": "s1", "method": "ping"},)"
        R"({"v": "ftmc.rpc.v1", "id": "s2", "method": "ping"}]}})"));
    EXPECT_EQ(result.u64_or("count", 0), 2u);
  }
  const std::vector<std::string> lines = read_lines(log_path);
  ASSERT_EQ(lines.size(), 1u);  // sub-requests ride inside the batch record
  const JsonValue record = check_access_record(lines[0]);
  EXPECT_EQ(record.str_or("id", ""), "B7");
  EXPECT_EQ(record.str_or("method", ""), "batch");
}

TEST(ServeObservability, OutOfRangeNumericIdIsLoggedAsADouble) {
  const std::string path = write_demo_system("obs_wide_id");
  const std::string log_path = temp_path("wide_id.jsonl");
  std::remove(log_path.c_str());
  ServeOptions options = demo_options(path);
  options.access_log = log_path;
  options.sample_interval_ms = 0;
  {
    Server server(std::move(options));
    (void)expect_ok(server.handle(
        R"({"v": "ftmc.rpc.v1", "id": 1e300, "method": "ping"})"));
  }
  const std::vector<std::string> lines = read_lines(log_path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(check_access_record(lines[0]).str_or("id", ""),
            "1.0000000000000001e+300");
}

TEST(ServeObservability, MetricsMethodRoundTripsSchema) {
  const std::string path = write_demo_system("obs_metrics");
  ServeOptions options = demo_options(path);
  options.sample_interval_ms = 0;  // sampling off: window must be null
  Server server(std::move(options));
  (void)server.handle(R"({"v": "ftmc.rpc.v1", "method": "ping"})");
  const JsonValue off = expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "method": "metrics"})"));
  const JsonValue* metrics = off.get("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->str_or("schema", ""), "ftmc.metrics.v1");
  ASSERT_NE(metrics->get("counters"), nullptr);
  ASSERT_NE(off.get("window"), nullptr);
  EXPECT_TRUE(off.get("window")->is_null());

  const JsonValue prom = expect_ok(
      server.handle(R"({"v": "ftmc.rpc.v1", "method": "metrics", "params":)"
                    R"( {"format": "prometheus"}})"));
  EXPECT_EQ(prom.str_or("format", ""), "prometheus");
  ASSERT_NE(prom.get("body"), nullptr);
  EXPECT_NE(prom.get("body")->string.find("# TYPE ftmc_serve_requests"),
            std::string::npos);
  EXPECT_NE(expect_error(server.handle(
                             R"({"v": "ftmc.rpc.v1", "method": "metrics", "params":)"
                             R"( {"format": "xml"}})"))
                .find("format"),
            std::string::npos);
}

TEST(ServeObservability, MetricsWindowReportsRatesOnceSampled) {
  const std::string path = write_demo_system("obs_window");
  ServeOptions options = demo_options(path);
  options.sample_interval_ms = 2;
  Server server(std::move(options));
  (void)server.handle(R"({"v": "ftmc.rpc.v1", "method": "ping"})");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t samples = 0;
  JsonValue window;
  while (std::chrono::steady_clock::now() < deadline) {
    const JsonValue result =
        expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "method": "metrics"})"));
    const JsonValue* w = result.get("window");
    ASSERT_NE(w, nullptr);
    ASSERT_FALSE(w->is_null());  // sampler on: the window is always present
    samples = w->u64_or("samples", 0);
    if (samples > 0) {
      window = *w;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(samples, 0u) << "sampler took no sample within the deadline";
  EXPECT_GT(window.num_or("seconds", 0.0), 0.0);
  const JsonValue* rates = window.get("rates");
  ASSERT_NE(rates, nullptr);
  for (const char* key :
       {"requests_per_s", "scenarios_per_s", "sim_events_per_s"})
    EXPECT_NE(rates->get(key), nullptr) << key;
  EXPECT_NE(window.get("cache_hit_rate"), nullptr);
  ASSERT_NE(window.get("latency"), nullptr);
  // The pings we issued must eventually show up as per-method latency.
  const auto method_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool saw_ping = false;
  while (!saw_ping && std::chrono::steady_clock::now() < method_deadline) {
    (void)server.handle(R"({"v": "ftmc.rpc.v1", "method": "ping"})");
    const JsonValue result =
        expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "method": "metrics"})"));
    const JsonValue* latency = result.get("window")->get("latency");
    if (latency != nullptr && latency->get("ping") != nullptr) {
      const JsonValue* ping = latency->get("ping");
      EXPECT_GT(ping->u64_or("count", 0), 0u);
      EXPECT_GE(ping->num_or("p95_us", -1.0), ping->num_or("p50_us", 0.0));
      saw_ping = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(saw_ping) << "ping latency never appeared in the window";
}

TEST(ServeObservability, HealthReportsReadyThenDraining) {
  const std::string path = write_demo_system("obs_health");
  ServeOptions options = demo_options(path);
  options.sample_interval_ms = 0;
  Server server(std::move(options));
  const JsonValue ready = expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "method": "health"})"));
  EXPECT_EQ(ready.str_or("status", ""), "ready");
  EXPECT_GE(ready.num_or("uptime_s", -1.0), 0.0);
  EXPECT_EQ(ready.u64_or("inflight", 99), 1u);  // this very request
  EXPECT_FALSE(ready.bool_or("sampling", true));
  const JsonValue* systems = ready.get("systems");
  ASSERT_NE(systems, nullptr);
  ASSERT_EQ(systems->array.size(), 1u);
  EXPECT_EQ(systems->array[0].str_or("system", ""), path);
  EXPECT_TRUE(systems->array[0].bool_or("candidate", false));
  ASSERT_NE(systems->array[0].get("store_records"), nullptr);
  EXPECT_TRUE(systems->array[0].get("store_records")->is_null());  // no L2

  (void)server.handle(R"({"v": "ftmc.rpc.v1", "method": "shutdown"})");
  const JsonValue draining =
      expect_ok(server.handle(R"({"v": "ftmc.rpc.v1", "method": "health"})"));
  EXPECT_EQ(draining.str_or("status", ""), "draining");
  EXPECT_GE(draining.u64_or("requests", 0), 3u);
}

}  // namespace
