// Throughput of `ftmc serve` request handling:
//
//   hot        one resident Server answering the whole request stream —
//              the regime `ftmc serve` exists for: parse once, keep the
//              PreparedProblem/PreparedSim and evaluation caches resident;
//   telemetry  the same stream with the access log and a 50 ms sampler on
//              (overhead_pct against hot; CI gates it at <= 5%);
//   TCP        one resident server pinned to --threads=1 (no intra-request
//              fan-out, so any gain is pure connection concurrency), driven
//              by 1/2/4/8 client connections over loopback TCP (speedup_8x;
//              CI gates it at >= 2 on hosts with at least 4 cores).
//
// The request mix is analyze + evaluate + simulate (round-robin), the same
// methods the daemon serves in production.  The telemetry arm's rendered
// reports must equal the hot arm's, and every TCP response must equal the
// serial expectation for the same request document byte for byte.  What
// a one-shot start costs against a warm request is perfbench's
// `serve-cruise-warm` (`setup_s` against `req_p50_ms`).
//
// Environment knobs: FTMC_REQUESTS (hot requests, default 300),
// FTMC_PROFILES (simulate profiles, default 200), FTMC_THREADS (hardware),
// FTMC_CONC_REQUESTS (requests per TCP concurrency level, default 120).
//
// The last line is a one-line JSON summary for CI and scripted regression
// tracking; the exit code is non-zero if any response diverges.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ftmc/serve/protocol.hpp"

#include "bench_common.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/util/table.hpp"

using namespace ftmc;

namespace {

/// A synth benchmark with a decoded candidate, written as a system file —
/// what a serve deployment loads at startup.
std::string write_bench_system() {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(2014);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  const core::Candidate candidate = decoder.decode(chromosome, rng);
  const std::string path = "/tmp/ftmc_bench_serve.ftmc";
  std::ofstream out(path);
  io::write_system(out, benchmark.arch, benchmark.apps, &candidate);
  return path;
}

serve::ServeOptions server_options(const std::string& path,
                                   std::size_t threads) {
  serve::ServeOptions options;
  options.system_paths = {path};
  options.threads = threads;
  options.sample_interval_ms = 0;  // telemetry arms opt in explicitly
  return options;
}

/// The round-robin request mix (the simulate seed varies so the hot arm
/// cannot be served by a memoized simulation result).
std::string request_at(std::size_t i, std::size_t profiles) {
  const std::string head =
      R"({"v": "ftmc.rpc.v1", "id": )" + std::to_string(i);
  switch (i % 3) {
    case 0:
      return head + R"(, "method": "analyze"})";
    case 1:
      return head + R"(, "method": "evaluate"})";
    default:
      return head + R"(, "method": "simulate", "params": {"profiles": )" +
             std::to_string(profiles) + R"(, "fault_prob": "0.3", "seed": )" +
             std::to_string(1 + i) + "}}";
  }
}

/// Rendered report (or full result for evaluate) — the identity surface.
/// `cache_hit` legitimately differs between a fresh and a resident server,
/// so compare the payload that reaches the user's terminal instead.
std::string identity_of(const std::string& response) {
  const serve::JsonValue root = serve::parse_json(response);
  if (!root.bool_or("ok", false)) return "ERROR: " + response;
  const serve::JsonValue* result = root.get("result");
  const std::string output = result->str_or("output", "");
  if (!output.empty()) return output;
  return "power=" + std::to_string(result->num_or("power", -1.0)) +
         " service=" + std::to_string(result->num_or("service", -1.0)) +
         " feasible=" + std::to_string(result->bool_or("feasible", false));
}

/// Minimal framed-protocol TCP client (loopback).
struct BenchClient {
  int fd = -1;
  std::unique_ptr<serve::FrameReader> reader;

  explicit BenchClient(std::uint16_t port) {
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
    reader = std::make_unique<serve::FrameReader>(fd);
  }
  ~BenchClient() {
    if (fd >= 0) ::close(fd);
  }
  std::string call(const std::string& request) {
    serve::write_frame(fd, request);
    std::string payload;
    if (!reader->read(payload)) return "";
    return payload;
  }
};

struct LevelResult {
  std::size_t connections = 0;
  std::size_t requests = 0;
  double rps = 0.0;
  double p95_ms = 0.0;
  bool identical = true;
};

/// One concurrency level: `connections` clients split the request stream
/// round-robin; every response must match its serial expectation byte for
/// byte.
LevelResult run_level(std::uint16_t port, std::size_t connections,
                      const std::vector<std::string>& requests,
                      const std::vector<std::string>& expected) {
  LevelResult level;
  level.connections = connections;
  level.requests = requests.size();
  std::vector<std::vector<double>> latencies(connections);
  std::vector<char> client_ok(connections, 1);
  std::vector<std::thread> clients;
  clients.reserve(connections);
  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < connections; ++c)
    clients.emplace_back([&, c] {
      BenchClient client(port);
      if (client.fd < 0) {
        client_ok[c] = 0;
        return;
      }
      for (std::size_t i = c; i < requests.size(); i += connections) {
        const auto sent = std::chrono::steady_clock::now();
        const std::string response = client.call(requests[i]);
        latencies[c].push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - sent)
                                   .count());
        if (response != expected[i]) client_ok[c] = 0;
      }
    });
  for (std::thread& client : clients) client.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
  std::vector<double> all;
  for (const auto& per_client : latencies)
    all.insert(all.end(), per_client.begin(), per_client.end());
  std::sort(all.begin(), all.end());
  level.identical =
      std::all_of(client_ok.begin(), client_ok.end(),
                  [](char ok) { return ok != 0; }) &&
      all.size() == requests.size();
  level.rps = wall > 0 ? static_cast<double>(all.size()) / wall : 0.0;
  level.p95_ms =
      all.empty()
          ? 0.0
          : all[std::min(all.size() - 1,
                         static_cast<std::size_t>(0.95 * (all.size() - 1) +
                                                  0.5))] *
                1e3;
  return level;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Reporter reporter(argc, argv);
  const std::size_t hot_requests = bench::env_or("FTMC_REQUESTS", 300);
  const std::size_t profiles = bench::env_or("FTMC_PROFILES", 200);
  const std::size_t threads = bench::env_or("FTMC_THREADS", 0);
  const std::string path = write_bench_system();

  std::cout << "serve throughput: " << hot_requests
            << " requests, analyze+evaluate+simulate mix, " << profiles
            << " simulate profiles (FTMC_REQUESTS / FTMC_PROFILES / "
               "FTMC_THREADS)\n";

  // Hot: one resident server answers the whole stream.
  serve::Server server(server_options(path, threads));
  (void)server.handle(request_at(0, profiles));  // warm the residents
  std::vector<std::string> hot_identities(3);
  const auto hot_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < hot_requests; ++i) {
    const std::string response = server.handle(request_at(i % 3, profiles));
    if (i < 3) hot_identities[i] = identity_of(response);
  }
  const double hot_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    hot_start)
          .count();
  const double hot_rps = static_cast<double>(hot_requests) / hot_seconds;
  std::cout << "hot (resident server): " << util::Table::cell(hot_rps, 1)
            << " requests/s\n";
  bool identical = true;

  // Telemetry overhead: the same hot stream with the full observability
  // surface on (access log + background sampler) — the acceptance gate is
  // that serving with telemetry costs only a few percent.
  const std::string access_log_path = "/tmp/ftmc_bench_serve_access.jsonl";
  std::remove(access_log_path.c_str());
  serve::ServeOptions telemetry_options = server_options(path, threads);
  telemetry_options.access_log = access_log_path;
  telemetry_options.sample_interval_ms = 50;
  serve::Server telemetry_server(std::move(telemetry_options));
  (void)telemetry_server.handle(request_at(0, profiles));  // warm
  const auto telemetry_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < hot_requests; ++i) {
    const std::string response =
        telemetry_server.handle(request_at(i % 3, profiles));
    if (i < 3) identical = identical &&
                           identity_of(response) == hot_identities[i];
  }
  const double telemetry_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    telemetry_start)
          .count();
  const double telemetry_rps =
      static_cast<double>(hot_requests) / telemetry_seconds;
  const double overhead_pct =
      hot_rps > 0 ? (hot_rps - telemetry_rps) / hot_rps * 100.0 : 0.0;
  std::cout << "telemetry on (access log + 50ms sampler): "
            << util::Table::cell(telemetry_rps, 1) << " requests/s, "
            << util::Table::cell(overhead_pct, 1)
            << "% overhead vs hot; responses still byte-identical\n";

  // Concurrent TCP sessions: server pinned to one worker thread, so the
  // only parallelism is across connections.
  const std::size_t conc_requests = bench::env_or("FTMC_CONC_REQUESTS", 120);
  serve::ServeOptions tcp_options = server_options(path, 1);
  tcp_options.max_connections = 8;
  serve::Server tcp_server(std::move(tcp_options));
  std::thread tcp_thread([&] { (void)tcp_server.serve_tcp(0, ""); });
  while (tcp_server.bound_port() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<std::string> requests;
  requests.reserve(conc_requests);
  for (std::size_t i = 0; i < conc_requests; ++i)
    requests.push_back(request_at(i, profiles));
  // Serial expectations through the same server (warmed above is a
  // different instance; warm this one first so cache_hit is stable).
  (void)tcp_server.handle(request_at(0, profiles));
  (void)tcp_server.handle(request_at(1, profiles));
  std::vector<std::string> expected;
  expected.reserve(requests.size());
  for (const std::string& request : requests)
    expected.push_back(tcp_server.handle(request));

  util::Table tcp_table(
      "ftmc serve: concurrent TCP sessions (server --threads=1)");
  tcp_table.set_header(
      {"connections", "requests", "requests/s", "p95 [ms]", "identical"});
  std::vector<LevelResult> levels;
  for (const std::size_t connections : {1u, 2u, 4u, 8u}) {
    levels.push_back(
        run_level(tcp_server.bound_port(), connections, requests, expected));
    const LevelResult& level = levels.back();
    identical = identical && level.identical;
    tcp_table.add_row({std::to_string(level.connections),
                       std::to_string(level.requests),
                       util::Table::cell(level.rps, 1),
                       util::Table::cell(level.p95_ms, 2),
                       level.identical ? "yes" : "NO"});
  }
  tcp_table.print(std::cout);
  const double speedup_8x =
      levels.front().rps > 0 ? levels.back().rps / levels.front().rps : 0.0;
  std::cout << "(8-connection aggregate speedup "
            << util::Table::cell(speedup_8x, 2)
            << "x over 1 connection; every response byte-identical to the "
               "serial expectation)\n";

  (void)tcp_server.handle(R"({"v": "ftmc.rpc.v1", "method": "shutdown"})");
  tcp_thread.join();

  obs::Json tcp_levels = obs::Json::array();
  for (const LevelResult& level : levels)
    tcp_levels.push(obs::Json::object()
                        .set("connections", level.connections)
                        .set("requests", level.requests)
                        .set("rps", obs::Json::number(level.rps, 1))
                        .set("p95_ms", obs::Json::number(level.p95_ms, 2))
                        .set("identical", level.identical));

  obs::Json summary = obs::Json::object();
  summary.set("bench", "serve")
      .set("hot_requests", hot_requests)
      .set("profiles", profiles)
      // CI gates speedup_8x only on hosts with enough cores to show it.
      .set("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .set("hot_rps", obs::Json::number(hot_rps, 1))
      .set("telemetry_rps", obs::Json::number(telemetry_rps, 1))
      .set("overhead_pct", obs::Json::number(overhead_pct, 1))
      .set("conc_requests", conc_requests)
      .set("tcp_levels", std::move(tcp_levels))
      .set("speedup_8x", obs::Json::number(speedup_8x, 2))
      .set("identical", identical);
  reporter.finish(summary);
  return identical ? 0 : 1;
}
