#include "ftmc/dist/remote_executor.hpp"

#include <chrono>
#include <cmath>

#include "ftmc/dse/chromosome.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"

namespace ftmc::dist {
namespace {

std::string describe_error(const serve::JsonValue& response) {
  const serve::JsonValue* error = response.get("error");
  if (error == nullptr || !error->is_object()) return "malformed error";
  std::string text = error->str_or("code", "internal") + ": " +
                     error->str_or("message", "");
  const std::string detail = error->str_or("detail", "");
  if (!detail.empty()) text += " (" + detail + ")";
  return text;
}

}  // namespace

obs::Json chromosome_json(const dse::Chromosome& chromosome) {
  obs::Json allocation = obs::Json::array();
  for (const std::uint8_t bit : chromosome.allocation)
    allocation.push(obs::Json::uinteger(bit));
  obs::Json keep = obs::Json::array();
  for (const std::uint8_t bit : chromosome.keep)
    keep.push(obs::Json::uinteger(bit));
  obs::Json tasks = obs::Json::array();
  for (const dse::TaskGenes& task : chromosome.tasks) {
    obs::Json row = obs::Json::array();
    row.push(obs::Json::uinteger(static_cast<std::uint64_t>(task.technique)))
        .push(obs::Json::uinteger(task.reexec))
        .push(obs::Json::uinteger(task.active_n))
        .push(obs::Json::uinteger(task.base_pe));
    for (const std::uint16_t replica : task.replica_pe)
      row.push(obs::Json::uinteger(replica));
    row.push(obs::Json::uinteger(task.voter_pe));
    tasks.push(std::move(row));
  }
  return obs::Json::object()
      .set("allocation", std::move(allocation))
      .set("keep", std::move(keep))
      .set("tasks", std::move(tasks));
}

core::Evaluation evaluation_from_json(const serve::JsonValue& result) {
  core::Evaluation evaluation;
  evaluation.mapping_valid = result.bool_or("mapping_valid", false);
  evaluation.reliability_ok = result.bool_or("reliability_ok", false);
  evaluation.normal_schedulable = result.bool_or("normal_schedulable", false);
  evaluation.critical_schedulable =
      result.bool_or("critical_schedulable", false);
  evaluation.power = result.num_or("power", 0.0);
  evaluation.service = result.num_or("service", 0.0);
  evaluation.scenario_count =
      static_cast<std::size_t>(result.u64_or("scenario_count", 0));
  evaluation.scenario_solves =
      static_cast<std::size_t>(result.u64_or("scenario_solves", 0));
  if (const serve::JsonValue* wcrt = result.get("graph_wcrt");
      wcrt != nullptr && wcrt->kind == serve::JsonValue::Kind::kArray) {
    evaluation.graph_wcrt.reserve(wcrt->array.size());
    for (const serve::JsonValue& bound : wcrt->array) {
      // The cast is undefined outside [-2^63, 2^63); workers are untrusted.
      if (!(bound.number >= -0x1p63 && bound.number < 0x1p63))
        throw dse::ExecutorError("worker answered graph_wcrt bound " +
                                 obs::Json::number(bound.number).dump() +
                                 ", outside int64");
      evaluation.graph_wcrt.push_back(
          static_cast<model::Time>(bound.number));
    }
  }
  return evaluation;
}

std::string encode_batch_request(const std::vector<dse::EvalRequest>& requests,
                                 std::string_view system_path,
                                 std::uint64_t seed) {
  // Member order and number kinds (uinteger ids, genes and seed) are those
  // of the obs::Json request tree around chromosome_json, so the bytes
  // equal its dump(); tests/test_distributed.cpp pins that.
  std::string item_head = R"(,"method":"evaluate","system":)";
  obs::Json::append_string(item_head, system_path);
  item_head += R"(,"params":{"chromosome":{"allocation":[)";
  std::string item_tail = R"(]},"seed":)";
  obs::Json::append_uinteger(item_tail, seed);
  item_tail += "}}";
  const auto append_genes = [](std::string& out,
                               const std::vector<std::uint8_t>& genes) {
    for (std::size_t i = 0; i < genes.size(); ++i) {
      if (i > 0) out.push_back(',');
      obs::Json::append_uinteger(out, genes[i]);
    }
  };

  std::size_t reserve = 96;
  for (const dse::EvalRequest& request : requests) {
    const dse::Chromosome& genotype = *request.genotype;
    reserve += 48 + item_head.size() + item_tail.size() +
               2 * (genotype.allocation.size() + genotype.keep.size()) +
               32 * genotype.tasks.size();
  }
  std::string out;
  out.reserve(reserve);
  out += R"({"v":)";
  obs::Json::append_string(out, serve::kRpcVersion);
  out += R"(,"id":"executor","method":"batch","params":{"requests":[)";
  for (std::size_t index = 0; index < requests.size(); ++index) {
    const dse::Chromosome& genotype = *requests[index].genotype;
    if (index > 0) out.push_back(',');
    out += R"({"id":)";
    obs::Json::append_uinteger(out, index);
    out += item_head;
    append_genes(out, genotype.allocation);
    out += R"(],"keep":[)";
    append_genes(out, genotype.keep);
    out += R"(],"tasks":[)";
    for (std::size_t t = 0; t < genotype.tasks.size(); ++t) {
      const dse::TaskGenes& task = genotype.tasks[t];
      out += t > 0 ? ",[" : "[";
      obs::Json::append_uinteger(out,
                                 static_cast<std::uint64_t>(task.technique));
      out.push_back(',');
      obs::Json::append_uinteger(out, task.reexec);
      out.push_back(',');
      obs::Json::append_uinteger(out, task.active_n);
      out.push_back(',');
      obs::Json::append_uinteger(out, task.base_pe);
      for (const std::uint16_t replica : task.replica_pe) {
        out.push_back(',');
        obs::Json::append_uinteger(out, replica);
      }
      out.push_back(',');
      obs::Json::append_uinteger(out, task.voter_pe);
      out.push_back(']');
    }
    out += item_tail;
  }
  out += "]}}";
  return out;
}

RemoteExecutor::RemoteExecutor(WorkerFleet& fleet, std::size_t worker,
                               std::string system_path, std::uint64_t seed)
    : fleet_(&fleet),
      worker_(worker),
      system_path_(std::move(system_path)),
      seed_(seed) {}

void RemoteExecutor::evaluate(const std::vector<dse::EvalRequest>& requests,
                              std::vector<dse::EvalOutcome>& outcomes) {
  if (requests.empty()) return;
  const std::string request =
      encode_batch_request(requests, system_path_, seed_);

  const auto begin = std::chrono::steady_clock::now();
  const std::string payload = fleet_->call(worker_, request);
  const double total_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - begin)
          .count();

  serve::JsonValue response;
  try {
    response = serve::parse_json(payload);
  } catch (const serve::JsonParseError& error) {
    throw dse::ExecutorError(std::string("worker answered invalid JSON: ") +
                             error.what());
  }
  if (!response.bool_or("ok", false))
    throw dse::ExecutorError("worker refused the batch: " +
                             describe_error(response));
  const serve::JsonValue* result = response.get("result");
  const serve::JsonValue* results =
      result == nullptr ? nullptr : result->get("results");
  if (results == nullptr ||
      results->kind != serve::JsonValue::Kind::kArray ||
      results->array.size() != requests.size())
    throw dse::ExecutorError("worker answered a malformed batch result");

  outcomes.resize(requests.size());
  const double per_item_us =
      total_us / static_cast<double>(requests.size());
  for (std::size_t index = 0; index < requests.size(); ++index) {
    const serve::JsonValue& item = results->array[index];
    if (!item.bool_or("ok", false))
      throw dse::ExecutorError("worker failed evaluation " +
                               std::to_string(index) + ": " +
                               describe_error(item));
    const serve::JsonValue* item_result = item.get("result");
    if (item_result == nullptr)
      throw dse::ExecutorError("worker answered a malformed evaluation");
    dse::EvalOutcome& outcome = outcomes[index];
    outcome.evaluation = evaluation_from_json(*item_result);
    outcome.cache_hit = item_result->bool_or("cache_hit", false);
    outcome.latency_us = per_item_us;
  }
}

}  // namespace ftmc::dist
