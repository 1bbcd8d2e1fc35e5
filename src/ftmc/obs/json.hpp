// Minimal one-line JSON serializer shared by every telemetry surface: the
// bench summary lines (`JSON: {...}`), `--metrics-json` registry snapshots,
// the per-generation JSONL stream of `ftmc optimize`, and the Chrome-trace
// exporter.  One writer means one escaping/number-formatting policy, so the
// emitted schemas stay parseable by the same scripts (tools/check_metrics.py
// validates them in CI).
//
// A Json value is an immutable-ish tree built fluently:
//
//   obs::Json line = obs::Json::object()
//       .set("bench", "sim_kernel")
//       .set("events", events)
//       .set("speedup", obs::Json::number(speedup, 2));
//   std::cout << "JSON: " << line.dump() << '\n';
//
// Numbers: integers print exactly; doubles print either with a fixed decimal
// count (matching the former util::Table::cell formatting of the bench
// lines) or via max_digits10 round-trip formatting.  Non-finite doubles
// serialize as null (JSON has no NaN/Inf).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ftmc::obs {

class Json {
 public:
  /// Default-constructed value is JSON null.
  Json() = default;

  static Json object();
  static Json array();
  static Json str(std::string value);
  static Json boolean(bool value);
  static Json integer(std::int64_t value);
  static Json uinteger(std::uint64_t value);
  /// `decimals < 0` -> round-trip (max_digits10) formatting.
  static Json number(double value, int decimals = -1);

  /// Object member (insertion order preserved; duplicate keys overwrite).
  Json& set(std::string key, Json value);
  Json& set(std::string key, const char* value);
  Json& set(std::string key, std::string_view value);
  Json& set(std::string key, bool value);
  Json& set(std::string key, double value);
  template <typename T>
    requires std::is_integral_v<T>
  Json& set(std::string key, T value) {
    if constexpr (std::is_signed_v<T>)
      return set(std::move(key), integer(static_cast<std::int64_t>(value)));
    else
      return set(std::move(key), uinteger(static_cast<std::uint64_t>(value)));
  }

  /// Array element.
  Json& push(Json value);

  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }

  /// Prints dump(): the writer has one serializer.
  void write(std::ostream& out) const;
  std::string dump() const;

  /// The serializer's appenders: each appends exactly the bytes dump()
  /// writes for str(raw), integer(value) or uinteger(value), so a caller
  /// that streams a fixed shape (dist::encode_batch_request) produces the
  /// tree's bytes without building the tree.  Strings are quoted and
  /// RFC 8259-escaped (quotes, backslash, control characters).
  static void append_string(std::string& out, std::string_view raw);
  static void append_integer(std::string& out, std::int64_t value);
  static void append_uinteger(std::string& out, std::uint64_t value);

 private:
  enum class Kind {
    kNull,
    kBool,
    kInt,
    kUint,
    kDouble,
    kString,
    kObject,
    kArray
  };

  void append_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  int decimals_ = -1;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;  ///< object
  std::vector<Json> elements_;                         ///< array
};

inline std::ostream& operator<<(std::ostream& out, const Json& value) {
  value.write(out);
  return out;
}

}  // namespace ftmc::obs
