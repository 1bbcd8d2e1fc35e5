// Minimal JSON parser for the `ftmc serve` request protocol — the read-side
// counterpart of the obs::Json writer (which stays the only *serializer* in
// the tree).  Objects, arrays, strings (with \uXXXX escapes), numbers,
// booleans, null; trailing garbage and nesting deeper than 64 levels are
// rejected with JsonParseError so a malformed request fails the one
// request, never the server.
//
// Numbers are looser than RFC 8259: a number is the run of bytes from
// [0-9.eE+-] that starts at the value (after an optional '-'), and it is
// accepted when strtod reads the whole run to a finite double.  So `+1`,
// `007`, `.5` and `1.` are accepted, `1e400` is rejected, and `1e-400`
// reads as 0.  tests/oracle/json_parse_oracle.cpp keeps the reference
// parser that pins this rule.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ftmc::serve {

class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion order preserved; lookups take the first match.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Object member by key, or nullptr (also for non-objects).
  const JsonValue* get(std::string_view key) const noexcept;

  /// Typed accessors with defaults; wrong-kind members yield the default.
  std::string str_or(std::string_view key,
                     const std::string& fallback) const;
  double num_or(std::string_view key, double fallback) const;
  std::uint64_t u64_or(std::string_view key, std::uint64_t fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
};

/// Parses exactly one JSON document (surrounding whitespace allowed).
/// Throws JsonParseError with a byte offset on malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace ftmc::serve
