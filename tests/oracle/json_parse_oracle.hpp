// Reference JSON parser for the differential tests: serve::parse_json as
// it was before its number fast path and its array element stack,
// preserved verbatim.  Every number goes through strtod and every array
// grows by push_back.
//
// tests/test_json_fuzz.cpp holds the production parser to it: on every
// input both throw JsonParseError with the same message, or both return
// equal trees with bitwise-equal numbers.  It therefore also pins the
// number rule documented in ftmc/serve/json_parse.hpp.  Never link it into
// a shipped target.
#pragma once

#include <string_view>

#include "ftmc/serve/json_parse.hpp"

namespace ftmc::oracle {

/// Parses exactly one JSON document, like serve::parse_json.
serve::JsonValue parse_json(std::string_view text);

}  // namespace ftmc::oracle
