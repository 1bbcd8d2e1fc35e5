#include "ftmc/obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace ftmc::obs {

namespace {

/// Appends `raw` escaped, without quotes.  Runs of bytes that need no
/// escape are copied in one append.
void append_escaped(std::string& out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c != '"' && c != '\\' && c >= 0x20) continue;
    out.append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(code, sizeof code);
      }
    }
  }
  out.append(raw.data() + run, raw.size() - run);
}

template <typename Integer>
void append_decimal(std::string& out, Integer value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

}  // namespace

Json Json::object() {
  Json value;
  value.kind_ = Kind::kObject;
  return value;
}

Json Json::array() {
  Json value;
  value.kind_ = Kind::kArray;
  return value;
}

Json Json::str(std::string value) {
  Json result;
  result.kind_ = Kind::kString;
  result.string_ = std::move(value);
  return result;
}

Json Json::boolean(bool value) {
  Json result;
  result.kind_ = Kind::kBool;
  result.bool_ = value;
  return result;
}

Json Json::integer(std::int64_t value) {
  Json result;
  result.kind_ = Kind::kInt;
  result.int_ = value;
  return result;
}

Json Json::uinteger(std::uint64_t value) {
  Json result;
  result.kind_ = Kind::kUint;
  result.uint_ = value;
  return result;
}

Json Json::number(double value, int decimals) {
  Json result;
  result.kind_ = Kind::kDouble;
  result.double_ = value;
  result.decimals_ = decimals;
  return result;
}

Json& Json::set(std::string key, Json value) {
  kind_ = Kind::kObject;  // first set() on a default value makes it an object
  for (auto& [name, member] : members_)
    if (name == key) {
      member = std::move(value);
      return *this;
    }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::set(std::string key, const char* value) {
  return set(std::move(key), str(std::string(value)));
}

Json& Json::set(std::string key, std::string_view value) {
  return set(std::move(key), str(std::string(value)));
}

Json& Json::set(std::string key, bool value) {
  return set(std::move(key), boolean(value));
}

Json& Json::set(std::string key, double value) {
  return set(std::move(key), number(value));
}

Json& Json::push(Json value) {
  kind_ = Kind::kArray;
  elements_.push_back(std::move(value));
  return *this;
}

void Json::append_string(std::string& out, std::string_view raw) {
  out.push_back('"');
  append_escaped(out, raw);
  out.push_back('"');
}

void Json::append_integer(std::string& out, std::int64_t value) {
  append_decimal(out, value);
}

void Json::append_uinteger(std::string& out, std::uint64_t value) {
  append_decimal(out, value);
}

void Json::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      append_integer(out, int_);
      break;
    case Kind::kUint:
      append_uinteger(out, uint_);
      break;
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        out += "null";  // JSON has no NaN/Inf
        break;
      }
      char buffer[64];
      const int length =
          decimals_ >= 0
              ? std::snprintf(buffer, sizeof buffer, "%.*f", decimals_, double_)
              : std::snprintf(buffer, sizeof buffer, "%.*g",
                              std::numeric_limits<double>::max_digits10,
                              double_);
      // snprintf truncates what does not fit the buffer; those are the
      // bytes this writer has always printed.
      out.append(buffer, std::min(static_cast<std::size_t>(length),
                                  sizeof buffer - 1));
      break;
    }
    case Kind::kString:
      append_string(out, string_);
      break;
    case Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out.push_back(',');
        first = false;
        append_string(out, key);
        out.push_back(':');
        value.append_to(out);
      }
      out.push_back('}');
      break;
    }
    case Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& value : elements_) {
        if (!first) out.push_back(',');
        first = false;
        value.append_to(out);
      }
      out.push_back(']');
      break;
    }
  }
}

void Json::write(std::ostream& out) const { out << dump(); }

std::string Json::dump() const {
  std::string out;
  append_to(out);
  return out;
}

}  // namespace ftmc::obs
