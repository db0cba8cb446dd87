// Streaming JSON writer for the suite's artifacts.
//
// Strings are escaped per RFC 8259: '"', '\\' and every control character
// below 0x20 (the short forms \b \f \n \r \t where JSON has them, \u00XX
// otherwise); bytes >= 0x80 pass through, so UTF-8 stays UTF-8. Numbers
// print with 17 significant digits so a double round-trips, and NaN or
// infinity, which JSON cannot spell, become null.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace xphi::bench {

inline void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

inline void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Appends a JSON document to a string. Commas are inserted automatically;
/// inside an object every value must be preceded by key().
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    append_escaped(out_, k);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(std::string_view s) {
    separate();
    append_escaped(out_, s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v) {
    separate();
    append_number(out_, v);
    return *this;
  }
  JsonWriter& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }

  /// key(k).value(v) in one call.
  template <class V>
  JsonWriter& field(std::string_view k, const V& v) {
    key(k);
    if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>) {
      return value(static_cast<double>(v));
    } else {
      return value(v);
    }
  }

  const std::string& str() const noexcept { return out_; }

 private:
  JsonWriter& open(char c) {
    separate();
    out_.push_back(c);
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    first_.pop_back();
    out_.push_back(c);
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ", ";
    first_.back() = false;
  }

  std::string out_;
  std::vector<bool> first_;  // per open container: nothing written yet
  bool after_key_ = false;
};

}  // namespace xphi::bench
