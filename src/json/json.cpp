#include "json/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/str.hpp"

namespace cosmo::json {

bool Value::as_bool() const {
  require_format(is_bool(), "json: expected bool");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  require_format(is_number(), "json: expected number");
  return std::get<double>(v_);
}

long Value::as_int() const { return static_cast<long>(as_number()); }

const std::string& Value::as_string() const {
  require_format(is_string(), "json: expected string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  require_format(is_array(), "json: expected array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  require_format(is_object(), "json: expected object");
  return std::get<Object>(v_);
}

Array& Value::as_array() {
  require_format(is_array(), "json: expected array");
  return std::get<Array>(v_);
}

Object& Value::as_object() {
  require_format(is_object(), "json: expected object");
  return std::get<Object>(v_);
}

const Value& Value::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw FormatError("json: missing key '" + key + "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

double Value::get(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Value::get(const std::string& key, const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Value::get(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

namespace {

// Word-at-a-time byte tests for the string scans, so a multi-megabyte
// base64 payload is checked eight bytes per step. Each answers exactly
// whether any byte of the word qualifies; borrows can blur which byte,
// never whether one does.
constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kHighs = 0x8080808080808080ull;

std::uint64_t load_word(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// True when any byte of \p w is below \p n (n <= 128).
bool any_byte_below(std::uint64_t w, unsigned char n) {
  return ((w - kOnes * n) & ~w & kHighs) != 0;
}

/// True when any byte of \p w equals \p c.
bool any_byte_is(std::uint64_t w, char c) {
  return any_byte_below(w ^ (kOnes * static_cast<unsigned char>(c)), 1);
}

/// True when any byte of \p w needs work inside a JSON string: a quote, a
/// backslash or, when \p controls, a control character.
bool any_special(std::uint64_t w, bool controls) {
  return any_byte_is(w, '"') || any_byte_is(w, '\\') || (controls && any_byte_below(w, 0x20));
}

/// Appends the escaped form of \p s to \p out. Runs that need no escaping
/// (all of a base64 payload) are appended in bulk, not a byte at a time.
void append_escaped(std::string& out, const std::string& s) {
  const char* p = s.data();
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    while (i + 8 <= s.size() && !any_special(load_word(p + i), true)) i += 8;
    if (i == s.size()) break;
    const char c = p[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') continue;
    out.append(p + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: out += strprintf("\\u%04x", c);
    }
  }
  out.append(p + run, s.size() - run);
}

std::string format_number(double d) {
  // JSON has no NaN or Infinity: a non-finite number (say, the distortion of
  // a corrupted stream that decoded to NaNs) is written as null, so the
  // document stays parseable.
  if (!std::isfinite(d)) return "null";
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    return strprintf("%.0f", d);
  }
  // %.17g round-trips doubles; trim to the shortest representation that does.
  for (int prec = 6; prec <= 17; ++prec) {
    std::string s = strprintf("%.*g", prec, d);
    if (std::strtod(s.c_str(), nullptr) == d) return s;
  }
  return strprintf("%.17g", d);
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ') : "";
  const std::string pad_close = indent > 0 ? std::string(static_cast<std::size_t>(indent) * depth, ' ') : "";
  const char* nl = indent > 0 ? "\n" : "";
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    out += format_number(as_number());
  } else if (is_string()) {
    out += '"';
    append_escaped(out, as_string());
    out += '"';
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_to(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += pad_close;
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [k, v] : obj) {
      out += pad;
      out += '"';
      append_escaped(out, k);
      out += "\":";
      if (indent > 0) out += ' ';
      v.dump_to(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += pad_close;
    out += '}';
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string view with offset tracking.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  /// Throws FormatError naming the current offset. Every check calls this
  /// from its failing branch, so a passing token formats nothing.
  [[noreturn, gnu::cold]] void fail(const char* msg) const {
    throw FormatError(strprintf("json parse error at offset %zu: %s", pos_, msg));
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  /// Consumes \p c; a mismatch reports the offset of the offending byte.
  void expect(char c) {
    if (peek() != c) fail((std::string("expected '") + c + "'").c_str());
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = next();
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Bulk-copy the run up to the next quote or backslash, found eight
      // bytes per step: multi-megabyte payload strings (base64 chunks)
      // would otherwise be scanned and appended a byte at a time.
      std::size_t run_end = pos_;
      while (run_end + 8 <= s_.size() && !any_special(load_word(s_.data() + run_end), false)) {
        run_end += 8;
      }
      while (run_end < s_.size() && s_[run_end] != '"' && s_[run_end] != '\\') ++run_end;
      if (run_end == s_.size()) fail("unterminated string");
      out.append(s_, pos_, run_end - pos_);
      pos_ = run_end;
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Encode the code point as UTF-8 (BMP only; surrogate pairs are
          // passed through as two separate 3-byte sequences).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t begin = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == begin) fail("expected a value");
    const std::string tok = s_.substr(begin, pos_ - begin);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail(("malformed number '" + tok + "'").c_str());
    return Value(d);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("json: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

}  // namespace cosmo::json
