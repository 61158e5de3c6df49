// Minimal JSON document model for the service wire protocol: a strict
// recursive-descent parser and a deterministic writer, no external
// dependencies. The model is deliberately small — null/bool/number/string/
// array/object — but two properties matter for the protocol layer:
//
//  * Numbers keep their lexeme. A parsed number re-encodes as the exact
//    bytes the client sent, and numbers built from uint64 (seeds, levels)
//    never round-trip through double — so encode(parse(encode(x))) is the
//    identity on protocol messages (service_protocol_test pins this).
//    Doubles are formatted with std::to_chars shortest-round-trip form.
//  * Objects preserve insertion order (vector of members, not a map), so
//    the writer's output is a deterministic function of construction order.
//
// Parsing is strict JSON (RFC 8259): no trailing garbage, no comments, no
// trailing commas or duplicate keys, \uXXXX escapes decoded to UTF-8,
// depth-capped to keep adversarial inputs from recursing the stack away.
// JsonCursor holds that grammar; the request decoders read with it directly.

#ifndef DPCLUSTER_SERVICE_JSON_H_
#define DPCLUSTER_SERVICE_JSON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dpcluster/common/status.h"

namespace dpcluster {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  /// Default-constructed value is null.
  JsonValue() = default;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue Number(std::uint64_t value);
  static JsonValue Number(int value);
  /// A number carrying an exact spelling; `lexeme` must be a valid JSON
  /// number (the parser uses this to round-trip client bytes unchanged).
  static JsonValue NumberFromLexeme(std::string lexeme);
  static JsonValue String(std::string value);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Value accessors; each requires the matching kind.
  bool AsBool() const;
  /// The number as a double (strtod over the stored lexeme).
  double AsDouble() const;
  /// The number as an exact unsigned integer; InvalidArgument when the
  /// lexeme is negative, fractional, or does not fit in 64 bits.
  Result<std::uint64_t> AsU64() const;
  const std::string& AsString() const;

  /// The stored number lexeme ("1e-9", "42"); requires is_number().
  const std::string& lexeme() const;

  // --- Arrays -------------------------------------------------------------
  const std::vector<JsonValue>& items() const;
  void Append(JsonValue value);

  // --- Objects ------------------------------------------------------------
  const std::vector<Member>& members() const;
  /// Appends (or overwrites, keeping position) a member.
  void Set(std::string key, JsonValue value);
  /// The member named `key`, or nullptr when absent.
  const JsonValue* Find(std::string_view key) const;

  /// Compact deterministic serialization (members in stored order).
  std::string Encode() const;

  /// Strict parse of a complete JSON document into a tree (JsonCursor's
  /// grammar). Any syntax error, trailing garbage, or nesting deeper than 64
  /// levels is InvalidArgument with a byte-offset message.
  static Result<JsonValue> Parse(std::string_view text);

 private:
  void EncodeTo(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  /// String payload for kString; exact lexeme for kNumber.
  std::string text_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// A strict forward-only reader over one JSON document in Parse's grammar
/// (Parse is built on it): Next() classifies the value at the cursor and the
/// matching Read*, ReadObject/ReadArray or Skip consumes it, so values decode
/// where they land, with no tree. The first error sticks in status(), in
/// Parse's wording and byte offsets, and every later read fails.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  std::size_t remaining() const { return text_.size() - pos_; }

  /// The kind of the value at the cursor (after whitespace), not consumed.
  std::optional<JsonValue::Kind> Next() {
    if (depth_ > kMaxDepth) return Failed("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Failed("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return JsonValue::Kind::kObject;
    if (c == '[') return JsonValue::Kind::kArray;
    if (c == '"') return JsonValue::Kind::kString;
    if (c == 't' || c == 'f') return JsonValue::Kind::kBool;
    if (c == 'n') return JsonValue::Kind::kNull;
    if (c == '-' || IsDigit(c)) return JsonValue::Kind::kNumber;
    return Failed("unexpected character");
  }

  /// Consume the value Next() just classified; a number as its exact
  /// lexeme, checked against the JSON grammar.
  bool ReadString(std::string& out);
  bool ReadBool(bool& out) {
    out = text_[pos_] == 't';
    return ReadWord(out ? "true" : "false");
  }
  bool ReadNull() { return ReadWord("null"); }
  bool ReadNumber(std::string_view& lexeme) {
    const std::size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !Digits()) return Fail("malformed number");
    if (Consume('.') && !Digits()) return Fail("malformed number fraction");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!Digits()) return Fail("malformed number exponent");
    }
    lexeme = text_.substr(start, pos_ - start);
    return true;
  }
  /// Calls `member(key)` / `item(index)` per entry of the object / array
  /// Next() just classified; the callback consumes one value and returns
  /// false only on an error. A duplicate key fails after its value.
  template <typename F>
  bool ReadObject(F&& member) {
    std::vector<std::string> keys;
    return ReadEntries('}', [&] {
      SkipSpace();
      std::string key;
      if (!ReadString(key)) return false;
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      if (!member(std::as_const(key))) return false;
      if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
        return Fail("duplicate object key \"" + key + "\"");
      }
      keys.push_back(std::move(key));
      return true;
    });
  }
  template <typename F>
  bool ReadArray(F&& item) {
    std::size_t index = 0;
    return ReadEntries(']', [&] { return item(index++); });
  }
  /// Consumes one value of any kind, checked as fully as Parse checks it.
  bool Skip();
  /// True when only whitespace is left.
  bool Finish();

 private:
  static constexpr int kMaxDepth = 64;
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  /// Keeps the error at the current byte unless one is kept; false/nullopt.
  bool Fail(std::string_view what);
  std::nullopt_t Failed(std::string_view what) {
    Fail(what);
    return std::nullopt;
  }
  bool ReadWord(std::string_view word);
  template <typename F>
  bool ReadEntries(char close, F&& entry) {
    ++pos_;  // '{' or '['
    SkipSpace();
    if (Consume(close)) return true;
    ++depth_;
    do {
      if (!entry()) return false;
      SkipSpace();
    } while (Consume(','));
    if (!Consume(close)) {
      return Fail(std::string("expected ',' or '") + close + "'");
    }
    --depth_;
    return true;
  }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool Digits() {  // A run of at least one digit.
    const char* const start = text_.data() + pos_;
    const char* end = start;
    while (end != text_.data() + text_.size() && IsDigit(*end)) ++end;
    pos_ += static_cast<std::size_t>(end - start);
    return end != start;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // Containers open at the cursor.
  Status status_;
};

/// A JSON number lexeme as a double, bit for bit what std::strtod returns:
/// std::from_chars, falling back to strtod where from_chars reports
/// result_out_of_range (it leaves the value unset there, where strtod gives
/// ±inf on overflow and ±0 or a subnormal on underflow).
double JsonNumberToDouble(std::string_view lexeme);

/// Formats a double in shortest round-trip form ("0.1", "1e-9", integral
/// doubles without a trailing ".0"). NaN/Inf are not valid JSON and encode
/// as null — the protocol layer never emits them in number position.
std::string JsonNumberLexeme(double value);

}  // namespace dpcluster

#endif  // DPCLUSTER_SERVICE_JSON_H_
