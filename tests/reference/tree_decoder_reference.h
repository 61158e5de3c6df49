// Reference oracle for the request decoders in service/protocol: the
// two-step decode written the direct way. ParseJson, the recursive-descent
// parser JsonValue::Parse was before it was rebuilt on JsonCursor, builds
// the whole tree first (so any syntax error wins), then a member dispatch
// walks it, returning the first field error in document order.
// ParseWireRequest, ParseStreamAppend and ParseStreamExpire, which read the
// body in one pass without a tree, must return the same value or the same
// error message; JsonValue::Parse must match ParseJson the same way.
// Coordinates go through std::strtod over each stored lexeme.

#ifndef DPCLUSTER_TESTS_REFERENCE_TREE_DECODER_REFERENCE_H_
#define DPCLUSTER_TESTS_REFERENCE_TREE_DECODER_REFERENCE_H_

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"

namespace dpcluster::reference {

namespace tree_decoder {

// --- The tree parser (the former JsonValue::Parse) ---------------------------

constexpr int kMaxDepth = 64;

inline void AppendUtf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Cursor over the input; all parse functions advance it or fail.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos) + ": " + what);
  }

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }
  bool PeekDigit() const {
    return !AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()));
  }

  void SkipSpace() {
    while (!AtEnd()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (!AtEnd() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth);
  Result<std::string> ParseString();
  /// Validates a JSON number at the cursor and returns its exact lexeme.
  Result<std::string> ParseNumberLexeme();
};

inline Result<std::string> Parser::ParseString() {
  if (!Consume('"')) return Error("expected '\"'");
  std::string out;
  while (true) {
    if (AtEnd()) return Error("unterminated string");
    const char c = text[pos++];
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) {
      return Error("unescaped control character in string");
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (AtEnd()) return Error("unterminated escape");
    const char e = text[pos++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        const auto hex4 = [&]() -> int {
          if (pos + 4 > text.size()) return -1;
          int value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos + i];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= h - '0';
            else if (h >= 'a' && h <= 'f') value |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') value |= h - 'A' + 10;
            else return -1;
          }
          pos += 4;
          return value;
        };
        const int hi = hex4();
        if (hi < 0) return Error("bad \\u escape");
        std::uint32_t cp = static_cast<std::uint32_t>(hi);
        if (cp >= 0xD800 && cp < 0xDC00) {
          // Surrogate pair: a low surrogate escape must follow.
          if (pos + 2 > text.size() || text[pos] != '\\' ||
              text[pos + 1] != 'u') {
            return Error("lone high surrogate");
          }
          pos += 2;
          const int lo = hex4();
          if (lo < 0xDC00 || lo > 0xDFFF) return Error("bad low surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) +
               (static_cast<std::uint32_t>(lo) - 0xDC00);
        } else if (cp >= 0xDC00 && cp < 0xE000) {
          return Error("lone low surrogate");
        }
        AppendUtf8(out, cp);
        break;
      }
      default:
        return Error("unknown escape");
    }
  }
}

inline Result<std::string> Parser::ParseNumberLexeme() {
  const std::size_t start = pos;
  Consume('-');
  if (!PeekDigit()) return Error("malformed number");
  if (Peek() == '0') {
    ++pos;
  } else {
    while (PeekDigit()) ++pos;
  }
  if (Consume('.')) {
    if (!PeekDigit()) return Error("malformed number fraction");
    while (PeekDigit()) ++pos;
  }
  if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
    ++pos;
    if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos;
    if (!PeekDigit()) return Error("malformed number exponent");
    while (PeekDigit()) ++pos;
  }
  return std::string(text.substr(start, pos - start));
}

inline Result<JsonValue> Parser::ParseValue(int depth) {
  if (depth > kMaxDepth) return Error("nesting too deep");
  SkipSpace();
  if (AtEnd()) return Error("unexpected end of input");
  const char c = Peek();
  if (c == '{') {
    ++pos;
    JsonValue object = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return object;
    while (true) {
      SkipSpace();
      DPC_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      DPC_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      if (object.Find(key) != nullptr) {
        return Error("duplicate object key \"" + key + "\"");
      }
      object.Set(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Error("expected ',' or '}'");
    }
  }
  if (c == '[') {
    ++pos;
    JsonValue array = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return array;
    while (true) {
      DPC_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      array.Append(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Error("expected ',' or ']'");
    }
  }
  if (c == '"') {
    DPC_ASSIGN_OR_RETURN(std::string s, ParseString());
    return JsonValue::String(std::move(s));
  }
  if (c == 't') {
    if (ConsumeWord("true")) return JsonValue::Bool(true);
    return Error("bad literal");
  }
  if (c == 'f') {
    if (ConsumeWord("false")) return JsonValue::Bool(false);
    return Error("bad literal");
  }
  if (c == 'n') {
    if (ConsumeWord("null")) return JsonValue::Null();
    return Error("bad literal");
  }
  if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
    DPC_ASSIGN_OR_RETURN(std::string lexeme, ParseNumberLexeme());
    return JsonValue::NumberFromLexeme(std::move(lexeme));
  }
  return Error("unexpected character");
}

/// JsonValue::Parse as it was before the cursor: the whole tree first.
inline Result<JsonValue> ParseJson(std::string_view text) {
  Parser parser{text};
  DPC_ASSIGN_OR_RETURN(JsonValue value, parser.ParseValue(0));
  parser.SkipSpace();
  if (!parser.AtEnd()) return parser.Error("trailing garbage");
  return value;
}

// --- The member dispatch over the tree ---------------------------------------

inline Status FieldError(std::string_view key, const std::string& what) {
  return Status::InvalidArgument("field \"" + std::string(key) + "\": " + what);
}

inline Result<double> AsDoubleField(std::string_view key, const JsonValue& v) {
  if (!v.is_number()) return FieldError(key, "expected a number");
  return std::strtod(v.lexeme().c_str(), nullptr);
}

inline Result<std::uint64_t> AsU64Field(std::string_view key,
                                        const JsonValue& v) {
  if (!v.is_number()) return FieldError(key, "expected an integer");
  const std::string& text = v.lexeme();
  if (!text.empty() && text[0] == '-') {
    return FieldError(key, "expected a non-negative integer, got " + text);
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return FieldError(key, "expected an unsigned integer, got " + text);
  }
  return value;
}

inline Result<bool> AsBoolField(std::string_view key, const JsonValue& v) {
  if (!v.is_bool()) return FieldError(key, "expected true/false");
  return v.AsBool();
}

inline Result<std::string> AsStringField(std::string_view key,
                                         const JsonValue& v) {
  if (!v.is_string()) return FieldError(key, "expected a string");
  return v.AsString();
}

inline Result<PointSet> ParsePoints(const JsonValue& v) {
  if (!v.is_array()) return FieldError("points", "expected an array of rows");
  std::size_t dim = 0;
  std::vector<double> flat;
  for (std::size_t i = 0; i < v.items().size(); ++i) {
    const JsonValue& row = v.items()[i];
    if (!row.is_array() || row.items().empty()) {
      return FieldError("points", "row " + std::to_string(i) +
                                      " is not a non-empty coordinate array");
    }
    if (dim == 0) {
      dim = row.items().size();
      flat.reserve(v.items().size() * dim);
    } else if (row.items().size() != dim) {
      return FieldError("points", "ragged rows (row " + std::to_string(i) +
                                      " has " +
                                      std::to_string(row.items().size()) +
                                      " coordinates, expected " +
                                      std::to_string(dim) + ")");
    }
    for (const JsonValue& coordinate : row.items()) {
      if (!coordinate.is_number()) {
        return FieldError("points", "row " + std::to_string(i) +
                                        " holds a non-number coordinate");
      }
      const double x = std::strtod(coordinate.lexeme().c_str(), nullptr);
      if (!std::isfinite(x)) {
        return FieldError("points", "row " + std::to_string(i) +
                                        " holds a non-finite coordinate");
      }
      flat.push_back(x);
    }
  }
  if (dim == 0) return FieldError("points", "empty dataset");
  return PointSet(dim, std::move(flat));
}

inline Status ParseTuning(const JsonValue& v, Tuning& tuning) {
  if (!v.is_object()) return FieldError("tuning", "expected an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "radius_budget_fraction") {
      DPC_ASSIGN_OR_RETURN(tuning.radius_budget_fraction,
                           AsDoubleField(key, value));
    } else if (key == "max_jl_dim") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      tuning.max_jl_dim = static_cast<std::size_t>(u);
    } else if (key == "refine_fraction") {
      DPC_ASSIGN_OR_RETURN(tuning.refine_fraction, AsDoubleField(key, value));
    } else if (key == "refine_one_cluster") {
      DPC_ASSIGN_OR_RETURN(tuning.refine_one_cluster, AsBoolField(key, value));
    } else if (key == "advanced_composition") {
      DPC_ASSIGN_OR_RETURN(tuning.advanced_composition,
                           AsBoolField(key, value));
    } else if (key == "coreset") {
      DPC_ASSIGN_OR_RETURN(tuning.coreset, AsBoolField(key, value));
    } else if (key == "coreset_min_points") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      tuning.coreset_min_points = static_cast<std::size_t>(u);
    } else if (key == "coreset_target_size") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      tuning.coreset_target_size = static_cast<std::size_t>(u);
    } else if (key == "stream_compact_fraction") {
      DPC_ASSIGN_OR_RETURN(tuning.stream_compact_fraction,
                           AsDoubleField(key, value));
    } else if (key == "coreset_staleness_fraction") {
      DPC_ASSIGN_OR_RETURN(tuning.coreset_staleness_fraction,
                           AsDoubleField(key, value));
    } else if (key == "inflation") {
      DPC_ASSIGN_OR_RETURN(tuning.inflation, AsDoubleField(key, value));
    } else if (key == "max_grid_centers") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      tuning.max_grid_centers = static_cast<std::size_t>(u);
    } else {
      return FieldError("tuning." + key, "unknown key");
    }
  }
  return Status::OK();
}

}  // namespace tree_decoder

/// ParseWireRequest as a tree parse followed by a member dispatch.
inline Result<WireRequest> TreeParseWireRequest(std::string_view body) {
  using namespace tree_decoder;
  DPC_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(body));
  if (!json.is_object()) {
    return Status::InvalidArgument("wire request must be a JSON object");
  }
  WireRequest wire;
  std::uint64_t levels = 0;
  double axis = 1.0;
  bool have_points = false;
  bool have_algorithm = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "tenant") {
      DPC_ASSIGN_OR_RETURN(wire.tenant, AsStringField(key, value));
      if (wire.tenant.empty()) return FieldError(key, "must be non-empty");
    } else if (key == "dataset") {
      DPC_ASSIGN_OR_RETURN(wire.dataset, AsStringField(key, value));
    } else if (key == "seed") {
      DPC_ASSIGN_OR_RETURN(wire.seed, AsU64Field(key, value));
    } else if (key == "snap") {
      DPC_ASSIGN_OR_RETURN(wire.snap, AsBoolField(key, value));
    } else if (key == "stream") {
      DPC_ASSIGN_OR_RETURN(wire.stream, AsBoolField(key, value));
    } else if (key == "algorithm") {
      DPC_ASSIGN_OR_RETURN(wire.request.algorithm, AsStringField(key, value));
      have_algorithm = true;
    } else if (key == "points") {
      DPC_ASSIGN_OR_RETURN(wire.request.data, ParsePoints(value));
      have_points = true;
    } else if (key == "levels") {
      DPC_ASSIGN_OR_RETURN(levels, AsU64Field(key, value));
    } else if (key == "axis") {
      DPC_ASSIGN_OR_RETURN(axis, AsDoubleField(key, value));
    } else if (key == "epsilon") {
      DPC_ASSIGN_OR_RETURN(wire.request.budget.epsilon,
                           AsDoubleField(key, value));
    } else if (key == "delta") {
      DPC_ASSIGN_OR_RETURN(wire.request.budget.delta,
                           AsDoubleField(key, value));
    } else if (key == "beta") {
      DPC_ASSIGN_OR_RETURN(wire.request.beta, AsDoubleField(key, value));
    } else if (key == "t") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      wire.request.t = static_cast<std::size_t>(u);
    } else if (key == "k") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      wire.request.k = static_cast<std::size_t>(u);
    } else if (key == "inlier_fraction") {
      DPC_ASSIGN_OR_RETURN(wire.request.inlier_fraction,
                           AsDoubleField(key, value));
    } else if (key == "alpha") {
      DPC_ASSIGN_OR_RETURN(wire.request.alpha, AsDoubleField(key, value));
    } else if (key == "block_size") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      wire.request.block_size = static_cast<std::size_t>(u);
    } else if (key == "num_threads") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      wire.request.num_threads = static_cast<std::size_t>(u);
    } else if (key == "label") {
      DPC_ASSIGN_OR_RETURN(wire.request.label, AsStringField(key, value));
    } else if (key == "tuning") {
      DPC_RETURN_IF_ERROR(ParseTuning(value, wire.request.tuning));
    } else {
      return FieldError(key, "unknown key");
    }
  }
  if (wire.dataset.empty()) {
    return Status::InvalidArgument("missing required field \"dataset\"");
  }
  if (!have_algorithm || wire.request.algorithm.empty()) {
    return Status::InvalidArgument("missing required field \"algorithm\"");
  }
  if (wire.stream) {
    if (have_points) {
      return FieldError("stream", "a stream solve must omit \"points\"");
    }
    if (levels > 0) {
      return FieldError("stream",
                        "a stream solve must omit \"levels\" (the stream "
                        "owns its domain)");
    }
    if (wire.snap) {
      return FieldError("stream", "a stream solve must omit \"snap\"");
    }
    return wire;
  }
  if (!have_points) {
    return Status::InvalidArgument("missing required field \"points\"");
  }
  if (levels > 0) {
    if (levels < 2) return FieldError("levels", "|X| must be >= 2");
    if (!(axis > 0.0) || !std::isfinite(axis)) {
      return FieldError("axis", "must be a positive finite length");
    }
    wire.request.domain = GridDomain(levels, wire.request.data.dim(), axis);
  } else if (wire.snap) {
    return FieldError("snap", "requires a domain (set \"levels\")");
  }
  return wire;
}

/// ParseStreamAppend (is_append) or ParseStreamExpire the same way.
inline Result<StreamRequest> TreeParseStream(std::string_view body,
                                             bool is_append) {
  using namespace tree_decoder;
  DPC_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(body));
  if (!json.is_object()) {
    return Status::InvalidArgument("stream request must be a JSON object");
  }
  StreamRequest stream;
  bool have_points = false;
  bool have_count = false;
  bool have_ids = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "dataset") {
      DPC_ASSIGN_OR_RETURN(stream.dataset, AsStringField(key, value));
    } else if (key == "tuning") {
      DPC_RETURN_IF_ERROR(ParseTuning(value, stream.tuning));
    } else if (is_append && key == "points") {
      DPC_ASSIGN_OR_RETURN(stream.points, ParsePoints(value));
      have_points = true;
    } else if (is_append && key == "levels") {
      DPC_ASSIGN_OR_RETURN(stream.levels, AsU64Field(key, value));
    } else if (is_append && key == "axis") {
      DPC_ASSIGN_OR_RETURN(stream.axis, AsDoubleField(key, value));
    } else if (is_append && key == "snap") {
      DPC_ASSIGN_OR_RETURN(stream.snap, AsBoolField(key, value));
    } else if (!is_append && key == "count") {
      DPC_ASSIGN_OR_RETURN(stream.expire_count, AsU64Field(key, value));
      have_count = true;
    } else if (!is_append && key == "ids") {
      if (!value.is_array()) {
        return FieldError(key, "expected an array of row ids");
      }
      for (const JsonValue& id : value.items()) {
        DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, id));
        if (u > 0xffffffffull) return FieldError(key, "row id out of range");
        stream.expire_ids.push_back(static_cast<std::uint32_t>(u));
      }
      have_ids = true;
    } else {
      return FieldError(key, "unknown key");
    }
  }
  if (stream.dataset.empty()) {
    return Status::InvalidArgument("missing required field \"dataset\"");
  }
  if (is_append) {
    if (!have_points) {
      return Status::InvalidArgument("missing required field \"points\"");
    }
    if (stream.levels > 0) {
      if (stream.levels < 2) return FieldError("levels", "|X| must be >= 2");
      if (!(stream.axis > 0.0) || !std::isfinite(stream.axis)) {
        return FieldError("axis", "must be a positive finite length");
      }
    } else if (stream.snap) {
      return FieldError("snap", "requires a domain (set \"levels\")");
    }
  } else {
    if (have_count == have_ids) {
      return Status::InvalidArgument(
          "expire takes exactly one of \"count\" or \"ids\"");
    }
    if (have_count && stream.expire_count == 0) {
      return FieldError("count", "must be >= 1");
    }
    if (have_ids && stream.expire_ids.empty()) {
      return FieldError("ids", "must be non-empty");
    }
  }
  return stream;
}

}  // namespace dpcluster::reference

#endif  // DPCLUSTER_TESTS_REFERENCE_TREE_DECODER_REFERENCE_H_
