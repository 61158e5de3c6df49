#include "dpcluster/service/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "dpcluster/common/check.h"

namespace dpcluster {

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
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
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void AppendUtf8(std::string& out, std::uint32_t cp) {
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

/// Reads the value at the cursor into `out`, or only checks it when `out`
/// is null (JsonCursor::Skip).
bool ReadValue(JsonCursor& in, JsonValue* out) {
  const std::optional<JsonValue::Kind> kind = in.Next();
  if (!kind) return false;
  const auto keep = [&](JsonValue value) {
    if (out != nullptr) *out = std::move(value);
    return true;
  };
  switch (*kind) {
    case JsonValue::Kind::kNull:
      return in.ReadNull() && keep(JsonValue::Null());
    case JsonValue::Kind::kBool: {
      bool value = false;
      return in.ReadBool(value) && keep(JsonValue::Bool(value));
    }
    case JsonValue::Kind::kNumber: {
      std::string_view lexeme;
      if (!in.ReadNumber(lexeme)) return false;
      return out == nullptr ||
             keep(JsonValue::NumberFromLexeme(std::string(lexeme)));
    }
    case JsonValue::Kind::kString: {
      std::string value;
      return in.ReadString(value) && keep(JsonValue::String(std::move(value)));
    }
    case JsonValue::Kind::kArray:
      if (out != nullptr) *out = JsonValue::Array();
      return in.ReadArray([&](std::size_t) {
        JsonValue item;
        if (!ReadValue(in, out != nullptr ? &item : nullptr)) return false;
        if (out != nullptr) out->Append(std::move(item));
        return true;
      });
    case JsonValue::Kind::kObject:
      if (out != nullptr) *out = JsonValue::Object();
      return in.ReadObject([&](const std::string& key) {
        JsonValue value;
        if (!ReadValue(in, out != nullptr ? &value : nullptr)) return false;
        if (out != nullptr) out->Set(key, std::move(value));
        return true;
      });
  }
  return false;
}

}  // namespace

// --- JsonCursor -----------------------------------------------------------

bool JsonCursor::Fail(std::string_view what) {
  if (ok()) {
    status_ = Status::InvalidArgument("JSON parse error at byte " +
                                      std::to_string(pos_) + ": " +
                                      std::string(what));
  }
  return false;
}

bool JsonCursor::ReadWord(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
  pos_ += word.size();
  return true;
}

bool JsonCursor::ReadString(std::string& out) {
  if (!Consume('"')) return Fail("expected '\"'");
  out.clear();
  while (true) {
    if (pos_ >= text_.size()) return Fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) {
      return Fail("unescaped control character in string");
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) return Fail("unterminated escape");
    const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) return -1;
          int value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= h - '0';
            else if (h >= 'a' && h <= 'f') value |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') value |= h - 'A' + 10;
            else return -1;
          }
          pos_ += 4;
          return value;
        };
        const int hi = hex4();
        if (hi < 0) return Fail("bad \\u escape");
        std::uint32_t cp = static_cast<std::uint32_t>(hi);
        if (cp >= 0xD800 && cp < 0xDC00) {
          // Surrogate pair: a low surrogate escape must follow.
          if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            return Fail("lone high surrogate");
          }
          pos_ += 2;
          const int lo = hex4();
          if (lo < 0xDC00 || lo > 0xDFFF) return Fail("bad low surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) +
               (static_cast<std::uint32_t>(lo) - 0xDC00);
        } else if (cp >= 0xDC00 && cp < 0xE000) {
          return Fail("lone low surrogate");
        }
        AppendUtf8(out, cp);
        break;
      }
      default:
        return Fail("unknown escape");
    }
  }
}

bool JsonCursor::Skip() { return ReadValue(*this, nullptr); }

bool JsonCursor::Finish() {
  if (!ok()) return false;
  SkipSpace();
  return pos_ >= text_.size() || Fail("trailing garbage");
}

double JsonNumberToDouble(std::string_view lexeme) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return std::strtod(std::string(lexeme).c_str(), nullptr);
  }
  DPC_CHECK(ec == std::errc() && ptr == lexeme.data() + lexeme.size());
  return value;
}

// --- JsonValue ------------------------------------------------------------

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.text_ = JsonNumberLexeme(value);
  return v;
}

JsonValue JsonValue::Number(std::uint64_t value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.text_ = std::to_string(value);
  return v;
}

JsonValue JsonValue::Number(int value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.text_ = std::to_string(value);
  return v;
}

JsonValue JsonValue::NumberFromLexeme(std::string lexeme) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.text_ = std::move(lexeme);
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.text_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  DPC_CHECK(is_bool());
  return bool_;
}

double JsonValue::AsDouble() const {
  DPC_CHECK(is_number());
  return std::strtod(text_.c_str(), nullptr);
}

Result<std::uint64_t> JsonValue::AsU64() const {
  DPC_CHECK(is_number());
  if (!text_.empty() && text_[0] == '-') {
    return Status::InvalidArgument("expected a non-negative integer, got " +
                                   text_);
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text_.data(), text_.data() + text_.size(), value);
  if (ec != std::errc() || ptr != text_.data() + text_.size()) {
    return Status::InvalidArgument("expected an unsigned integer, got " +
                                   text_);
  }
  return value;
}

const std::string& JsonValue::AsString() const {
  DPC_CHECK(is_string());
  return text_;
}

const std::string& JsonValue::lexeme() const {
  DPC_CHECK(is_number());
  return text_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  DPC_CHECK(is_array());
  return items_;
}

void JsonValue::Append(JsonValue value) {
  DPC_CHECK(is_array());
  items_.push_back(std::move(value));
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  DPC_CHECK(is_object());
  return members_;
}

void JsonValue::Set(std::string key, JsonValue value) {
  DPC_CHECK(is_object());
  for (Member& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  DPC_CHECK(is_object());
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

void JsonValue::EncodeTo(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      out += text_;
      break;
    case Kind::kString:
      AppendEscaped(out, text_);
      break;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out.push_back(',');
        items_[i].EncodeTo(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out.push_back(',');
        AppendEscaped(out, members_[i].first);
        out.push_back(':');
        members_[i].second.EncodeTo(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::Encode() const {
  std::string out;
  EncodeTo(out);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonCursor cursor(text);
  JsonValue value;
  if (!ReadValue(cursor, &value) || !cursor.Finish()) return cursor.status();
  return value;
}

std::string JsonNumberLexeme(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  DPC_CHECK(ec == std::errc());
  return std::string(buf, ptr);
}

}  // namespace dpcluster
