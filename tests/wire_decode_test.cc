// The one-pass request decoders (ParseWireRequest, ParseStreamAppend,
// ParseStreamExpire) against the tree-based oracle in
// tests/reference/tree_decoder_reference.h: on every body — the golden
// request shapes and seeded mutations of them — both must return the same
// value or the same error message, byte for byte. JsonValue::Parse, now
// built on JsonCursor, is held to the oracle's tree parser on the same
// inputs. A second group pins the coordinate conversion to std::strtod bit
// for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dpcluster/data/registry.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "reference/tree_decoder_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

enum class Route { kSolve, kAppend, kExpire };

std::string Excerpt(std::string_view body) {
  return body.size() <= 160
             ? std::string(body)
             : std::string(body.substr(0, 80)) + " ... " +
                   std::string(body.substr(body.size() - 80));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return SameBits(x, y); });
}

std::string StreamFields(const StreamRequest& s) {
  std::string out = s.dataset + "|" + std::to_string(s.points.dim()) + "|" +
                    std::to_string(s.levels) + "|" + JsonNumberLexeme(s.axis) +
                    "|" + (s.snap ? "snap" : "nosnap") + "|" +
                    std::to_string(s.expire_count) + "|" +
                    TuningToJson(s.tuning).Encode() + "|ids";
  for (const std::uint32_t id : s.expire_ids) out += " " + std::to_string(id);
  return out;
}

/// Decodes `body` on `route` with both decoders and compares them: the same
/// error message, or the same value (solve requests through their encoding,
/// stream requests field by field with coordinates compared bitwise). Each
/// oracle error message is appended to `seen`, so a test can check that its
/// mutations reach the errors they aim at.
std::string seen;

void ExpectSameDecode(Route route, std::string_view body) {
  SCOPED_TRACE(Excerpt(body));
  if (route == Route::kSolve) {
    const auto got = ParseWireRequest(body);
    const auto want = reference::TreeParseWireRequest(body);
    ASSERT_EQ(got.ok(), want.ok())
        << "got: " << got.status().ToString()
        << "\nwant: " << want.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      seen += want.status().message() + "\n";
      return;
    }
    EXPECT_EQ(WireRequestToJson(*got).Encode(),
              WireRequestToJson(*want).Encode());
    EXPECT_TRUE(SameBits(got->request.data.Data(), want->request.data.Data()));
    return;
  }
  const bool append = route == Route::kAppend;
  const auto got = append ? ParseStreamAppend(body) : ParseStreamExpire(body);
  const auto want = reference::TreeParseStream(body, append);
  ASSERT_EQ(got.ok(), want.ok())
      << "got: " << got.status().ToString()
      << "\nwant: " << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    seen += want.status().message() + "\n";
    return;
  }
  EXPECT_EQ(StreamFields(*got), StreamFields(*want));
  EXPECT_TRUE(SameBits(got->points.Data(), want->points.Data()));
}

PointSet ScenarioPoints(std::uint64_t seed, std::size_t n, std::size_t dim) {
  Rng rng(seed);
  auto instance = GenerateScenario(rng, {.n = n, .dim = dim});
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).value().points;
}

std::string PointsJson(const PointSet& points) {
  JsonValue array = JsonValue::Array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    JsonValue row = JsonValue::Array();
    for (const double x : points[i]) row.Append(JsonValue::Number(x));
    array.Append(std::move(row));
  }
  return array.Encode();
}

struct Body {
  Route route;
  std::string text;
};

/// The golden request shapes (resident, bulk_1d, stream solve, append,
/// expire), small enough that every mutation stays cheap.
std::vector<Body> GoldenShapedBodies() {
  std::vector<Body> bodies;
  WireRequest resident;
  resident.tenant = "bench";
  resident.dataset = "resident-0";
  resident.seed = 11;
  resident.request.algorithm = "k_cluster";
  resident.request.data = ScenarioPoints(100, 48, 2);
  resident.request.domain = GridDomain(4096, 2, 1.0);
  resident.request.t = 24;
  resident.request.k = 4;
  resident.request.budget = {8.0, 1e-6};
  resident.request.tuning.inflation = 1.5;
  resident.request.tuning.max_grid_centers = 99999;
  resident.request.tuning.coreset = true;
  bodies.push_back({Route::kSolve, WireRequestToJson(resident).Encode()});

  WireRequest bulk;
  bulk.tenant = "bench";
  bulk.dataset = "bulk-0";
  bulk.seed = 21;
  bulk.request.algorithm = "threshold_release_1d";
  bulk.request.data = ScenarioPoints(200, 64, 1);
  bulk.request.domain = GridDomain(4096, 1, 1.0);
  bulk.request.budget = {2.0, 0.0};
  bodies.push_back({Route::kSolve, WireRequestToJson(bulk).Encode()});

  WireRequest stream_solve;
  stream_solve.tenant = "bench";
  stream_solve.dataset = "stream-0";
  stream_solve.seed = 34;
  stream_solve.stream = true;
  stream_solve.request.algorithm = "one_cluster";
  stream_solve.request.t = 96;
  bodies.push_back({Route::kSolve, WireRequestToJson(stream_solve).Encode()});

  // Hand-spaced, with escapes, as a client might send it.
  bodies.push_back(
      {Route::kSolve,
       "{ \"dataset\" : \"d\\u00e9\\n\" ,\n\t\"algorithm\":\"one_cluster\","
       " \"points\" : [ [ 0.5 , -1E+2 ] ,[1e-3,2.5e0 ] ], \"levels\": 16,"
       " \"axis\": 2, \"snap\": true, \"label\": \"a\\\\b\\\"c\\/\","
       " \"tuning\": {\"refine_one_cluster\": false, \"max_jl_dim\": 3} }\r\n"});

  bodies.push_back(
      {Route::kAppend,
       "{\"dataset\":\"stream-0\",\"points\":" +
           PointsJson(ScenarioPoints(300, 32, 2)) +
           ",\"levels\":4096,\"axis\":1,\"snap\":true,"
           "\"tuning\":{\"stream_compact_fraction\":0.125}}"});
  bodies.push_back({Route::kExpire, R"({"dataset":"stream-0","count":512})"});
  bodies.push_back(
      {Route::kExpire,
       R"({"dataset": "s", "ids": [3, 1, 2, 4294967295], "tuning": {}})"});
  return bodies;
}

/// Expects every one of `messages` among the errors seen since the last
/// call, then forgets them.
void ExpectSeen(std::initializer_list<std::string_view> messages) {
  for (const std::string_view message : messages) {
    EXPECT_NE(seen.find(message), std::string::npos) << message;
  }
  seen.clear();
}

/// JsonValue::Parse against the tree parser it replaced: the same error
/// message, or a tree that encodes to the same bytes.
void ExpectSameParse(std::string_view text) {
  SCOPED_TRACE(Excerpt(text));
  const auto got = JsonValue::Parse(text);
  const auto want = reference::tree_decoder::ParseJson(text);
  ASSERT_EQ(got.status().ToString(), want.status().ToString());
  if (want.ok()) EXPECT_EQ(got->Encode(), want->Encode());
}

void ExpectSameOnRoutes(const std::string& text) {
  ExpectSameParse(text);
  for (const Route route : {Route::kSolve, Route::kAppend, Route::kExpire}) {
    ExpectSameDecode(route, text);
  }
}

/// `text` with `insert` placed right after the first occurrence of `after`
/// (unchanged when `after` does not occur).
std::string InsertAfter(std::string text, std::string_view after,
                        std::string_view insert) {
  const std::size_t at = text.find(after);
  if (at != std::string::npos) text.insert(at + after.size(), insert);
  return text;
}

std::string ReplaceFirst(std::string text, std::string_view from,
                         std::string_view to) {
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(WireDecodeTest, GoldenShapesDecodeLikeTheTree) {
  for (const Body& body : GoldenShapedBodies()) {
    ExpectSameParse(body.text);
    ExpectSameDecode(body.route, body.text);
    ASSERT_TRUE(body.route != Route::kSolve || ParseWireRequest(body.text).ok())
        << body.text;
  }
}

TEST(WireDecodeTest, TruncationsAtEvery97thByte) {
  for (const Body& body : GoldenShapedBodies()) {
    for (std::size_t cut = 0; cut < body.text.size(); cut += 97) {
      ExpectSameOnRoutes(body.text.substr(0, cut));
    }
  }
  ExpectSeen({"unexpected end of input", "unterminated string"});
}

TEST(WireDecodeTest, RandomByteFlips) {
  static constexpr std::string_view kAlphabet =
      "{}[],:\" \\\t0123456789-+.eEtrufalsn\x01\x7f\xc3";
  Rng rng(2016);
  for (const Body& body : GoldenShapedBodies()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string text = body.text;
      const int flips = 1 + static_cast<int>(rng.NextUint64(3));
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = rng.NextUint64(text.size());
        text[at] = rng.NextUint64(4) == 0
                       ? static_cast<char>(rng.NextUint64(256))
                       : kAlphabet[rng.NextUint64(kAlphabet.size())];
      }
      ExpectSameOnRoutes(text);
    }
  }
  ExpectSeen({"unexpected character", "expected ',' or ']'",
              "expected ':'", "unknown key", "malformed number"});
}

TEST(WireDecodeTest, DuplicateKeysAnywhereAreSyntaxErrors) {
  for (const Body& body : GoldenShapedBodies()) {
    const std::string& t = body.text;
    ExpectSameOnRoutes(InsertAfter(t, "{", R"("dataset":"x",)"));
    ExpectSameOnRoutes(InsertAfter(t, "{", R"("zz":1,"zz":2,)"));
    // An unknown key first (a field error), its duplicate later.
    ExpectSameOnRoutes(InsertAfter(t, "{", R"("bogus":1,)"));
    ExpectSameOnRoutes(ReplaceFirst(InsertAfter(t, "{", R"("bogus":1,)"), "}",
                                    R"(,"bogus":2})"));
    ExpectSameOnRoutes(InsertAfter(t, "\"tuning\":{", R"("inflation":2,)"));
    ExpectSameOnRoutes(
        InsertAfter(t, "\"tuning\":{", R"("inflation":2,"inflation":3,)"));
    ExpectSameOnRoutes(
        InsertAfter(t, "\"tuning\": {", R"("coreset":true,"coreset":false,)"));
    // Inside an object nested in a row.
    ExpectSameOnRoutes(InsertAfter(t, "[[", R"({"a":1,"b":[],"a":2},)"));
    ExpectSameOnRoutes(InsertAfter(t, "[[", R"({"a":{"c":1,"c":2}},)"));
    ExpectSameOnRoutes(InsertAfter(t, "[[", R"({"\u0061":1,"a":2},)"));
  }
  ExpectSeen({"duplicate object key \"dataset\"", "duplicate object key \"zz\"",
              "duplicate object key \"bogus\"",
              "duplicate object key \"inflation\"",
              "duplicate object key \"coreset\"", "duplicate object key \"a\"",
              "duplicate object key \"c\"", "field \"bogus\": unknown key"});
}

TEST(WireDecodeTest, NestingPastTheDepthLimit) {
  for (const Body& body : GoldenShapedBodies()) {
    for (const int levels : {10, 60, 61, 62, 63, 64, 65, 80}) {
      const std::string deep =
          std::string(levels, '[') + "0" + std::string(levels, ']');
      ExpectSameOnRoutes(InsertAfter(body.text, "{", "\"label\":" + deep + ","));
      ExpectSameOnRoutes(InsertAfter(body.text, "[[", deep + ","));
      ExpectSameOnRoutes(
          InsertAfter(body.text, "\"tuning\":{", "\"x\":" + deep + ","));
      ExpectSameOnRoutes(deep);
      ExpectSameOnRoutes(std::string(levels, '[') + std::string(levels, ']'));
    }
  }
  ExpectSeen({"nesting too deep", "field \"label\": expected a string",
              "row 0 holds a non-number coordinate",
              "field \"tuning.x\": unknown key", "must be a JSON object"});
}

TEST(WireDecodeTest, RowShapesAndCoordinates) {
  for (const Body& body : GoldenShapedBodies()) {
    const std::string& t = body.text;
    for (const char* row :
         {"[]", "[[]]", "0", "\"row\"", "{}", "null", "[0,0,0]", "[0]",
          "[\"x\",0]", "[0,\"x\"]", "[true,0]", "[null,1e999]", "[1e999,null]",
          "[{},1]", "[[1],2]", "[1e999,0,0]", "[-0,1e-400]", "[1E400,2]"}) {
      ExpectSameOnRoutes(InsertAfter(t, "\"points\":[", std::string(row) + ","));
      ExpectSameOnRoutes(ReplaceFirst(t, "]]", "]," + std::string(row) + "]"));
      ExpectSameOnRoutes(ReplaceFirst(t, "\"points\":[", "\"points\":[" +
                                                            std::string(row) +
                                                            "],\"x\":["));
    }
    for (const char* points :
         {"[]", "{}", "7", "\"p\"", "[[]]", "[[],[]]", "[[0],[]]", "[[1],[1,2]]",
          "[[1,2],[1]]", "[0]"}) {
      ExpectSameOnRoutes(
          InsertAfter(t, "{", "\"points\":" + std::string(points) + ","));
    }
  }
  // Bodies that are not objects, and the scalar fields' wrong types.
  for (const char* text :
       {"[]", "\"x\"", "1", "null", "[[0]]", "  ", "", "{}",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"t":-1})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"t":1.5})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"seed":18446744073709551616})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"tenant":""})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"tenant":7})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"snap":1})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"levels":1})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"levels":8,"axis":0})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"tuning":[]})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"tuning":{"bogus":1}})",
        R"({"dataset":"d","algorithm":"a","points":[[1]],"tuning":{"coreset":1}})",
        R"({"dataset":"d","algorithm":"","points":[[1]]})",
        R"({"dataset":"d","algorithm":"a","stream":true})",
        R"({"dataset":"d","algorithm":"a","stream":true,"points":[[1]]})",
        R"({"dataset":"s","ids":[1,"2"]})", R"({"dataset":"s","ids":{}})",
        R"({"dataset":"s","ids":[-1]})", R"({"dataset":"s","ids":[4294967296]})",
        R"({"dataset":"s","count":0})", R"({"dataset":"s","ids":[]})",
        R"({"dataset":"s","count":1,"ids":[1]})",
        R"({"dataset":"s","points":[[1]],"levels":3,"snap":true})",
        R"({"dataset":"s","points":[[1]],"snap":true})"}) {
    ExpectSameOnRoutes(text);
  }
  ExpectSeen({"is not a non-empty coordinate array", "ragged rows",
              "non-number coordinate", "non-finite coordinate",
              "empty dataset", "expected an array of rows",
              "row id out of range", "got -1", "must be non-empty",
              "expected an object", "expected true/false"});
}

TEST(WireDecodeTest, FieldErrorThenLaterSyntaxError) {
  for (const Body& body : GoldenShapedBodies()) {
    const std::string field_error =
        InsertAfter(body.text, "{", R"("bogus":1,)");
    ExpectSameOnRoutes(field_error);
    ExpectSameOnRoutes(field_error + "x");  // trailing garbage
    ExpectSameOnRoutes(field_error.substr(0, field_error.size() - 1));
    ExpectSameOnRoutes(ReplaceFirst(field_error, "]]", "]]]"));
    ExpectSameOnRoutes(ReplaceFirst(field_error, ":", "::"));
    ExpectSameOnRoutes(InsertAfter(field_error, "[[", "tru,"));
    ExpectSameOnRoutes(InsertAfter(field_error, "[[", "01,"));
    ExpectSameOnRoutes(InsertAfter(field_error, "[[", "\"\\q\","));
    // A row error, then a syntax error later in the points.
    const std::string row_error =
        InsertAfter(body.text, "\"points\":[", "[\"x\"],");
    ExpectSameOnRoutes(row_error);
    ExpectSameOnRoutes(ReplaceFirst(row_error, "]]", "],]]"));
    ExpectSameOnRoutes(ReplaceFirst(row_error, "]]", "]] , }"));
  }
  ExpectSeen({"trailing garbage", "field \"bogus\": unknown key",
              "bad literal", "unknown escape", "row 0 holds a non-number"});
}

// --- Coordinate conversion -------------------------------------------------

std::string RandomDigits(Rng& rng, std::size_t n, bool leading_nonzero) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t low = (i == 0 && leading_nonzero) ? 1 : 0;
    out.push_back(static_cast<char>('0' + low + rng.NextUint64(10 - low)));
  }
  return out;
}

/// Seeded JSON number lexemes: shortest round-trip and 17-significant-digit
/// forms of random doubles, random mantissas with e/E and signed exponents
/// reaching past both ends of the double range, long integers, and the
/// underflow / overflow edges.
std::vector<std::string> Lexemes() {
  std::vector<std::string> out = {
      "0", "-0", "0.0", "-0.0", "1", "-1", "4.9e-324", "-4.9e-324",
      "2.4703282292062328e-324", "2.4703282292062327e-324",
      "2.4703282292062327e-324", "1e-400", "-1e-400", "1e999", "-1e999",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "2.225073858507201e-308", "1E+308",
      "1e-323", "123456789012345678901234567890",
      "-999999999999999999999999999999", "9007199254740993", "0.1", "1e23",
      "8.988465674311579e307", "5e-324"};
  Rng rng(1604);
  char buf[64];
  for (int i = 0; i < 30000; ++i) {
    double x;
    const std::uint64_t bits = rng();
    std::memcpy(&x, &bits, sizeof x);
    if (!std::isfinite(x)) continue;
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
    out.emplace_back(buf, end);
    std::snprintf(buf, sizeof buf, "%.17g", x);
    out.emplace_back(buf);
  }
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.NextDouble();
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, u);
    out.emplace_back(buf, end);
  }
  for (int i = 0; i < 40000; ++i) {
    std::string s = rng.NextUint64(2) ? "-" : "";
    const std::size_t int_digits = 1 + rng.NextUint64(20);
    s += int_digits == 1 ? RandomDigits(rng, 1, false)
                         : RandomDigits(rng, int_digits, true);
    if (rng.NextUint64(2)) s += "." + RandomDigits(rng, 1 + rng.NextUint64(25), false);
    if (rng.NextUint64(4) != 0) {
      s += rng.NextUint64(2) ? "e" : "E";
      const std::uint64_t sign = rng.NextUint64(3);
      s += sign == 0 ? "" : sign == 1 ? "+" : "-";
      s += std::to_string(rng.NextUint64(360));
    }
    out.push_back(std::move(s));
  }
  for (int i = 0; i < 10000; ++i) {
    out.push_back(RandomDigits(rng, 30, true));
  }
  return out;
}

TEST(WireDecodeTest, CoordinatesConvertLikeStrtod) {
  const std::vector<std::string> lexemes = Lexemes();
  ASSERT_GE(lexemes.size(), 100000u);
  std::string body = R"({"dataset":"d","algorithm":"a","points":[)";
  std::vector<double> finite;
  std::size_t mismatches = 0;
  for (const std::string& lexeme : lexemes) {
    const double want = std::strtod(lexeme.c_str(), nullptr);
    const double got = JsonNumberToDouble(lexeme);
    if (!SameBits(got, want) && ++mismatches <= 10) {
      ADD_FAILURE() << lexeme << ": got " << got << ", strtod " << want;
    }
    if (std::isfinite(want)) {
      body += (finite.empty() ? "[" : ",[") + lexeme + "]";
      finite.push_back(want);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  body += "]}";
  // The same lexemes through the request decoder, as one 1-d body.
  ASSERT_OK_AND_ASSIGN(const WireRequest wire, ParseWireRequest(body));
  EXPECT_TRUE(SameBits(wire.request.data.Data(), finite));
}

TEST(WireDecodeTest, OverflowIsRefusedAndUnderflowIsZero) {
  const std::string head = R"({"dataset":"d","algorithm":"a","points":[[0.5],)";
  const auto overflow = ParseWireRequest(head + "[1e999]]}");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().message(),
            "field \"points\": row 1 holds a non-finite coordinate");
  ExpectSameDecode(Route::kSolve, head + "[1e999]]}");
  ASSERT_OK_AND_ASSIGN(const WireRequest underflow,
                       ParseWireRequest(head + "[1e-400]]}"));
  ASSERT_EQ(underflow.request.data.size(), 2u);
  EXPECT_TRUE(SameBits(underflow.request.data[1][0], 0.0));
  ASSERT_OK_AND_ASSIGN(const WireRequest negative,
                       ParseWireRequest(head + "[-1e-400]]}"));
  EXPECT_TRUE(SameBits(negative.request.data[1][0], -0.0));
}

}  // namespace
}  // namespace dpcluster
