// Peak memory of the request decoders on hostile bodies. A client may send
// up to ServiceOptions::max_body_bytes (64 MB by default), so what a decode
// allocates per body byte bounds what one request can make the daemon hold.
// This binary counts every operator new / delete (malloc_usable_size bytes)
// and checks that decoding a body adds at most 4 bytes per body byte at its
// peak, result included: one-coordinate rows ("[0]", 8 doubles per 4 body
// bytes) and empty rows ("[]", refused at row 0) are the densest shapes a
// decode must convert or check.

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>

#include "dpcluster/service/protocol.h"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t bytes = malloc_usable_size(p);
  const std::size_t live = g_live.fetch_add(bytes) + bytes;
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace dpcluster {
namespace {

/// `head` followed by `row` repeated until the body holds at least
/// `min_bytes`, closed as a points array and an object.
std::string RowsBody(std::string_view head, std::string_view row,
                     std::size_t min_bytes) {
  std::string body(head);
  body.reserve(min_bytes + row.size() + 8);
  body += "\"points\":[";
  while (body.size() < min_bytes) {
    body += row;
    body += ',';
  }
  body.back() = ']';
  body += '}';
  return body;
}

/// Bytes allocated at the peak of `decode()` beyond what was live before it
/// (the decoded result, alive at return, is part of the peak).
template <typename F>
std::size_t PeakExtraBytes(F&& decode) {
  const std::size_t base = g_live.load();
  g_peak.store(base);
  decode();
  return g_peak.load() - base;
}

constexpr const char* kSolveHead =
    R"({"dataset":"d","algorithm":"threshold_release_1d",)";
constexpr const char* kAppendHead = R"({"dataset":"s",)";

TEST(DecodeMemoryTest, OneCoordinateRows) {
  for (const char* head : {kSolveHead, kAppendHead}) {
    const std::string body = RowsBody(head, "[0]", 8u << 20);
    const auto rows =
        static_cast<std::size_t>(std::count(body.begin(), body.end(), '0'));
    std::size_t decoded = 0;
    const std::size_t peak = PeakExtraBytes([&] {
      if (head == kSolveHead) {
        const auto wire = ParseWireRequest(body);
        ASSERT_TRUE(wire.ok()) << wire.status().ToString();
        decoded = wire->request.data.size();
      } else {
        const auto append = ParseStreamAppend(body);
        ASSERT_TRUE(append.ok()) << append.status().ToString();
        decoded = append->points.size();
      }
    });
    EXPECT_EQ(decoded, rows);
    EXPECT_LE(peak, 4 * body.size())
        << head << ": " << static_cast<double>(peak) / body.size()
        << " bytes per body byte";
  }
}

TEST(DecodeMemoryTest, EmptyRows) {
  for (const char* head : {kSolveHead, kAppendHead}) {
    const std::string body = RowsBody(head, "[]", 6u << 20);
    const std::size_t peak = PeakExtraBytes([&] {
      const Status status = head == kSolveHead
                                ? ParseWireRequest(body).status()
                                : ParseStreamAppend(body).status();
      EXPECT_EQ(status.message(),
                "field \"points\": row 0 is not a non-empty coordinate array");
    });
    EXPECT_LE(peak, 4 * body.size())
        << head << ": " << static_cast<double>(peak) / body.size()
        << " bytes per body byte";
  }
}

}  // namespace
}  // namespace dpcluster
