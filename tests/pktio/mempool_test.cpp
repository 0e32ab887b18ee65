#include "pktio/mempool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NFV_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NFV_TEST_SANITIZED 1
#endif
#endif

namespace nfv::pktio {
namespace {

TEST(MbufPool, AllocUntilExhausted) {
  MbufPool pool(4);
  std::vector<Mbuf*> bufs;
  for (int i = 0; i < 4; ++i) {
    Mbuf* m = pool.alloc();
    ASSERT_NE(m, nullptr);
    bufs.push_back(m);
  }
  EXPECT_EQ(pool.in_use(), 4u);
  EXPECT_EQ(pool.alloc(), nullptr);
  EXPECT_EQ(pool.alloc_failures(), 1u);
  for (Mbuf* m : bufs) pool.free(m);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(MbufPool, FreedBuffersAreReusable) {
  MbufPool pool(1);
  Mbuf* a = pool.alloc();
  ASSERT_NE(a, nullptr);
  pool.free(a);
  Mbuf* b = pool.alloc();
  EXPECT_EQ(a, b);
}

TEST(MbufPool, AllocResetsMetadata) {
  MbufPool pool(2);
  Mbuf* a = pool.alloc();
  a->flow_id = 7;
  a->chain_pos = 3;
  a->ecn_marked = true;
  const auto index = a->pool_index;
  pool.free(a);
  Mbuf* b = pool.alloc();
  while (b->pool_index != index) {  // find the same slot again
    b = pool.alloc();
    ASSERT_NE(b, nullptr);
  }
  EXPECT_EQ(b->flow_id, 0u);
  EXPECT_EQ(b->chain_pos, 0u);
  EXPECT_FALSE(b->ecn_marked);
  EXPECT_EQ(b->pool_index, index);
}

TEST(MbufPool, DistinctBuffers) {
  MbufPool pool(64);
  std::set<Mbuf*> seen;
  for (int i = 0; i < 64; ++i) seen.insert(pool.alloc());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(seen.count(nullptr), 0u);
}

TEST(MbufPool, CapacityReported) {
  MbufPool pool(128);
  EXPECT_EQ(pool.capacity(), 128u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(MbufPool, AllocBurstAllOrNothing) {
  MbufPool pool(8);
  Mbuf* bufs[8] = {};
  EXPECT_EQ(pool.alloc_burst(bufs, 8), 8u);
  EXPECT_EQ(pool.in_use(), 8u);
  std::set<Mbuf*> seen(bufs, bufs + 8);
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen.count(nullptr), 0u);
  // Pool exhausted: a burst of any size fails whole, counting one failure.
  Mbuf* more[2] = {};
  EXPECT_EQ(pool.alloc_burst(more, 2), 0u);
  EXPECT_EQ(more[0], nullptr);
  EXPECT_EQ(pool.alloc_failures(), 1u);
  pool.free_burst(bufs, 8);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(MbufPool, AllocBurstPartialPoolRefusesOversizedBurst) {
  MbufPool pool(4);
  Mbuf* a = pool.alloc();
  ASSERT_NE(a, nullptr);
  Mbuf* bufs[4] = {};
  // 3 free < 4 requested: all-or-nothing means nothing.
  EXPECT_EQ(pool.alloc_burst(bufs, 4), 0u);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.alloc_burst(bufs, 3), 3u);
  EXPECT_EQ(pool.in_use(), 4u);
  pool.free(a);
  pool.free_burst(bufs, 3);
}

TEST(MbufPool, BurstAndSingleAllocInterleave) {
  MbufPool pool(16);
  Mbuf* burst[4] = {};
  ASSERT_EQ(pool.alloc_burst(burst, 4), 4u);
  Mbuf* single = pool.alloc();
  ASSERT_NE(single, nullptr);
  pool.free_burst(burst, 4);
  EXPECT_EQ(pool.in_use(), 1u);
  Mbuf* again[5] = {};
  EXPECT_EQ(pool.alloc_burst(again, 5), 5u);
  pool.free(single);
  pool.free_burst(again, 5);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(MbufPool, AllocBurstResetsMetadata) {
  MbufPool pool(2);
  Mbuf* m = pool.alloc();
  m->flow_id = 9;
  m->ecn_marked = true;
  pool.free(m);
  Mbuf* bufs[2] = {};
  ASSERT_EQ(pool.alloc_burst(bufs, 2), 2u);
  for (Mbuf* b : bufs) {
    EXPECT_EQ(b->flow_id, 0u);
    EXPECT_FALSE(b->ecn_marked);
  }
  pool.free_burst(bufs, 2);
}

#ifndef NDEBUG
using MbufPoolDeathTest = ::testing::Test;

TEST(MbufPoolDeathTest, DoubleFreeAssertsInDebugBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MbufPool pool(2);
  Mbuf* m = pool.alloc();
  pool.free(m);
  EXPECT_DEATH(pool.free(m), "double free");
}

TEST(MbufPoolDeathTest, BurstDoubleFreeAssertsInDebugBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MbufPool pool(4);
  Mbuf* bufs[2] = {};
  ASSERT_EQ(pool.alloc_burst(bufs, 2), 2u);
  Mbuf* dup[2] = {bufs[0], bufs[0]};  // same mbuf twice in one burst
  EXPECT_DEATH(pool.free_burst(dup, 2), "double free");
}
#endif

TEST(MbufPool, ChurnDoesNotLeak) {
  MbufPool pool(8);
  for (int round = 0; round < 1000; ++round) {
    Mbuf* m = pool.alloc();
    ASSERT_NE(m, nullptr);
    pool.free(m);
  }
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.alloc_failures(), 0u);
}

/// The pool as it would be if every slot were pre-filled: an explicit stack
/// holding [capacity-1 ... 0], index 0 on top. The on-demand pool must hand
/// out exactly the indices this stack does, op for op.
class EagerReferencePool {
 public:
  explicit EagerReferencePool(std::uint32_t capacity) : capacity_(capacity) {
    for (std::uint32_t i = capacity; i-- > 0;) stack_.push_back(i);
  }
  /// Next index, or -1 (and a counted failure) when empty.
  std::int64_t alloc() {
    if (stack_.empty()) {
      ++failures_;
      return -1;
    }
    const std::uint32_t index = stack_.back();
    stack_.pop_back();
    return index;
  }
  /// All-or-nothing burst; empty result (one failure) when short.
  std::vector<std::uint32_t> alloc_burst(std::uint32_t n) {
    if (stack_.size() < n) {
      ++failures_;
      return {};
    }
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(static_cast<std::uint32_t>(alloc()));
    return out;
  }
  void free(std::uint32_t index) { stack_.push_back(index); }
  [[nodiscard]] std::uint32_t in_use() const {
    return capacity_ - static_cast<std::uint32_t>(stack_.size());
  }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }

 private:
  std::uint32_t capacity_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t failures_ = 0;
};

// Seeded op mix of single and burst allocs and frees, including exhaustion
// and refused bursts: every handed-out pool_index, in_use() and the failure
// count match the eager reference at every step.
TEST(MbufPool, OnDemandMatchesEagerStackDifferential) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2024ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    constexpr std::uint32_t kCapacity = 48;
    MbufPool pool(kCapacity);
    EagerReferencePool ref(kCapacity);
    std::mt19937_64 rng(seed);
    std::vector<Mbuf*> held;
    const auto check_fresh = [](const Mbuf* m) {
      EXPECT_EQ(m->flow_id, 0u);
      EXPECT_EQ(m->chain_pos, 0u);
      EXPECT_FALSE(m->ecn_marked);
      EXPECT_EQ(m->nf_scratch, 0u);
    };
    for (int step = 0; step < 20'000; ++step) {
      switch (rng() % 4) {
        case 0: {  // single alloc
          Mbuf* m = pool.alloc();
          const std::int64_t want = ref.alloc();
          if (want < 0) {
            ASSERT_EQ(m, nullptr);
          } else {
            ASSERT_NE(m, nullptr);
            ASSERT_EQ(m->pool_index, want);
            check_fresh(m);
            m->flow_id = 0xdead;  // dirty it; the next owner must not see this
            m->nf_scratch = 1;
            held.push_back(m);
          }
          break;
        }
        case 1: {  // burst alloc, sometimes larger than what is free
          const auto n = static_cast<std::uint32_t>(1 + rng() % 12);
          std::vector<Mbuf*> out(n, nullptr);
          const std::uint32_t got = pool.alloc_burst(out.data(), n);
          const std::vector<std::uint32_t> want = ref.alloc_burst(n);
          ASSERT_EQ(got, want.size());
          for (std::uint32_t i = 0; i < got; ++i) {
            ASSERT_EQ(out[i]->pool_index, want[i]);
            check_fresh(out[i]);
            out[i]->chain_pos = 9;
            held.push_back(out[i]);
          }
          if (got == 0) {
            ASSERT_EQ(out[0], nullptr);
          }
          break;
        }
        case 2: {  // free one random held mbuf
          if (held.empty()) break;
          const std::size_t at = rng() % held.size();
          Mbuf* m = held[at];
          held[at] = held.back();
          held.pop_back();
          ref.free(m->pool_index);
          pool.free(m);
          break;
        }
        case 3: {  // free a random-length burst from the back
          const std::size_t n = held.empty() ? 0 : rng() % (held.size() + 1);
          std::vector<Mbuf*> burst(held.end() - static_cast<std::ptrdiff_t>(n),
                                   held.end());
          held.resize(held.size() - n);
          for (const Mbuf* m : burst) ref.free(m->pool_index);
          pool.free_burst(burst.data(), static_cast<std::uint32_t>(n));
          break;
        }
      }
      ASSERT_EQ(pool.in_use(), ref.in_use()) << "step " << step;
      ASSERT_EQ(pool.alloc_failures(), ref.failures()) << "step " << step;
    }
    EXPECT_GT(ref.failures(), 0u);  // the mix reached exhaustion
    pool.free_burst(held.data(), static_cast<std::uint32_t>(held.size()));
    EXPECT_EQ(pool.in_use(), 0u);
  }
}

/// Resident set size of this process in kB (VmRSS), or -1 when unreadable.
long resident_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

// Construction pays for no descriptor: a 4M-slot pool (256 MB of slots)
// must not grow the resident set by more than a few pages of bookkeeping.
TEST(MbufPool, ConstructionTouchesNoSlotStorage) {
#ifdef NFV_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators account memory differently";
#endif
  const long before = resident_kb();
  if (before < 0) {
    GTEST_SKIP() << "/proc/self/status unreadable";
  }
  MbufPool pool(1u << 22);
  const long after = resident_kb();
  EXPECT_LT(after - before, 8 * 1024) << "kB resident growth";
  // Handing out a few slots faults in only their pages.
  Mbuf* bufs[32] = {};
  ASSERT_EQ(pool.alloc_burst(bufs, 32), 32u);
  EXPECT_LT(resident_kb() - before, 8 * 1024);
  pool.free_burst(bufs, 32);
}

}  // namespace
}  // namespace nfv::pktio
