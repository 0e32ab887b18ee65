// Fixed-capacity mbuf pool (DPDK rte_mempool stand-in), built on demand.
//
// The capacity is fixed at construction, but no descriptor is written until
// it is first handed out: slots [fresh_, capacity_) have never been used and
// their storage is untouched, so memory and set-up scale with the most mbufs
// ever in use at once, not with the capacity. The hand-out order is exactly
// that of a stack pre-filled with [capacity-1 ... 0] (index 0 on top): the
// recycled free list sits above the never-used tail [capacity-1 ... fresh_],
// so every pool_index and every alloc failure match the eager pool's.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "pktio/mbuf.hpp"

namespace nfv::pktio {

class MbufPool {
 public:
  explicit MbufPool(std::uint32_t capacity);

  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;

  /// Allocate one mbuf; returns nullptr when the pool is exhausted (the
  /// generator then counts a wire drop, as a NIC would under mbuf pressure).
  Mbuf* alloc();

  /// Allocate `n` mbufs into `out`, all-or-nothing (DPDK
  /// rte_pktmbuf_alloc_bulk semantics): returns `n` on success, 0 — with
  /// `out` untouched and one alloc failure counted — when fewer than `n`
  /// buffers are free.
  std::uint32_t alloc_burst(Mbuf** out, std::uint32_t n);

  /// Return an mbuf to the pool. The mbuf must have come from this pool and
  /// must not be referenced afterwards. Debug builds assert on double free
  /// (a release-build double free silently corrupts the free list: the slot
  /// gets handed out twice and two owners scribble over each other).
  void free(Mbuf* mbuf);

  /// Return `n` mbufs; equivalent to calling free() on each in order.
  void free_burst(Mbuf* const* mbufs, std::uint32_t n);

  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t in_use() const {
    return fresh_ - static_cast<std::uint32_t>(free_list_.size());
  }
  [[nodiscard]] std::uint64_t alloc_failures() const { return alloc_failures_; }

 private:
  struct FreeDeleter {
    void operator()(Mbuf* p) const { std::free(p); }
  };

  std::uint32_t capacity_;
  std::uint32_t fresh_ = 0;  ///< Slots [fresh_, capacity_) never handed out.
  /// Uninitialised, cache-line-aligned slot storage; a slot is written only
  /// when it is handed out.
  std::unique_ptr<Mbuf, FreeDeleter> slots_;
  std::vector<std::uint32_t> free_list_;  ///< Recycled indices, LIFO.
  std::uint64_t alloc_failures_ = 0;
#ifndef NDEBUG
  std::vector<bool> is_free_;  ///< Debug-only double-free detector, [0, fresh_).
#endif
};

}  // namespace nfv::pktio
