#include "pktio/mempool.hpp"

#include <cassert>
#include <new>

namespace nfv::pktio {

MbufPool::MbufPool(std::uint32_t capacity) : capacity_(capacity) {
  // sizeof(Mbuf) is one cache line, so the size is a multiple of the
  // alignment as aligned_alloc requires. Large requests are mapped lazily by
  // the allocator: pages are faulted in only as slots are first handed out.
  const std::size_t bytes = std::size_t{capacity} * sizeof(Mbuf);
  if (bytes != 0) {
    slots_.reset(static_cast<Mbuf*>(std::aligned_alloc(64, bytes)));
    if (!slots_) throw std::bad_alloc();
  }
}

Mbuf* MbufPool::alloc() {
  std::uint32_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
#ifndef NDEBUG
    is_free_[index] = false;
#endif
  } else if (fresh_ < capacity_) {
    index = fresh_++;
#ifndef NDEBUG
    is_free_.push_back(false);
#endif
  } else {
    ++alloc_failures_;
    return nullptr;
  }
  // Reset metadata but keep the identity field.
  Mbuf* mbuf = ::new (static_cast<void*>(slots_.get() + index)) Mbuf{};
  mbuf->pool_index = index;
  return mbuf;
}

std::uint32_t MbufPool::alloc_burst(Mbuf** out, std::uint32_t n) {
  if (capacity_ - in_use() < n) {
    ++alloc_failures_;
    return 0;
  }
  for (std::uint32_t i = 0; i < n; ++i) out[i] = alloc();
  return n;
}

void MbufPool::free(Mbuf* mbuf) {
  assert(mbuf != nullptr);
  assert(mbuf >= slots_.get() && mbuf < slots_.get() + fresh_ &&
         "mbuf does not belong to this pool");
  assert(mbuf == slots_.get() + mbuf->pool_index && "corrupted pool_index");
#ifndef NDEBUG
  assert(!is_free_[mbuf->pool_index] && "double free of mbuf");
  is_free_[mbuf->pool_index] = true;
#endif
  free_list_.push_back(mbuf->pool_index);
}

void MbufPool::free_burst(Mbuf* const* mbufs, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) free(mbufs[i]);
}

}  // namespace nfv::pktio
