// Packet buffers and the shared memory pool.
//
// Mirrors the DPDK mbuf/mempool design OpenNetVM builds on: packets live in
// one pool shared by the whole platform and only descriptors (pointers) move
// between NIC queues and NF rings — zero-copy (§3.1). The metadata fields
// carry exactly what NFVnice needs: flow/chain identity for backpressure,
// timestamps for queuing-time thresholds and latency accounting, and ECN
// bits for the congestion-marking path.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "pktio/flow_key.hpp"

namespace nfv::pktio {

/// Identifies the per-packet processing-cost class when an NF has variable
/// per-packet costs (§4.3.1 uses three classes: 120/270/550 cycles).
using CostClass = std::uint8_t;

struct Mbuf {
  std::uint32_t pool_index = 0;   ///< Slot in the owning pool; never changes.
  std::uint32_t flow_id = 0;      ///< Dense id assigned by the flow table.
  std::uint32_t chain_id = 0;     ///< Service chain this packet traverses.
  std::uint16_t chain_pos = 0;    ///< Index of the next NF in the chain.
  std::uint16_t size_bytes = 64;  ///< Wire size; throughput in bps uses this.

  Cycles arrival_time = 0;   ///< When the packet entered the platform.
  Cycles enqueue_time = 0;   ///< When it was enqueued to the current ring.

  bool is_tcp = false;
  bool ecn_capable = false;
  bool ecn_marked = false;
  CostClass cost_class = 0;
  /// NUMA node whose memory currently holds the packet data (buffers are
  /// written where the producer ran; a consumer on another socket pays a
  /// remote-access penalty on first touch).
  std::int8_t numa_node = 0;
  /// Scratch byte an NF's cost probe may leave for its packet handler
  /// (e.g. a firewall verdict computed at burst-assembly time). Valid only
  /// between one NF's probe and its handler for the same packet.
  std::uint8_t nf_scratch = 0;

  std::uint64_t seq = 0;  ///< Monotone per-flow sequence, for TCP accounting.

  /// Parsed 5-tuple "headers". Real NFs (firewall, NAT, DPI, ...) read and
  /// may rewrite these, exactly as they would rewrite packet headers.
  FlowKey key;
};

// One descriptor per cache line: the pool's slots are 64-byte aligned, so a
// packet's metadata never straddles two lines.
static_assert(sizeof(Mbuf) == 64, "Mbuf must fill exactly one cache line");

}  // namespace nfv::pktio
