// Typed interconnect messages.
//
// Every cluster-level protocol transaction is expressed as a sequence of
// Messages handed to the Fabric (net/fabric.hpp). A message carries a
// kind (the protocol action), endpoints, the block or page address it
// concerns, and a payload size in coherence blocks. Header and payload
// byte sizes are derived from the machine geometry (common/types.hpp),
// so the fabric can account traffic in bytes per class — the paper's
// headline metric — instead of opaque message counts.
//
// Accounting model (see ROADMAP.md "Architecture"): a message is charged
// whole (header + payload) to the traffic class of its kind —
//   data      block-sized payloads on the critical path or written back
//             (kData, kWriteback)
//   control   payload-free coherence protocol messages (kGetS, kGetX,
//             kUpgrade, kInval, kAck, kHint)
//   page-op   bulk page-operation transfers (kPageBulk)
//   recovery  fault-recovery traffic: NACKs, directory-rebuild queries,
//             and any message flagged `recovery` (retransmissions,
//             rebuild replies) — zero with the fault layer off
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace dsm {

// Protocol message kinds. The set mirrors the transactions of the
// three-level protocol: block requests and replies, invalidations and
// acknowledgements, off-critical-path writebacks and replacement hints,
// and bulk page copies for migration/replication.
enum class MsgKind : std::uint8_t {
  kGetS = 0,   // read request to home
  kGetX,       // read-exclusive request to home
  kUpgrade,    // exclusivity request for an already-shared block/page
  kInval,      // invalidation / recall / downgrade order from home
  kAck,        // payload-free acknowledgement or grant
  kData,       // block data reply (home or owner supplies)
  kWriteback,  // dirty block returning home
  kHint,       // clean-replacement notice to the home directory
  kPageBulk,   // bulk page copy (migration / replication)
  kNack,       // duplicate-transaction rejection from the home
  kRebuild,    // directory-rebuild census query (emergency re-homing)
  kCount,
};

const char* to_string(MsgKind k);

// Map a message kind onto its accounting class (common/stats.hpp).
constexpr TrafficClass traffic_class(MsgKind k) {
  switch (k) {
    case MsgKind::kData:
    case MsgKind::kWriteback:
      return TrafficClass::kData;
    case MsgKind::kPageBulk:
      return TrafficClass::kPageOp;
    case MsgKind::kNack:
    case MsgKind::kRebuild:
      return TrafficClass::kRecovery;
    default:
      return TrafficClass::kControl;
  }
}

// Fixed per-message header: address + kind + source/destination + flow
// control, modeled after the compact headers of SCI-era interconnects.
inline constexpr std::uint32_t kMsgHeaderBytes = 16;

struct Message {
  MsgKind kind = MsgKind::kGetS;
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  Addr addr = 0;                    // block number or page number
  std::uint32_t payload_blocks = 0; // data payload in coherence blocks
  // Fault-recovery traffic marker: set on retransmissions and on
  // directory-rebuild replies so their bytes land in the `recovery`
  // class regardless of kind. Never set with the fault layer off.
  bool recovery = false;

  std::uint32_t header_bytes() const { return kMsgHeaderBytes; }
  std::uint32_t payload_bytes() const {
    return payload_blocks * std::uint32_t(kBlockBytes);
  }
  std::uint32_t total_bytes() const {
    return header_bytes() + payload_bytes();
  }
  TrafficClass cls() const {
    return recovery ? TrafficClass::kRecovery : traffic_class(kind);
  }

  // --- constructors for the protocol's message shapes ---------------------
  // Payload-free coherence-control message (requests, invals, acks, hints).
  static Message control(MsgKind k, NodeId src, NodeId dst, Addr blk) {
    return Message{k, src, dst, blk, 0};
  }
  // One-block data reply.
  static Message data(NodeId src, NodeId dst, Addr blk) {
    return Message{MsgKind::kData, src, dst, blk, 1};
  }
  // Dirty block returning home.
  static Message writeback(NodeId src, NodeId dst, Addr blk) {
    return Message{MsgKind::kWriteback, src, dst, blk, 1};
  }
  // Bulk page copy of `blocks` coherence blocks.
  static Message page_bulk(NodeId src, NodeId dst, Addr page,
                           std::uint32_t blocks) {
    return Message{MsgKind::kPageBulk, src, dst, page, blocks};
  }
  // Duplicate-transaction rejection: the home has already served this
  // request; the in-flight (or re-issued) reply stands.
  static Message nack(NodeId src, NodeId dst, Addr blk) {
    return Message{MsgKind::kNack, src, dst, blk, 0};
  }
  // Directory-rebuild census query for `page` during emergency re-homing.
  static Message rebuild(NodeId src, NodeId dst, Addr page) {
    return Message{MsgKind::kRebuild, src, dst, page, 0};
  }
};

}  // namespace dsm
