// Global page bookkeeping: home assignment (first-touch), per-node
// mapping modes (CC-NUMA / S-COMA / read-only replica), and
// page-operation pending windows.
//
// This is *mechanism* state only. The per-page observation counters the
// decision engines consume (MigRep miss counters, R-NUMA refetch
// counters, accumulated remote bytes) live in the PolicyEngine's
// PageObs records (protocols/policy_engine.hpp), which absorb the
// policy-event stream the substrate emits.
//
// A single PageTable instance is global truth for the cluster; all
// protocol engines consult it. It stores *simulator* state — consulting
// it costs nothing; the timed cost of page-table/TLB activity is charged
// explicitly by the cluster system (soft traps, shootdowns).
//
// Machine width: per-node mapping modes are a 2-bit packed vector
// (ModeVec) — inline for the first 64 nodes, spilling to a lazily
// allocated extension block beyond that — and the replica set is a
// width-independent NodeSet (common/node_set.hpp), so the table scales
// to kMaxNodes = 1024 nodes without paying 1024 slots per page at
// paper scale.
#pragma once

#include <cstdint>
#include <memory_resource>

#include "common/addr_map.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/node_set.hpp"
#include "common/types.hpp"

namespace dsm {

inline constexpr std::uint32_t kMaxNodes = 1024;

enum class PageMode : std::uint8_t {
  kUnmapped = 0,  // no mapping at this node; next access soft-faults
  kCcNuma,        // mapped for block-grain remote caching (or local)
  kScoma,         // mapped to a local S-COMA page-cache frame
  kReplica,       // mapped to a local read-only replica
};

const char* to_string(PageMode m);

// Per-node page modes, two bits per node. The first 64 nodes live
// inline (zero-init = all kUnmapped, the historic array behavior);
// wider machines get an extension block attached by PageTable when the
// page record is created. operator[] returns a proxy so the ~30 call
// sites reading and assigning `pi.mode[n]` compile unchanged.
class ModeVec {
 public:
  static constexpr std::uint32_t kInlineNodes = 64;
  static constexpr unsigned kNodesPerWord = 32;

  PageMode get(NodeId n) const {
    return PageMode((word(n) >> shift(n)) & 3u);
  }
  void set(NodeId n, PageMode m) {
    std::uint64_t& w = word_ref(n);
    w = (w & ~(std::uint64_t(3) << shift(n))) |
        (std::uint64_t(m) << shift(n));
  }

  class Ref {
   public:
    Ref(ModeVec* v, NodeId n) : v_(v), n_(n) {}
    operator PageMode() const { return v_->get(n_); }
    Ref& operator=(PageMode m) {
      v_->set(n_, m);
      return *this;
    }

   private:
    ModeVec* v_;
    NodeId n_;
  };

  Ref operator[](NodeId n) { return Ref(this, n); }
  PageMode operator[](NodeId n) const { return get(n); }

  bool has_ext() const { return ext_ != nullptr; }
  void attach_ext(std::uint64_t* words) { ext_ = words; }

 private:
  std::uint64_t word(NodeId n) const {
    if (n < kInlineNodes) return inline_[n / kNodesPerWord];
    DSM_DEBUG_ASSERT(ext_ != nullptr, "mode vector not sized for this node");
    return ext_[(n - kInlineNodes) / kNodesPerWord];
  }
  std::uint64_t& word_ref(NodeId n) {
    if (n < kInlineNodes) return inline_[n / kNodesPerWord];
    DSM_ASSERT(ext_ != nullptr, "mode vector not sized for this node");
    return ext_[(n - kInlineNodes) / kNodesPerWord];
  }
  static unsigned shift(NodeId n) { return (n % kNodesPerWord) * 2; }

  std::uint64_t inline_[kInlineNodes / kNodesPerWord] = {0, 0};
  std::uint64_t* ext_ = nullptr;  // nodes >= kInlineNodes, PageTable-owned
};

struct PageInfo {
  NodeId home = kNoNode;    // bound by first touch in parallel phase
  bool replicated = false;  // read-only replicas exist
  NodeSet replicas;         // nodes holding replicas (excludes home)
  Cycle op_pending_until = 0;  // global page op (mig/rep/collapse) window

  ModeVec mode;  // all kUnmapped initially
};

class PageTable {
 public:
  PageTable(std::uint32_t nodes, const NodeSetLayout& layout)
      : nodes_(nodes), layout_(layout) {
    DSM_ASSERT(nodes_ <= kMaxNodes);
    DSM_ASSERT(nodes_ <= layout_.nodes);
    ext_words_ = nodes_ > ModeVec::kInlineNodes
                     ? (nodes_ - ModeVec::kInlineNodes +
                        ModeVec::kNodesPerWord - 1) /
                           ModeVec::kNodesPerWord
                     : 0;
  }

  // Flat-table lookup; the returned reference is stable for the page's
  // lifetime (pages are never erased), so the deeply re-entrant access
  // paths may hold it across nested inserts. On machines wider than the
  // inline mode vector the extension block is attached here, once, when
  // the page record first materializes.
  PageInfo& info(Addr page) {
    PageInfo& pi = pages_[page];
    if (ext_words_ != 0 && !pi.mode.has_ext()) {
      auto* words = static_cast<std::uint64_t*>(ext_pool_.allocate(
          ext_words_ * sizeof(std::uint64_t), alignof(std::uint64_t)));
      for (std::uint32_t i = 0; i < ext_words_; ++i) words[i] = 0;
      pi.mode.attach_ext(words);
    }
    return pi;
  }
  PageInfo* find(Addr page) { return pages_.find(page); }
  const PageInfo* find(Addr page) const { return pages_.find(page); }

  bool is_bound(Addr page) const {
    const PageInfo* pi = find(page);
    return pi && pi->home != kNoNode;
  }

  std::uint32_t nodes() const { return nodes_; }
  const NodeSetLayout& layout() const { return layout_; }

  // Iterate over all pages (counter resets, invariant checks, teardown).
  // Visits pages sorted by address — report rows and checker walks are
  // identical on every standard library.
  template <typename Fn>
  void for_each(Fn&& fn) {
    pages_.for_each(std::forward<Fn>(fn));
  }

  std::size_t size() const { return pages_.size(); }

 private:
  std::uint32_t nodes_;
  NodeSetLayout layout_;
  std::uint32_t ext_words_ = 0;
  // Mode-vector extension blocks; monotonic (pages are never erased),
  // bump-allocated from heap chunks that are released at teardown.
  std::pmr::monotonic_buffer_resource ext_pool_;
  AddrMap<PageInfo> pages_;
};

}  // namespace dsm
