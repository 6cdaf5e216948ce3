// The runtime's dependency map: the shared dependence rules
// (core/depend_rules.hpp) over refcounted task descriptors.
//
// Data layout (see DESIGN.md "Discovery data layout"): the access history
// is an open-addressing hash table — one flat power-of-two array of
// (address, entry*) slots probed linearly from a Fibonacci hash — and
// the AccessHistory payloads live in a slab arena (core/slab.hpp), so a
// rehash moves only 16-byte slots while entries (which hold task references
// and possibly-spilled small_vectors) never move. History lists use
// small_vector: the single writer / few readers of the common case stay
// inline in the arena block, wide inoutset generations spill.
#pragma once

#include <cstdint>

#include "core/depend_rules.hpp"
#include "core/metrics.hpp"
#include "core/slab.hpp"
#include "core/task.hpp"

namespace tdg {

/// Node handle of the runtime's rules: task descriptors. The producer
/// counts history references in the descriptor's plain hist_refs field and
/// takes one descriptor reference for all of them, so a history list entry
/// costs no atomic.
struct TaskRefs {
  using Node = Task*;
  /// History lists share one inline capacity so an opening inoutset
  /// generation can swap last_mod into gen_base without copying through
  /// the heap. 4 pointers covers the figure benches' telemetry (one
  /// writer, 1-3 readers between writes); generations of 5+ members and
  /// wide reader sets spill.
  using List = small_vector<Task*, 4>;
  static constexpr Task* kNone = nullptr;
  static void retain(Task* t) { t->retain_history(); }
  static void release(Task* t) { t->release_history(); }
};

/// Storage policy of the runtime's rules: the open-addressing address
/// table over slab-allocated histories, with a one-entry lookup cache.
class AddrTable {
 public:
  using Nodes = TaskRefs;
  using Entry = AccessHistory<TaskRefs>;

  AddrTable() : arena_(sizeof(Entry), /*nshards=*/1) {}
  ~AddrTable();
  AddrTable(const AddrTable&) = delete;
  AddrTable& operator=(const AddrTable&) = delete;

  /// Find the entry for `addr`, inserting an empty one if absent.
  Entry& lookup(const void* addr) {
    // One-entry cache: depend clauses touch the same address in bursts
    // (out/in/inout items of one clause, stencil neighbours across
    // consecutive submits). Entries never move on rehash, so only clear()
    // — which frees them — must invalidate the cache.
    if (addr == last_addr_ && last_entry_ != nullptr) return *last_entry_;
    return probe(addr);
  }

  /// The history of `addr`, or nullptr when it has none. Inspection only:
  /// unlike lookup() it inserts nothing and leaves the cache alone.
  const Entry* history(const void* addr) const;

  /// Drop the whole access history, releasing task references. The slot
  /// array and arena chunks are retained for the next episode (capacity is
  /// sticky; chunk memory returns to the OS only at destruction).
  void clear();

  /// Observability handles (registered by the owning runtime): probe-length
  /// histogram, rehash counter, live-entry and arena-footprint gauges.
  struct MetricIds {
    MetricsRegistry::Id probe_len;     ///< histogram discovery.probe_len
    MetricsRegistry::Id rehash;        ///< counter discovery.rehash
    MetricsRegistry::Id addr_entries;  ///< gauge discovery.addr_entries
    MetricsRegistry::Id arena_bytes;   ///< gauge discovery.arena_bytes
  };
  void bind_metrics(MetricsRegistry* reg, MetricIds ids) {
    mreg_ = reg;
    mids_ = ids;
  }
  /// The registry shard of the thread driving the table (the submitting
  /// thread's slot); set before each use.
  void set_metrics_shard(unsigned shard) { mshard_ = shard; }

  std::size_t tracked_addresses() const { return size_; }
  std::size_t table_capacity() const { return cap_; }
  /// History blocks currently handed out by the arena (leak checks:
  /// returns to zero after clear()).
  std::size_t live_entries() const { return arena_.live_blocks(); }
  /// Total discovery-layer footprint: arena chunks plus the slot array.
  std::size_t arena_bytes() const {
    return arena_.chunks_allocated() * TaskArena::kBlocksPerChunk *
               arena_.block_bytes() +
           cap_ * sizeof(Slot);
  }
  std::uint64_t rehash_count() const { return rehashes_; }

 private:
  /// One open-addressing slot. Empty iff entry == nullptr (the key is an
  /// arbitrary user address, so no address value can serve as a sentinel).
  struct Slot {
    const void* key;
    Entry* entry;
  };

  /// Home slot of `addr`: the top log2(cap_) bits of the whole address
  /// times 2^64/phi (Fibonacci hashing). Every address bit must reach the
  /// index because a depend address is an identity, not always an aligned
  /// pointer: the application emitters pass consecutive integers and
  /// fields striped 2^20 apart, which a hash that drops low bits or keeps
  /// neighbours in adjacent slots packs into long probe runs (DESIGN.md
  /// "Discovery data layout" has the measured lengths).
  std::size_t home(const void* addr) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(addr)) *
         0x9E3779B97F4A7C15ull) >>
        shift_);
  }
  /// The table walk behind a lookup-cache miss.
  Entry& probe(const void* addr);
  /// Double the slot array and reinsert the (key, entry) pairs. Entries
  /// themselves never move — the table only stores pointers into the
  /// arena — so no task reference is touched during a rehash.
  void grow_table();

  TaskArena arena_;  ///< history payload slab
  const void* last_addr_ = nullptr;
  Entry* last_entry_ = nullptr;
  Slot* slots_ = nullptr;
  std::size_t cap_ = 0;   ///< power of two (0 until the first insert)
  unsigned shift_ = 64;   ///< 64 - log2(cap_): home() keeps the top bits
  std::size_t size_ = 0;  ///< live entries
  std::uint64_t rehashes_ = 0;
  MetricsRegistry* mreg_ = nullptr;
  MetricIds mids_{};
  unsigned mshard_ = 0;
};

/// The runtime instantiation of the dependence rules; Runtime is the edge
/// sink passed to apply().
using DependencyMap = DependRules<AddrTable>;

}  // namespace tdg
