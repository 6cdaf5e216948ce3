#include "core/depend.hpp"

#include <bit>

namespace tdg {

AddrTable::~AddrTable() {
  clear();
  delete[] slots_;
}

void AddrTable::grow_table() {
  const std::size_t new_cap = cap_ == 0 ? 64 : cap_ * 2;
  Slot* fresh = new Slot[new_cap]();  // entry == nullptr marks empty
  const std::size_t mask = new_cap - 1;
  shift_ = static_cast<unsigned>(std::countl_zero(mask));
  for (std::size_t i = 0; i < cap_; ++i) {
    if (slots_[i].entry == nullptr) continue;
    std::size_t j = home(slots_[i].key);
    while (fresh[j].entry != nullptr) j = (j + 1) & mask;
    fresh[j] = slots_[i];
  }
  delete[] slots_;
  slots_ = fresh;
  if (mreg_ != nullptr) {
    mreg_->add(mids_.rehash, 1, mshard_);
    mreg_->gauge_add(mids_.arena_bytes,
                     static_cast<std::int64_t>((new_cap - cap_) *
                                               sizeof(Slot)),
                     mshard_);
  }
  cap_ = new_cap;
  ++rehashes_;
}

AddrTable::Entry& AddrTable::probe(const void* addr) {
  // Grow before probing so the insert below always finds a free slot and
  // the load factor stays under 3/4 (probe sequences stay short).
  if ((size_ + 1) * 4 > cap_ * 3) grow_table();
  const std::size_t mask = cap_ - 1;
  std::size_t i = home(addr);
  std::uint64_t probes = 1;
  while (slots_[i].entry != nullptr) {
    if (slots_[i].key == addr) {
      if (mreg_ != nullptr) mreg_->observe(mids_.probe_len, probes, mshard_);
      last_addr_ = addr;
      last_entry_ = slots_[i].entry;
      return *last_entry_;
    }
    i = (i + 1) & mask;
    ++probes;
  }
  TaskArena::Source src{};
  Entry* e = ::new (arena_.allocate(/*shard=*/0, src)) Entry();
  slots_[i].key = addr;
  slots_[i].entry = e;
  ++size_;
  last_addr_ = addr;
  last_entry_ = e;
  if (mreg_ != nullptr) {
    mreg_->observe(mids_.probe_len, probes, mshard_);
    mreg_->gauge_add(mids_.addr_entries, 1, mshard_);
    if (src == TaskArena::Source::NewChunk) {
      mreg_->gauge_add(
          mids_.arena_bytes,
          static_cast<std::int64_t>(TaskArena::kBlocksPerChunk *
                                    arena_.block_bytes()),
          mshard_);
    }
  }
  return *e;
}

const AddrTable::Entry* AddrTable::history(const void* addr) const {
  if (cap_ == 0) return nullptr;
  const std::size_t mask = cap_ - 1;
  for (std::size_t i = home(addr);
       slots_[i].entry != nullptr; i = (i + 1) & mask) {
    if (slots_[i].key == addr) return slots_[i].entry;
  }
  return nullptr;
}

void AddrTable::clear() {
  for (std::size_t i = 0; i < cap_; ++i) {
    Entry* e = slots_[i].entry;
    if (e == nullptr) continue;
    e->reset();
    e->~Entry();
    arena_.deallocate(e);
    slots_[i].entry = nullptr;
    slots_[i].key = nullptr;
  }
  if (mreg_ != nullptr && size_ != 0) {
    mreg_->gauge_add(mids_.addr_entries, -static_cast<std::int64_t>(size_),
                     mshard_);
  }
  size_ = 0;
  last_addr_ = nullptr;
  last_entry_ = nullptr;
}

}  // namespace tdg
