#include "engine/kv_block_manager.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace distserve::engine {

namespace {
constexpr size_t kMinSlots = 16;
}  // namespace

KvBlockManager::KvBlockManager(int64_t capacity_tokens, int block_size)
    : block_size_(block_size) {
  DS_CHECK_GE(capacity_tokens, 0);
  DS_CHECK_GT(block_size, 0);
  total_blocks_ = capacity_tokens / block_size;
}

int64_t KvBlockManager::BlocksForTokens(int64_t tokens) const {
  return (tokens + block_size_ - 1) / block_size_;
}

bool KvBlockManager::CanReserve(int64_t tokens) const {
  return BlocksForTokens(tokens) <= free_blocks();
}

size_t KvBlockManager::Find(SeqId seq) const {
  if (slots_.empty()) {
    return kNotFound;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(seq);; i = (i + 1) & mask) {
    if (slots_[i].seq == seq) {
      return i;
    }
    if (slots_[i].seq == kEmptySeq) {
      return kNotFound;
    }
  }
}

void KvBlockManager::Erase(size_t index) {
  const size_t mask = slots_.size() - 1;
  size_t hole = index;
  for (size_t j = (index + 1) & mask; slots_[j].seq != kEmptySeq; j = (j + 1) & mask) {
    // The member at j may fill the hole when the hole lies on its probe path, i.e. between its
    // home and j (cyclically).
    if (((j - Home(slots_[j].seq)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --count_;
}

void KvBlockManager::Rehash(size_t capacity) {
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.seq == kEmptySeq) {
      continue;
    }
    size_t i = Home(slot.seq);
    while (slots_[i].seq != kEmptySeq) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
  }
}

bool KvBlockManager::Reserve(SeqId seq, int64_t tokens) {
  DS_CHECK(seq != kEmptySeq) << "sequence id " << seq << " is reserved";
  DS_CHECK(!Holds(seq)) << "sequence " << seq << " already reserved";
  DS_CHECK_GE(tokens, 0);
  const int64_t blocks = BlocksForTokens(tokens);
  if (blocks > free_blocks()) {
    return false;
  }
  if (2 * (count_ + 1) > slots_.size()) {
    Rehash(std::max(kMinSlots, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  size_t i = Home(seq);
  while (slots_[i].seq != kEmptySeq) {
    i = (i + 1) & mask;
  }
  slots_[i] = Slot{seq, tokens, blocks};
  ++count_;
  used_blocks_ += blocks;
  return true;
}

bool KvBlockManager::Grow(SeqId seq, int64_t extra) {
  DS_CHECK_GE(extra, 0);
  const size_t i = Find(seq);
  DS_CHECK(i != kNotFound) << "growing unknown sequence " << seq;
  Slot& slot = slots_[i];
  const int64_t new_tokens = slot.tokens + extra;
  const int64_t new_blocks = BlocksForTokens(new_tokens);
  const int64_t delta = new_blocks - slot.blocks;
  if (delta > free_blocks()) {
    return false;
  }
  slot.tokens = new_tokens;
  slot.blocks = new_blocks;
  used_blocks_ += delta;
  return true;
}

void KvBlockManager::Release(SeqId seq) {
  const size_t i = Find(seq);
  DS_CHECK(i != kNotFound) << "releasing unknown sequence " << seq;
  used_blocks_ -= slots_[i].blocks;
  DS_DCHECK(used_blocks_ >= 0);
  Erase(i);
}

void KvBlockManager::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  count_ = 0;
  used_blocks_ = 0;
}

int64_t KvBlockManager::SequenceTokens(SeqId seq) const {
  const size_t i = Find(seq);
  return i == kNotFound ? 0 : slots_[i].tokens;
}

}  // namespace distserve::engine
