// Paged KV-cache block manager (the PagedAttention memory model).
//
// GPU memory left after weights is carved into fixed-size blocks of `block_size` token slots.
// Sequences reserve whole blocks; the manager tracks per-sequence holdings so growth by one
// token only allocates when a block boundary is crossed. The engine uses reservation-style
// admission (reserve the full final length up front) to model vLLM's preemption-free steady
// state, but the manager equally supports incremental growth — both paths are unit-tested.
//
// Per-sequence holdings live in an open-addressing table (linear probing, backward-shift
// deletion) that keeps its capacity, so a reserve/release cycle allocates nothing once the
// table has grown to the peak number of resident sequences.
#ifndef DISTSERVE_ENGINE_KV_BLOCK_MANAGER_H_
#define DISTSERVE_ENGINE_KV_BLOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace distserve::engine {

using SeqId = int64_t;

class KvBlockManager {
 public:
  // `capacity_tokens` is the pool size in token slots; `block_size` the tokens per block.
  KvBlockManager(int64_t capacity_tokens, int block_size);

  int64_t total_blocks() const { return total_blocks_; }
  int64_t free_blocks() const { return total_blocks_ - used_blocks_; }
  int64_t used_blocks() const { return used_blocks_; }
  int block_size() const { return block_size_; }

  // Blocks needed to hold `tokens` token slots.
  int64_t BlocksForTokens(int64_t tokens) const;

  // Whether a fresh reservation of `tokens` slots would succeed right now.
  bool CanReserve(int64_t tokens) const;

  // Reserves blocks for a new sequence expected to reach `tokens` slots. Returns false (and
  // changes nothing) when the pool cannot satisfy it. The sequence must not already exist.
  bool Reserve(SeqId seq, int64_t tokens);

  // Grows an existing sequence's reservation by `extra` tokens (allocating blocks only when
  // a boundary is crossed). Returns false without changes when the pool is exhausted.
  bool Grow(SeqId seq, int64_t extra);

  // Releases every block held by `seq`. CHECK-fails if the sequence is unknown.
  void Release(SeqId seq);

  // Drops every sequence at once (the owning GPU failed; its memory contents are gone).
  void Clear();

  bool Holds(SeqId seq) const { return Find(seq) != kNotFound; }
  int64_t SequenceTokens(SeqId seq) const;
  size_t sequence_count() const { return count_; }

 private:
  // Marks a free table slot; never a valid sequence id.
  static constexpr SeqId kEmptySeq = std::numeric_limits<SeqId>::min();
  static constexpr size_t kNotFound = std::numeric_limits<size_t>::max();

  struct Slot {
    SeqId seq = kEmptySeq;
    int64_t tokens = 0;
    int64_t blocks = 0;
  };

  // The slot `seq` hashes to (Fibonacci hashing: the product's top bits).
  size_t Home(SeqId seq) const {
    return static_cast<size_t>((static_cast<uint64_t>(seq) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // Index of `seq`'s slot, or kNotFound.
  size_t Find(SeqId seq) const;
  // Frees slot `index`, shifting later members of its probe run back into the hole.
  void Erase(size_t index);
  // Rebuilds the table with `capacity` slots (a power of two).
  void Rehash(size_t capacity);

  int64_t total_blocks_;
  int block_size_;
  int64_t used_blocks_ = 0;
  std::vector<Slot> slots_;  // power-of-two size, at most half full; empty until first use
  size_t count_ = 0;
  int shift_ = 64;           // 64 - log2(slots_.size())
};

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_KV_BLOCK_MANAGER_H_
