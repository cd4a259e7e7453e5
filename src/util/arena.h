// Chunked bump allocator for per-solve scratch.
//
// The LP hot loops (lp/dense_tableau.cc, lp/revised_simplex.cc) burn a
// surprising share of their time in malloc: every cold Build used to
// allocate one vector per tableau row, and the revised backend's B⁻¹
// column memo re-allocated per factorization. An Arena turns all of that
// into pointer bumps against a few long-lived chunks: allocation is a
// couple of arithmetic ops, Reset() makes every chunk reusable without
// returning memory to the OS, and repeated solve/reset cycles of the same
// problem stabilize to zero allocator traffic.
//
// Blocks are aligned to kArenaAlign (32 bytes) so double arrays can be
// loaded with aligned AVX2 moves (lp/kernels.h) and long-double arrays
// start on a cache-friendly boundary. Allocations are uninitialized —
// callers that need zeroed memory fill it themselves (usually with a
// value they were about to write anyway).
//
// A Build knows its whole request up front, so it sizes the arena to it:
// Reset(bytes) with the ArrayBytes sum of its arrays leaves one chunk of
// exactly that size, and the Build costs one allocation. (A per-structure
// backend that took a 64 KB minimum chunk for a few KB of row scratch,
// times thousands of compiled structures, was a third of a planning
// workload's peak RSS.)
//
// Not thread-safe: one Arena per solver instance, matching the
// single-threaded-per-instance contract of the LP backends.
#ifndef LPB_UTIL_ARENA_H_
#define LPB_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace lpb {

inline constexpr std::size_t kArenaAlign = 32;

class Arena {
 public:
  explicit Arena(std::size_t min_chunk_bytes = 1 << 16)
      : min_chunk_bytes_(min_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns a kArenaAlign-aligned uninitialized array of `count` Ts.
  // T must be trivially destructible (the arena never runs destructors).
  template <typename T>
  T* AllocArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena memory is reclaimed without running destructors");
    return static_cast<T*>(AllocBytes(count * sizeof(T)));
  }

  // The chunk bytes AllocArray<T>(count) takes.
  template <typename T>
  static constexpr std::size_t ArrayBytes(std::size_t count) {
    return Rounded(count * sizeof(T));
  }

  // Reset(), then make the first chunk hold `bytes` outright: when it is
  // smaller, every chunk is replaced by one of exactly `bytes`, so
  // allocations summing to at most `bytes` (in ArrayBytes) never take a
  // second chunk.
  void Reset(std::size_t bytes) {
    Reset();
    if (!chunks_.empty() && chunks_.front().size >= bytes) return;
    chunks_.clear();
    chunks_.push_back(NewChunk(Rounded(bytes)));
  }

  // Makes every chunk reusable. Previously returned pointers are invalid
  // after this (the memory is handed out again), but no chunk is freed —
  // a solver that resets and re-allocates the same shapes touches the
  // allocator only on its very first Build.
  void Reset() {
    current_ = 0;
    for (Chunk& chunk : chunks_) chunk.used = 0;
  }

  // Bytes currently held (capacity, not live allocations).
  std::size_t CapacityBytes() const {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
    // The first kArenaAlign-aligned offset inside data.
    std::size_t base = 0;
  };

  static constexpr std::size_t Rounded(std::size_t bytes) {
    return (bytes + kArenaAlign - 1) & ~(kArenaAlign - 1);
  }

  // An unused chunk of `size` bytes. Its memory is left uninitialized, so
  // pages no allocation touches are never committed.
  static Chunk NewChunk(std::size_t size) {
    Chunk chunk;
    chunk.size = size;
    chunk.data = std::make_unique_for_overwrite<std::byte[]>(size + kArenaAlign);
    const auto addr = reinterpret_cast<std::uintptr_t>(chunk.data.get());
    chunk.base = (kArenaAlign - addr % kArenaAlign) % kArenaAlign;
    return chunk;
  }

  void* AllocBytes(std::size_t bytes) {
    const std::size_t rounded = Rounded(bytes);
    while (current_ < chunks_.size()) {
      Chunk& chunk = chunks_[current_];
      if (chunk.used + rounded <= chunk.size) {
        void* p = chunk.data.get() + chunk.base + chunk.used;
        chunk.used += rounded;
        return p;
      }
      ++current_;
    }
    // New chunk: at least min_chunk_bytes_, and big enough for this
    // request outright (huge tableaus get a dedicated chunk rather than
    // an error path).
    chunks_.push_back(
        NewChunk(rounded > min_chunk_bytes_ ? rounded : min_chunk_bytes_));
    current_ = chunks_.size() - 1;
    chunks_.back().used = rounded;
    return chunks_.back().data.get() + chunks_.back().base;
  }

  std::size_t min_chunk_bytes_;
  std::size_t current_ = 0;
  std::vector<Chunk> chunks_;
};

}  // namespace lpb

#endif  // LPB_UTIL_ARENA_H_
