// The one lock-free append-only table idiom behind the string interner
// (util/intern) and the compiled-pattern cache (regex::PatternCache):
// lookups take no lock, and only a genuine insertion takes its owner's
// writer lock. It comes in two pieces that an owner combines:
//
//   SlabStore<T, kSlabSize, kMaxSlabs>  entries addressed by a dense id,
//       in fixed-size slabs that never move once installed;
//   SlotIndex  an open-addressed hash index whose slots hold id + 1
//       (0 = empty), probed linearly.
//
// The interner shares one SlabStore across 16 segments, each with its own
// lock and SlotIndex, so ids stay dense and process-global; the pattern
// cache keeps one of each per cache generation.
//
// Memory ordering — the whole argument, in one place:
//   - An entry is fully built before its id is published. The writer
//     publishes it with a release store into an index slot, and readers
//     load slots with acquire, so a reader that sees id + 1 sees the
//     complete entry.
//   - A slab pointer is installed with a release CAS and read with acquire,
//     so a reader that reaches an id (through a slot, or through ordinary
//     program synchronization with the writer) also reaches its slab.
//   - A slot goes from empty to occupied exactly once. Growth builds a
//     larger array with relaxed slot stores and publishes its pointer with
//     a release store; readers acquire the pointer, so they see every slot
//     the rehash copied.
//   - The outgrown array is retired, not freed, so a reader still probing
//     it stays on valid memory; retired arrays are freed with the index.
//     An entry inserted after the growth lands only in the new array, so a
//     reader on the old one may miss it: a lookup that must not miss
//     re-probes under the writer lock.
//   - Probing terminates because the writer grows the index before its
//     load factor reaches 2/3, so every published array has an empty slot.
//
// Writers (SlotIndex::Insert) must be serialized by the owner's lock.
// SlabStore::Claim may race with other writers' Claims (the slab install is
// a CAS), provided each id is claimed by exactly one writer.
#ifndef SASH_UTIL_APPEND_TABLE_H_
#define SASH_UTIL_APPEND_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

namespace sash::util {

template <typename T, size_t kSlabSize, size_t kMaxSlabs>
class SlabStore {
  static_assert((kSlabSize & (kSlabSize - 1)) == 0, "slab size must be a power of two");

 public:
  static constexpr size_t kCapacity = kSlabSize * kMaxSlabs;

  SlabStore() = default;
  ~SlabStore() {
    for (std::atomic<T*>& slab : slabs_) {
      delete[] slab.load(std::memory_order_relaxed);
    }
  }
  SlabStore(const SlabStore&) = delete;
  SlabStore& operator=(const SlabStore&) = delete;

  // Lock-free read of an entry whose id has been published to this thread.
  T& At(uint32_t id) const {
    return slabs_[id / kSlabSize].load(std::memory_order_acquire)[id % kSlabSize];
  }

  // The entry for a freshly claimed `id`, for its writer to build before
  // publishing the id. Installs the entry's slab on first use.
  T& Claim(uint32_t id) {
    const size_t slab = id / kSlabSize;
    if (slab >= kMaxSlabs) {
      std::fprintf(stderr, "sash: append table capacity (%zu entries) exhausted\n", kCapacity);
      std::abort();
    }
    T* block = slabs_[slab].load(std::memory_order_acquire);
    if (block == nullptr) {
      T* fresh = new T[kSlabSize];
      if (slabs_[slab].compare_exchange_strong(block, fresh, std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        block = fresh;
      } else {
        delete[] fresh;  // Another writer installed this slab first.
      }
    }
    return block[id % kSlabSize];
  }

 private:
  std::atomic<T*> slabs_[kMaxSlabs] = {};
};

class SlotIndex {
 public:
  // `initial_slots` must be a power of two; the first insertion allocates.
  explicit SlotIndex(size_t initial_slots) : initial_slots_(initial_slots) {}
  SlotIndex(const SlotIndex&) = delete;
  SlotIndex& operator=(const SlotIndex&) = delete;

  // Lock-free: the first id on `hash`'s probe sequence that `matches(id)`
  // accepts, or nullopt. Safe concurrently with Insert and growth.
  template <typename Matches>
  std::optional<uint32_t> Probe(uint64_t hash, Matches&& matches) const {
    const Array* array = live_.load(std::memory_order_acquire);
    if (array == nullptr) {
      return std::nullopt;
    }
    for (size_t i = hash & array->mask;; i = (i + 1) & array->mask) {
      const uint32_t v = array->slots[i].load(std::memory_order_acquire);
      if (v == 0) {
        return std::nullopt;
      }
      if (matches(v - 1)) {
        return v - 1;
      }
    }
  }

  // Requires the owner's writer lock, and `id`'s entry fully built.
  // `hash_of(id)` returns the hash of an already indexed id, for rehashing.
  template <typename HashOf>
  void Insert(uint32_t id, uint64_t hash, HashOf&& hash_of) {
    Array* array = EnsureRoom(hash_of);
    // The release store publishes the fully built entry to lock-free readers.
    array->slots[FreeSlot(*array, hash)].store(id + 1, std::memory_order_release);
    ++used_;
  }

 private:
  struct Array {
    explicit Array(size_t capacity) : mask(capacity - 1), slots(capacity) {}
    const size_t mask;
    std::vector<std::atomic<uint32_t>> slots;  // id + 1; value-initialized to 0.
  };

  static size_t FreeSlot(const Array& array, uint64_t hash) {
    size_t i = hash & array.mask;
    while (array.slots[i].load(std::memory_order_relaxed) != 0) {
      i = (i + 1) & array.mask;
    }
    return i;
  }

  // The array to insert into, growing (and republishing) first when the
  // next insertion would cross 2/3 load.
  template <typename HashOf>
  Array* EnsureRoom(HashOf& hash_of) {
    Array* array = live_.load(std::memory_order_relaxed);
    if (array != nullptr && (used_ + 1) * 3 <= (array->mask + 1) * 2) {
      return array;
    }
    auto fresh =
        std::make_unique<Array>(array == nullptr ? initial_slots_ : (array->mask + 1) * 2);
    if (array != nullptr) {
      for (const std::atomic<uint32_t>& slot : array->slots) {
        const uint32_t v = slot.load(std::memory_order_relaxed);
        if (v != 0) {
          // Relaxed is enough: the release store of the array pointer below
          // orders every slot store before any reader's acquire load.
          fresh->slots[FreeSlot(*fresh, hash_of(v - 1))].store(v, std::memory_order_relaxed);
        }
      }
    }
    Array* raw = fresh.get();
    owned_.push_back(std::move(fresh));  // The outgrown array is retired, not freed.
    live_.store(raw, std::memory_order_release);
    return raw;
  }

  std::atomic<Array*> live_{nullptr};
  std::vector<std::unique_ptr<Array>> owned_;  // Live + retired arrays.
  size_t used_ = 0;                            // Occupied slots.
  const size_t initial_slots_;
};

}  // namespace sash::util

#endif  // SASH_UTIL_APPEND_TABLE_H_
