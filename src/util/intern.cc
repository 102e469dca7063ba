#include "util/intern.h"

#include <atomic>
#include <cassert>
#include <mutex>

#include "obs/lockprobe.h"
#include "util/append_table.h"
#include "util/hash.h"

namespace sash::util {
namespace {

struct Entry {
  std::string text;
  uint64_t content_hash = 0;
};

// The id space stays global and dense (Symbol is a plain 32-bit index into
// the slabs) even though the *lookup* structure is sharded: segments race to
// fetch_add ids out of one counter and claim their entries in one SlabStore
// (see util/append_table.h for the memory-ordering argument).
constexpr size_t kSlabSize = size_t{1} << 12;  // 4096 entries per slab
constexpr size_t kMaxSlabs = size_t{1} << 12;  // capacity ~16.7M symbols

// One lock-striped segment. Strings map to segments by the top bits of their
// content hash (the probe sequence uses the low bits, so the two selections
// stay independent). alignas separates neighboring segments' mutexes and
// index pointers onto distinct cache lines — at -j8 every worker hammers
// these fields, and sharing a line would re-serialize what the sharding just
// split.
struct alignas(64) Segment {
  // Writer lock for genuine insertions only; every lookup — Intern of an
  // already-seen string, Find, str(), hash() — is lock-free. All segments
  // share one logical probe site ("intern.table"); per-instance stats merge
  // by name in LockProbes::Snapshot().
  obs::ProfiledMutex mu{"intern.table"};
  SlotIndex index{256};  // Initial slots; grows under mu.
};

constexpr size_t kSegmentBits = 4;
constexpr size_t kSegments = size_t{1} << kSegmentBits;  // 16 lock stripes

struct Table {
  SlabStore<Entry, kSlabSize, kMaxSlabs> entries;
  std::atomic<uint32_t> count{0};
  Segment segments[kSegments];

  Table() {
    // Pre-intern "" as id 0 so the default Symbol is valid.
    uint32_t id = Intern("", Fnv1a(""));
    (void)id;
    assert(id == 0);
  }

  Segment& SegmentFor(uint64_t hash) { return segments[hash >> (64 - kSegmentBits)]; }

  // Lock-free: the id of the entry matching (text, hash), if any. Safe
  // concurrently with insertions and growth in the same segment.
  std::optional<uint32_t> Probe(Segment& seg, std::string_view text, uint64_t hash) {
    return seg.index.Probe(hash, [&](uint32_t id) {
      const Entry& e = entries.At(id);
      return e.content_hash == hash && e.text == text;
    });
  }

  uint32_t Intern(std::string_view text, uint64_t hash) {
    Segment& seg = SegmentFor(hash);
    // Fast path: an already-seen string costs a hash and a lock-free probe.
    if (std::optional<uint32_t> id = Probe(seg, text, hash)) {
      return *id;
    }
    std::lock_guard<obs::ProfiledMutex> lock(seg.mu);
    // Re-probe under the lock: a racing writer may have inserted it.
    if (std::optional<uint32_t> id = Probe(seg, text, hash)) {
      return *id;
    }
    uint32_t id = count.fetch_add(1, std::memory_order_acq_rel);
    Entry& e = entries.Claim(id);
    e.text.assign(text);
    e.content_hash = hash;
    seg.index.Insert(id, hash, [this](uint32_t old) { return entries.At(old).content_hash; });
    return id;
  }
};

Table& table() {
  static Table* t = new Table();  // intentionally leaked: symbols outlive statics
  return *t;
}

}  // namespace

Symbol Symbol::Intern(std::string_view text) {
  Table& t = table();
  return Symbol(t.Intern(text, Fnv1a(text)));
}

std::optional<Symbol> Symbol::Find(std::string_view text) {
  Table& t = table();
  uint64_t hash = Fnv1a(text);
  std::optional<uint32_t> id = t.Probe(t.SegmentFor(hash), text, hash);
  if (!id.has_value()) {
    return std::nullopt;
  }
  return Symbol(*id);
}

const std::string& Symbol::str() const { return table().entries.At(id_).text; }

uint64_t Symbol::hash() const { return table().entries.At(id_).content_hash; }

size_t Interner::size() {
  return table().count.load(std::memory_order_acquire);
}

}  // namespace sash::util
