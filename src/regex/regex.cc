#include "regex/regex.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/lockprobe.h"
#include "obs/metrics.h"
#include "regex/parser.h"
#include "util/append_table.h"
#include "util/hash.h"

namespace sash::regex {

namespace {

// See PatternCache in regex.h. Keys are domain-hashed ("p", "s", "g" salted
// into the content hash) because the three constructors give the same
// pattern text different languages. Values are Regex copies; copying shares
// the LazyDfa.
//
// Structure: one util/append_table.h table per cache generation — entries
// are append-only in fixed slabs, reached through a SlotIndex. Clear()
// republishes a fresh generation and retires the old one whole, so entries
// a concurrent reader may still hold stay alive for the process lifetime
// (Clear is a test/bench hook, not a hot-path operation).
struct PatternEntry {
  std::string key;  // domain byte + ':' + pattern (exact-match confirmation).
  uint64_t hash = 0;
  std::optional<Regex> regex;
};

// One cache generation: the index, the entry slabs, and the entry count.
// Clear() swaps in a fresh generation rather than mutating this one, so a
// reader that acquired a generation pointer always sees an internally
// consistent (index, slabs, count) world no matter how Clear races with it.
struct PatternStore {
  static constexpr size_t kSlabSize = 256;
  static constexpr size_t kMaxEntries = 8192;

  util::SlotIndex index{512};
  util::SlabStore<PatternEntry, kSlabSize, kMaxEntries / kSlabSize> entries;
  std::atomic<uint32_t> count{0};

  static uint64_t KeyHash(char domain, std::string_view pattern) {
    char d[2] = {domain, ':'};
    return util::Fnv1a(pattern, util::Fnv1a(std::string_view(d, 2)));
  }

  static bool KeyEquals(const PatternEntry& e, char domain, std::string_view pattern) {
    return e.key.size() == pattern.size() + 2 && e.key[0] == domain &&
           std::string_view(e.key).substr(2) == pattern;
  }

  // Lock-free: the id of the matching entry, if any.
  std::optional<uint32_t> Probe(char domain, std::string_view pattern, uint64_t hash) const {
    return index.Probe(hash, [&](uint32_t id) {
      const PatternEntry& e = entries.At(id);
      return e.hash == hash && KeyEquals(e, domain, pattern);
    });
  }
};

struct PatternCacheImpl {
  obs::ProfiledMutex mu{"regex.pattern_cache"};  // Writers (Store/Clear) only.
  std::atomic<PatternStore*> store;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  // Every generation ever published, the live one last; guarded by mu. Old
  // generations are retired, not freed: a reader may still be probing one.
  std::vector<std::unique_ptr<PatternStore>> generations;

  PatternCacheImpl() {
    generations.push_back(std::make_unique<PatternStore>());
    store.store(generations.back().get(), std::memory_order_release);
  }
};

PatternCacheImpl& pattern_cache() {
  static PatternCacheImpl* c = new PatternCacheImpl();
  return *c;
}

std::optional<Regex> PatternCacheLookup(char domain, std::string_view pattern) {
  PatternCacheImpl& c = pattern_cache();
  PatternStore& s = *c.store.load(std::memory_order_acquire);
  std::optional<uint32_t> id = s.Probe(domain, pattern, PatternStore::KeyHash(domain, pattern));
  if (!id.has_value()) {
    c.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  c.hits.fetch_add(1, std::memory_order_relaxed);
  return *s.entries.At(*id).regex;
}

void PatternCacheStore(char domain, std::string_view pattern, const Regex& regex) {
  PatternCacheImpl& c = pattern_cache();
  uint64_t hash = PatternStore::KeyHash(domain, pattern);
  std::lock_guard<obs::ProfiledMutex> lock(c.mu);
  // The live generation only changes under mu, which we hold.
  PatternStore& s = *c.store.load(std::memory_order_relaxed);
  if (s.Probe(domain, pattern, hash).has_value()) {
    return;  // A racing compiler of the same pattern beat us; theirs wins.
  }
  uint32_t id = s.count.load(std::memory_order_relaxed);
  if (id >= PatternStore::kMaxEntries) {
    return;  // Full: later patterns compile uncached rather than evicting.
  }
  PatternEntry& e = s.entries.Claim(id);
  e.key.reserve(pattern.size() + 2);
  e.key = domain;
  e.key += ':';
  e.key += pattern;
  e.hash = hash;
  e.regex = regex;
  // Publish: count first (so Size() never exceeds constructed entries seen
  // through the index), then Insert's release store hands the entry to
  // lock-free readers.
  s.count.store(id + 1, std::memory_order_release);
  s.index.Insert(id, hash, [&s](uint32_t old) { return s.entries.At(old).hash; });
}

}  // namespace

uint64_t PatternCache::Hits() {
  return pattern_cache().hits.load(std::memory_order_relaxed);
}
uint64_t PatternCache::Misses() {
  return pattern_cache().misses.load(std::memory_order_relaxed);
}
size_t PatternCache::Size() {
  PatternCacheImpl& c = pattern_cache();
  return c.store.load(std::memory_order_acquire)->count.load(std::memory_order_acquire);
}
void PatternCache::Clear() {
  PatternCacheImpl& c = pattern_cache();
  std::lock_guard<obs::ProfiledMutex> lock(c.mu);
  // Swap in a fresh empty generation; the outgoing one is retired intact so
  // readers that already acquired it finish their probes on valid memory.
  c.generations.push_back(std::make_unique<PatternStore>());
  c.store.store(c.generations.back().get(), std::memory_order_release);
}

// Cache hook for glob.cc (not part of the public header).
std::optional<Regex> PatternCacheLookupGlob(std::string_view pattern) {
  if (std::optional<Regex> cached = PatternCacheLookup('g', pattern)) {
    return Regex::Shared(std::move(*cached));
  }
  return std::nullopt;
}
Regex PatternCacheStoreGlob(std::string_view pattern, NodePtr node) {
  std::string display = ToPattern(node);
  Regex regex(std::move(display), std::move(node));
  PatternCacheStore('g', pattern, regex);
  return Regex::Shared(std::move(regex));
}

struct Regex::LazyDfa {
  std::once_flag once;
  std::optional<Dfa> dfa;      // Built on demand from the AST.
  std::optional<Dfa> direct;   // Set when constructed from a DFA.
};

// The memo behind AlgebraScope: one per thread, alive while a scope is open.
struct Regex::Memo {
  enum Op : int { kIntersect, kUnion, kConcat, kComplement, kStar, kIncludedIn };

  struct Key {
    int op;
    const LazyDfa* a;
    const Node* a_ast;
    const LazyDfa* b;
    const Node* b_ast;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = static_cast<uint64_t>(k.op);
      for (const void* p : {static_cast<const void*>(k.a), static_cast<const void*>(k.a_ast),
                            static_cast<const void*>(k.b), static_cast<const void*>(k.b_ast)}) {
        h = util::HashFinalize(h ^ reinterpret_cast<uintptr_t>(p));
      }
      return static_cast<size_t>(h);
    }
  };
  // Holds the operands so no other object can take their addresses while
  // the entry lives.
  struct Entry {
    Regex a;
    std::optional<Regex> b;
    std::optional<Regex> result;
    bool included = false;
  };

  int depth = 0;  // Open AlgebraScopes on this thread.
  AlgebraScope::Stats stats;
  // AST-backed languages by display pattern.
  std::unordered_map<std::string, std::shared_ptr<LazyDfa>> by_pattern;
  std::unordered_map<std::string, Regex> literals;
  std::unordered_map<Key, Entry, KeyHash> ops;

  Key KeyFor(int op, const Regex& a, const Regex* b, bool by_ast) const {
    return Key{op, a.lazy_.get(), by_ast ? a.ast_.get() : nullptr,
               b != nullptr ? b->lazy_.get() : nullptr,
               b != nullptr && by_ast ? b->ast_.get() : nullptr};
  }

  // The entry for `key`, or null (counting the probe either way).
  Entry* Find(const Key& key) {
    auto it = ops.find(key);
    if (it == ops.end()) {
      ++stats.misses;
      return nullptr;
    }
    ++stats.hits;
    return &it->second;
  }
};

Regex::Memo*& Regex::CurrentMemo() {
  static thread_local Memo* memo = nullptr;
  return memo;
}

AlgebraScope::AlgebraScope() {
  Regex::Memo*& memo = Regex::CurrentMemo();
  if (memo == nullptr) {
    memo = new Regex::Memo();
  }
  ++memo->depth;
}

AlgebraScope::~AlgebraScope() {
  Regex::Memo*& memo = Regex::CurrentMemo();
  if (--memo->depth == 0) {
    delete memo;
    memo = nullptr;
  }
}

AlgebraScope::Stats AlgebraScope::stats() const { return Regex::CurrentMemo()->stats; }

void AlgebraScope::Stats::PublishTo(obs::Registry* registry) const {
  if (registry == nullptr) {
    return;
  }
  registry->counter("regex.memo.hits")->Add(static_cast<int64_t>(hits));
  registry->counter("regex.memo.misses")->Add(static_cast<int64_t>(misses));
  registry->gauge("regex.memo.languages")->Max(static_cast<int64_t>(languages));
}

Regex::Regex(std::string pattern, NodePtr ast)
    : pattern_(std::move(pattern)), ast_(std::move(ast)), lazy_(std::make_shared<LazyDfa>()) {}

Regex::Regex(std::string pattern, Dfa dfa)
    : pattern_(std::move(pattern)), lazy_(std::make_shared<LazyDfa>()) {
  lazy_->direct = std::move(dfa);
  if (Memo* memo = CurrentMemo()) {
    ++memo->stats.languages;
  }
}

Regex Regex::Shared(Regex regex, bool count_probe) {
  Memo* memo = CurrentMemo();
  if (memo == nullptr) {
    return regex;
  }
  auto [it, inserted] = memo->by_pattern.try_emplace(regex.pattern_, regex.lazy_);
  if (inserted) {
    ++memo->stats.languages;
  } else {
    regex.lazy_ = it->second;
  }
  if (count_probe) {
    ++(inserted ? memo->stats.misses : memo->stats.hits);
  }
  return regex;
}

Regex Regex::SharedFromAst(NodePtr node) {
  std::string pattern = ToPattern(node);
  return Shared(Regex(std::move(pattern), std::move(node)), /*count_probe=*/false);
}

template <typename Compute>
Regex Regex::Memoized(int op, const Regex* other, bool by_ast, Compute&& compute) const {
  Memo* memo = CurrentMemo();
  if (memo == nullptr) {
    return compute();
  }
  Memo::Key key = memo->KeyFor(op, *this, other, by_ast);
  if (Memo::Entry* hit = memo->Find(key)) {
    return *hit->result;
  }
  Regex result = compute();
  memo->ops.emplace(key, Memo::Entry{*this, other != nullptr ? std::optional<Regex>(*other)
                                                              : std::nullopt,
                                     result});
  return result;
}

std::optional<Regex> Regex::FromPattern(std::string_view pattern, std::string* error_out) {
  if (std::optional<Regex> cached = PatternCacheLookup('p', pattern)) {
    return cached;
  }
  ParseResult result = ParsePattern(pattern);
  if (!result.ok()) {
    if (error_out != nullptr) {
      *error_out = "at offset " + std::to_string(result.error->offset) + ": " +
                   result.error->message;
    }
    return std::nullopt;  // Errors are not cached (rare, and carry messages).
  }
  // Not shared by display pattern: this one displays its source text, which
  // can denote another language than the same text as ToPattern renders it
  // (a negated class read here excludes newline; rendered, it need not).
  // The pattern cache already gives each source text one DFA.
  Regex regex(std::string(pattern), std::move(result.node));
  PatternCacheStore('p', pattern, regex);
  return regex;
}

std::optional<Regex> Regex::FromSearchPattern(std::string_view pattern, std::string* error_out) {
  if (std::optional<Regex> cached = PatternCacheLookup('s', pattern)) {
    return Shared(std::move(*cached));
  }
  bool anchor_start = false;
  bool anchor_end = false;
  std::string_view body = pattern;
  if (!body.empty() && body.front() == '^') {
    anchor_start = true;
    body.remove_prefix(1);
  }
  if (!body.empty() && body.back() == '$' && (body.size() < 2 || body[body.size() - 2] != '\\')) {
    anchor_end = true;
    body.remove_suffix(1);
  }
  ParseResult result = ParsePattern(body);
  if (!result.ok()) {
    if (error_out != nullptr) {
      *error_out = "at offset " + std::to_string(result.error->offset) + ": " +
                   result.error->message;
    }
    return std::nullopt;
  }
  NodePtr any = MakeStar(MakeChars(CharSet::AnyExceptNewline()));
  NodePtr node = result.node;
  if (!anchor_start) {
    node = MakeConcat2(any, std::move(node));
  }
  if (!anchor_end) {
    node = MakeConcat2(std::move(node), any);
  }
  std::string display = ToPattern(node);
  Regex regex(std::move(display), std::move(node));
  PatternCacheStore('s', pattern, regex);
  return Shared(std::move(regex));
}

Regex Regex::Literal(std::string_view text) {
  Memo* memo = CurrentMemo();
  if (memo != nullptr) {
    auto it = memo->literals.find(std::string(text));
    if (it != memo->literals.end()) {
      ++memo->stats.hits;
      return it->second;
    }
    ++memo->stats.misses;
  }
  Regex regex = SharedFromAst(MakeLiteral(text));
  if (memo != nullptr) {
    memo->literals.emplace(std::string(text), regex);
  }
  return regex;
}

Regex Regex::AnyLine() {
  static const Regex kAnyLine(".*", MakeStar(MakeChars(CharSet::AnyExceptNewline())));
  return kAnyLine;
}

Regex Regex::Nothing() {
  static const Regex kNothing("[]", MakeEmpty());
  return kNothing;
}

Regex Regex::Epsilon() {
  static const Regex kEpsilon("()", MakeEpsilon());
  return kEpsilon;
}

Regex Regex::FromAst(NodePtr node) {
  std::string pattern = ToPattern(node);
  return Shared(Regex(std::move(pattern), std::move(node)));
}

const Dfa& Regex::dfa() const {
  if (lazy_->direct.has_value()) {
    return *lazy_->direct;
  }
  std::call_once(lazy_->once, [this] { lazy_->dfa = Dfa::FromAst(ast_).Minimize(); });
  return *lazy_->dfa;
}

bool Regex::Matches(std::string_view input) const { return dfa().Accepts(input); }

Regex Regex::Intersect(const Regex& other) const {
  return Memoized(Memo::kIntersect, &other, /*by_ast=*/false, [&] {
    Dfa product = dfa().Intersect(other.dfa()).Minimize();
    return Regex("(" + pattern_ + ")&(" + other.pattern_ + ")", std::move(product));
  });
}

Regex Regex::Union(const Regex& other) const {
  return Memoized(Memo::kUnion, &other, /*by_ast=*/true, [&] {
    if (ast_ != nullptr && other.ast_ != nullptr) {
      return SharedFromAst(MakeAlt2(ast_, other.ast_));
    }
    Dfa product = dfa().Union(other.dfa()).Minimize();
    return Regex("(" + pattern_ + ")|(" + other.pattern_ + ")", std::move(product));
  });
}

Regex Regex::Concat(const Regex& other) const {
  return Memoized(Memo::kConcat, &other, /*by_ast=*/true, [&] {
    if (ast_ != nullptr && other.ast_ != nullptr) {
      return SharedFromAst(MakeConcat2(ast_, other.ast_));
    }
    // At least one side exists only as an automaton (e.g. a complement);
    // compose at the NFA level and re-determinize.
    Nfa combined = ConcatNfa(dfa().ToNfa(), other.dfa().ToNfa());
    Dfa result = Dfa::FromNfa(combined).Minimize();
    return Regex("(" + pattern_ + ")(" + other.pattern_ + ")", std::move(result));
  });
}

Regex Regex::Complement() const {
  return Memoized(Memo::kComplement, nullptr, /*by_ast=*/false, [&] {
    return Regex("!(" + pattern_ + ")", dfa().Complement().Minimize());
  });
}

Regex Regex::Star() const {
  return Memoized(Memo::kStar, nullptr, /*by_ast=*/true, [&] {
    if (ast_ != nullptr) {
      return SharedFromAst(MakeStar(ast_));
    }
    Dfa result = Dfa::FromNfa(StarNfa(dfa().ToNfa())).Minimize();
    return Regex("(" + pattern_ + ")*", std::move(result));
  });
}

bool Regex::IsEmptyLanguage() const { return dfa().IsEmptyLanguage(); }

bool Regex::IsUniversal() const { return dfa().IsUniversal(); }

bool Regex::IncludedIn(const Regex& other) const {
  Memo* memo = CurrentMemo();
  if (memo == nullptr) {
    return dfa().IncludedIn(other.dfa());
  }
  Memo::Key key = memo->KeyFor(Memo::kIncludedIn, *this, &other, /*by_ast=*/false);
  if (Memo::Entry* hit = memo->Find(key)) {
    return hit->included;
  }
  bool included = dfa().IncludedIn(other.dfa());
  memo->ops.emplace(key, Memo::Entry{*this, other, std::nullopt, included});
  return included;
}

bool Regex::EquivalentTo(const Regex& other) const { return dfa().EquivalentTo(other.dfa()); }

std::optional<std::string> Regex::Witness() const { return dfa().ShortestWitness(); }

std::vector<std::string> Regex::Samples(size_t limit) const { return dfa().SampleStrings(limit); }

}  // namespace sash::regex
