// Concurrency torture for the lock-free append-only table
// (util/append_table.h) through both of its users: the sharded string
// interner and the compiled-pattern cache.
//
// Interner: eight threads
// hammer Intern / Find / str() / hash() over overlapping alphabets — the
// worst case for the lock-free fast path, because every thread races to be
// the first inserter of the same strings while others are mid-probe, slabs
// are being published, and segment indexes are growing underneath readers.
//
// What a failure here looks like in the wild: two Symbols with different ids
// for the same content (digest instability), a torn str() (a slab pointer
// observed before the entry's string was constructed), or a hash() that
// disagrees with FNV-1a of the content (a content-hash corruption that would
// silently poison every state digest downstream). The assertions target each
// of those directly. Run under the SanitizeThread preset, this is also the
// TSan workload for the table.
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "regex/regex.h"
#include "util/hash.h"
#include "util/intern.h"

namespace {

using sash::regex::PatternCache;
using sash::regex::Regex;
using sash::util::Fnv1a;
using sash::util::Interner;
using sash::util::Symbol;

// Distinct from other tests' strings so the expectations below ("Find before
// any Intern misses") hold regardless of test ordering within the binary.
std::string TortureString(int alphabet, int i) {
  return "torture_a" + std::to_string(alphabet) + "_s" + std::to_string(i);
}

TEST(InternTortureTest, EightThreadsOverlappingAlphabets) {
  constexpr int kThreads = 8;
  constexpr int kStringsPerAlphabet = 192;
  constexpr int kRounds = 24;

  // Thread t works alphabets t and (t+1) % kThreads: every alphabet is
  // hammered by exactly two threads, so first-insertion races are guaranteed
  // while each thread still has private-ish strings mid-stream.
  std::atomic<bool> go{false};
  std::vector<std::vector<uint32_t>> ids(kThreads);  // [thread] -> observed ids
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go, &ids] {
      while (!go.load(std::memory_order_acquire)) {
      }
      std::vector<uint32_t>& observed = ids[static_cast<size_t>(t)];
      observed.resize(2 * kStringsPerAlphabet, 0);
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < 2 * kStringsPerAlphabet; ++k) {
          const int alphabet = (t + k / kStringsPerAlphabet) % kThreads;
          const int i = k % kStringsPerAlphabet;
          const std::string text = TortureString(alphabet, i);

          Symbol sym = Symbol::Intern(text);
          // No torn reads: the string is fully constructed and never moves.
          ASSERT_EQ(sym.str(), text);
          // Content hash is a pure function of the bytes, not of the race.
          ASSERT_EQ(sym.hash(), Fnv1a(text));
          // One id per content, stable across rounds and threads-local reads.
          if (observed[static_cast<size_t>(k)] == 0 && sym.id() != 0) {
            observed[static_cast<size_t>(k)] = sym.id();
          } else {
            ASSERT_EQ(observed[static_cast<size_t>(k)], sym.id());
          }

          // Find must agree with Intern (and never misses after it).
          std::optional<Symbol> found = Symbol::Find(text);
          ASSERT_TRUE(found.has_value());
          ASSERT_EQ(found->id(), sym.id());
          ASSERT_EQ(found->str(), text);

          // A string no one ever interns stays a miss even mid-growth.
          ASSERT_FALSE(Symbol::Find("torture_never_interned_" + text).has_value());
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) {
    th.join();
  }

  // Cross-thread agreement: every (alphabet, i) got exactly one id, no
  // matter which thread won the insertion race.
  std::map<std::string, uint32_t> canonical;
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < 2 * kStringsPerAlphabet; ++k) {
      const int alphabet = (t + k / kStringsPerAlphabet) % kThreads;
      const std::string text = TortureString(alphabet, k % kStringsPerAlphabet);
      const uint32_t id = ids[static_cast<size_t>(t)][static_cast<size_t>(k)];
      ASSERT_NE(id, 0u);
      auto [it, inserted] = canonical.emplace(text, id);
      if (!inserted) {
        ASSERT_EQ(it->second, id) << "two ids for content: " << text;
      }
    }
  }
  ASSERT_EQ(canonical.size(), static_cast<size_t>(kThreads) * kStringsPerAlphabet);

  // Distinct contents got distinct ids (no slot aliasing across segments).
  std::map<uint32_t, std::string> by_id;
  for (const auto& [text, id] : canonical) {
    auto [it, inserted] = by_id.emplace(id, text);
    ASSERT_TRUE(inserted) << "id " << id << " maps to both '" << it->second << "' and '" << text
                          << "'";
  }

  // The table absorbed at least the torture population.
  EXPECT_GE(Interner::size(), canonical.size());
}

// Growth under racing readers: a single segment's index is forced through
// repeated rehash/republish cycles while other threads continuously re-read
// previously interned strings through the retired indexes.
TEST(InternTortureTest, ReadersSurviveIndexGrowth) {
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kStrings = 3000;  // Far past the initial 256-slot index.

  std::vector<std::string> early;
  std::vector<Symbol> early_syms;
  for (int i = 0; i < 64; ++i) {
    early.push_back("growth_seed_" + std::to_string(i));
    early_syms.push_back(Symbol::Intern(early.back()));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&early, &early_syms, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        for (size_t i = 0; i < early.size(); ++i) {
          std::optional<Symbol> found = Symbol::Find(early[i]);
          ASSERT_TRUE(found.has_value());
          ASSERT_EQ(found->id(), early_syms[i].id());
          ASSERT_EQ(early_syms[i].str(), early[i]);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kStrings; ++i) {
        std::string text = "growth_w" + std::to_string(w) + "_" + std::to_string(i);
        Symbol sym = Symbol::Intern(text);
        ASSERT_EQ(sym.str(), text);
        ASSERT_EQ(sym.hash(), Fnv1a(text));
      }
    });
  }
  for (std::thread& th : writers) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) {
    th.join();
  }
}

// The same growth race on the pattern cache: writers compile thousands of
// new patterns, pushing one cache generation's index through every rehash
// up to 8192 slots, while readers keep looking up patterns compiled before
// the race. Every reader lookup must hit — an entry is never lost from a
// republished index — and return that pattern's language.
TEST(PatternCacheTortureTest, ReadersSurviveIndexGrowth) {
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kPatterns = 3000;  // Far past the initial 512-slot index.

  std::vector<std::string> early;
  for (int i = 0; i < 64; ++i) {
    early.push_back("growth_seed_" + std::to_string(i) + "[a-z]*");
    ASSERT_TRUE(Regex::FromPattern(early.back()).has_value());
  }
  const uint64_t hits_before = PatternCache::Hits();
  const size_t size_before = PatternCache::Size();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_lookups{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&early, &stop, &reader_lookups] {
      while (!stop.load(std::memory_order_acquire)) {
        for (size_t i = 0; i < early.size(); ++i) {
          std::optional<Regex> found = Regex::FromPattern(early[i]);
          reader_lookups.fetch_add(1, std::memory_order_relaxed);
          ASSERT_TRUE(found.has_value());
          ASSERT_EQ(found->pattern(), early[i]);
          ASSERT_TRUE(found->Matches("growth_seed_" + std::to_string(i) + "abc"));
        }
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kPatterns; ++i) {
        std::string pattern = "growth_w" + std::to_string(w) + "_" + std::to_string(i) + "x+";
        std::optional<Regex> regex = Regex::FromPattern(pattern);
        ASSERT_TRUE(regex.has_value());
        ASSERT_EQ(regex->pattern(), pattern);
      }
    });
  }
  for (std::thread& th : writers) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) {
    th.join();
  }
  // Writers coin distinct patterns (all misses), so every hit is a reader's.
  EXPECT_EQ(PatternCache::Hits() - hits_before, reader_lookups.load());
  EXPECT_EQ(PatternCache::Size(), size_before + static_cast<size_t>(kWriters * kPatterns));
}

}  // namespace
