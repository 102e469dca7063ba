// The queryable specification library that accompanies the analysis engine
// (§3: "build a queryable specification library"). Ships with hand-written
// ground-truth specs for the core utility set; the mining pipeline
// (sash::mining) produces specs of the same shape and is validated against
// these.
//
// Concurrency: a library is built on one thread (Register) and only read
// once it is shared, so Find needs no lock: concurrent readers of a const
// library are safe like readers of any const standard container.
#ifndef SASH_SPECS_LIBRARY_H_
#define SASH_SPECS_LIBRARY_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "specs/hoare.h"
#include "util/intern.h"

namespace sash::specs {

class SpecLibrary {
 public:
  SpecLibrary() = default;
  // Moving a deque moves its storage, so the index's spec pointers stay
  // valid in the moved-to library.
  SpecLibrary(SpecLibrary&&) = default;
  SpecLibrary& operator=(SpecLibrary&&) = default;
  SpecLibrary(const SpecLibrary&) = delete;
  SpecLibrary& operator=(const SpecLibrary&) = delete;

  // Registering the same command twice aborts (always, not just in debug
  // builds): a duplicate used to silently shadow the earlier spec, which is
  // a corpus bug that must not pass unnoticed. Only while building the
  // library: not safe against concurrent Find.
  void Register(CommandSpec spec);

  // Dispatch is one hash probe on the interned command name. The string
  // overload uses a non-inserting symbol lookup, so probing arbitrary
  // runtime command names never grows the interner.
  const CommandSpec* Find(util::Symbol command) const {
    auto it = index_.find(command);
    return it == index_.end() ? nullptr : it->second;
  }
  const CommandSpec* Find(const std::string& command) const {
    auto sym = util::Symbol::Find(command);
    return sym.has_value() ? Find(*sym) : nullptr;
  }
  bool Has(const std::string& command) const { return Find(command) != nullptr; }
  std::vector<std::string> CommandNames() const;  // Sorted.
  size_t size() const { return index_.size(); }

  // The hand-written ground truth for the built-in command set: rm, rmdir,
  // mkdir, touch, cat, cp, mv, ls, realpath, echo, grep, sed, cut, sort,
  // head, tail, tr, uniq, wc, lsb_release, curl, basename, dirname, uname,
  // sleep, true, false, date, chmod.
  static const SpecLibrary& BuiltinGroundTruth();

 private:
  std::deque<CommandSpec> specs_;  // Deque: Find() pointers stay stable.
  std::unordered_map<util::Symbol, const CommandSpec*> index_;
};

}  // namespace sash::specs

#endif  // SASH_SPECS_LIBRARY_H_
