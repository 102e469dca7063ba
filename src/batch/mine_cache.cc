#include "batch/mine_cache.h"

#include "batch/spec_io.h"
#include "mining/man_corpus.h"
#include "util/faultinject.h"

namespace sash::batch {

mining::MiningOutcome CachedMineCommand(Cache* cache, const std::string& name,
                                        const obs::Hooks& hooks) {
  if (cache == nullptr) {
    return mining::MineCommand(name, hooks);
  }
  const auto& corpus = mining::ManCorpus();
  auto it = corpus.find(name);
  if (it == corpus.end()) {
    // Unknown command: MineCommand produces the error outcome; nothing to key
    // the cache on.
    return mining::MineCommand(name, hooks);
  }
  std::string key = MineKey(name, it->second);
  if (std::optional<std::string> payload = cache->Get("mine", key); payload.has_value()) {
    if (util::FaultInjector::enabled()) {
      // Chaos hook: a corrupted/torn spec payload must demote to a cache
      // miss (re-mine), never crash or yield a half-parsed spec.
      util::FaultDecision fault =
          util::FaultInjector::Check(util::FaultSite::kSpecLoad, name);
      util::FaultInjector::ApplyDelay(fault);
      if (fault.action == util::FaultAction::kFail) {
        payload->clear();
      } else {
        util::FaultInjector::ApplyPayloadFault(fault, &*payload);
      }
    }
    if (std::optional<mining::MiningOutcome> cached = DecodeMiningOutcome(*payload);
        cached.has_value()) {
      cache->CountLookup(true);
      if (hooks.metrics != nullptr) {
        hooks.metrics->counter("mining.cache_hits")->Add(1);
      }
      return std::move(*cached);
    }
  }
  cache->CountLookup(false);
  mining::MiningOutcome outcome = mining::MineCommand(name, hooks);
  if (outcome.ok) {
    cache->Put("mine", key, EncodeMiningOutcome(key, outcome));
  }
  return outcome;
}

std::vector<mining::MiningOutcome> CachedMineAll(Cache* cache, const obs::Hooks& hooks) {
  std::vector<mining::MiningOutcome> out;
  for (const std::string& name : mining::DocumentedCommands()) {
    out.push_back(CachedMineCommand(cache, name, hooks));
  }
  return out;
}

}  // namespace sash::batch
