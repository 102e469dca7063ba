#include "batch/isolate.h"

#include <fstream>

#include "obs/journal.h"
#include "obs/json.h"
#include "util/sha256.h"
#include "util/subproc.h"

namespace sash::batch {

namespace {

// Without a per-file deadline the worker still cannot hang the driver: a
// wedged child is SIGKILLed by the parent after this backstop and reported
// as a crash (status kCrashed, reason "worker-watchdog").
constexpr int64_t kDefaultWallBackstopMs = 120000;

// A filesystem-safe stem for quarantine artifacts: path separators and shell
// metacharacters in the script's name must not escape the quarantine dir.
std::string SanitizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out.push_back(safe ? c : '_');
    if (out.size() >= 48) {
      break;
    }
  }
  return out.empty() ? std::string("script") : out;
}

}  // namespace

bool DecodeWorkerResult(std::string_view payload, FileResult* result) {
  std::optional<FileResult> decoded = DecodeFileResult(payload);
  if (decoded.has_value()) {
    *result = std::move(*decoded);
  }
  return decoded.has_value();
}

std::string BankQuarantine(const std::filesystem::path& cache_root, const std::string& name,
                           const std::string& source, const FileResult& post_mortem) {
  if (cache_root.empty()) {
    return std::string();
  }
  std::filesystem::path dir = cache_root / "quarantine";
  if (!EnsureDirectories(dir)) {
    return std::string();
  }
  // Content-addressed stem: re-crashing the same script overwrites its own
  // repro instead of accumulating duplicates; distinct scripts with the same
  // display name cannot collide.
  util::Sha256 h;
  h.Update(source);
  std::string stem = SanitizeName(name) + "." + h.HexDigest().substr(0, 8);
  std::filesystem::path repro = dir / (stem + ".sh");
  {
    std::ofstream out(repro, std::ios::binary | std::ios::trunc);
    if (!out) {
      return std::string();
    }
    out << source;
    if (!out.flush()) {
      return std::string();
    }
  }
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", "sash-quarantine-v1");
  w.KV("file", name);
  w.KV("status", FileStatusName(post_mortem.status));
  w.KV("degraded_reason", post_mortem.degraded_reason);
  w.KV("error", post_mortem.error);
  w.KV("repro", repro.string());
  w.EndObject();
  std::ofstream meta(dir / (stem + ".json"), std::ios::binary | std::ios::trunc);
  if (meta) {
    meta << w.Take() << "\n";
  }
  return repro.string();
}

FileResult AnalyzeSourceIsolated(const BatchOptions& options, const std::string& path,
                                 const std::string& source, Cache* cache,
                                 util::CancelToken* abort) {
  obs::StopWatch watch;
  obs::Registry* metrics = options.obs.metrics;
  FileResult result;
  result.path = path;

  if (abort != nullptr && abort->cancelled()) {
    result.status = FileStatus::kFailed;
    result.error = "skipped: batch aborted by --fail-fast";
    result.micros = watch.ElapsedMicros();
    return result;
  }

  util::WorkerLimits limits;
  limits.max_rss_mb = options.max_rss_mb;
  limits.cpu_seconds = options.worker_cpu_s;
  limits.wall_timeout_ms =
      options.deadline_ms > 0 ? options.deadline_ms + 5000 : kDefaultWallBackstopMs;

  // The worker re-runs the exact shared path (cache get, fault hooks,
  // analysis, synchronous cache install) and ships the FileResult back over
  // the pipe. The fork inherits warm read-only state (interner, specs,
  // pattern caches) for free; cache entries it installs are atomic-rename
  // files the parent's next Get sees normally.
  //
  // The child analyzes with no obs hooks: it is forked from one pool thread
  // while a sibling may hold the metrics registry's or the tracer's lock,
  // and a child that took either would block until the watchdog killed it.
  // Whatever it recorded would die with it anyway.
  util::WorkerResult worker = util::RunInWorker(
      [&options, &path, &source, cache]() {
        BatchOptions child = options;
        child.obs = {};
        FileResult inner = AnalyzeSourceCached(child, path, source, cache, /*abort=*/nullptr,
                                               /*budget=*/nullptr);
        return EncodeWorkerResult(inner);
      },
      limits);

  switch (worker.outcome) {
    case util::WorkerOutcome::kOk: {
      if (!DecodeWorkerResult(worker.payload, &result)) {
        result.status = FileStatus::kFailed;
        result.error = "isolated worker returned an undecodable result";
      }
      // The worker's Get ran in the fork; count it here, by the same rule
      // as BatchResult::cache_hits.
      if (cache != nullptr && result.ok) {
        cache->CountLookup(result.cached);
      }
      result.path = path;
      result.micros = watch.ElapsedMicros();
      return result;
    }
    case util::WorkerOutcome::kSpawnError: {
      // No child ever ran (fork/pipe refused — fd or process pressure).
      // Containment is best-effort on top of a correct pipeline; a healthy
      // script must not fail because the OS was briefly out of processes.
      if (metrics != nullptr) {
        metrics->counter("crash.spawn_fallbacks")->Add(1);
      }
      result = AnalyzeSourceCached(options, path, source, cache, abort, /*budget=*/nullptr);
      return result;
    }
    case util::WorkerOutcome::kCrashed:
      result.status = FileStatus::kCrashed;
      result.degraded_reason = "crashed:" + worker.SignalName();
      result.error = "analysis worker crashed: " + worker.SignalName();
      break;
    case util::WorkerOutcome::kOom:
      result.status = FileStatus::kCrashed;
      result.degraded_reason = "rss-limit";
      result.error = worker.error;
      break;
    case util::WorkerOutcome::kTimeout:
      result.status = FileStatus::kCrashed;
      result.degraded_reason = "worker-watchdog";
      result.error = worker.error;
      break;
    case util::WorkerOutcome::kExit:
      // The child died tidily but produced nothing trustworthy. Not blamed
      // on the script (no signal post-mortem), so no quarantine entry.
      result.status = FileStatus::kFailed;
      result.error = worker.error;
      result.micros = watch.ElapsedMicros();
      if (metrics != nullptr) {
        metrics->counter("crash.worker_exits")->Add(1);
      }
      return result;
  }

  // Crash-class outcomes: count, journal, and bank the repro script.
  if (metrics != nullptr) {
    metrics->counter("crash.workers")->Add(1);
    if (worker.outcome == util::WorkerOutcome::kOom) {
      metrics->counter("crash.oom")->Add(1);
    }
  }
  if (obs::EventJournal* journal =
          options.obs.journal != nullptr ? options.obs.journal : obs::EventJournal::Global();
      journal != nullptr) {
    journal->Emit(obs::EventKind::kMark, "crash.worker", worker.term_signal);
  }
  std::filesystem::path bank_root;
  if (cache != nullptr) {
    bank_root = cache->root();
  } else if (!options.cache_dir.empty()) {
    bank_root = options.cache_dir;
  }
  std::string repro = BankQuarantine(bank_root, path, source, result);
  if (!repro.empty()) {
    if (metrics != nullptr) {
      metrics->counter("crash.quarantined")->Add(1);
    }
    result.error += "; repro banked at " + repro;
  }
  result.micros = watch.ElapsedMicros();
  return result;
}

}  // namespace sash::batch
