// Sandboxed per-file analysis: AnalyzeSourceCached run inside a forked,
// rlimit-capped worker process (util::RunInWorker), so an analyzer defect on
// one hostile script — SIGSEGV, allocation bomb, runaway loop — is contained
// to that file instead of taking down the batch driver or the resident
// server. Both `sash analyze --isolate` and `sash serve --isolate` funnel
// through AnalyzeSourceIsolated, which keeps the byte-identity guarantee:
// a surviving worker's FileResult round-trips the pipe verbatim.
//
// Crashed scripts are quarantined: the post-mortem lands in the FileResult
// (status kCrashed, degraded_reason "crashed:SIGSEGV" / "rss-limit" /
// "worker-watchdog") and the script bytes are auto-banked as a repro under
// <cache-root>/quarantine/<name>.<key8>.sh next to a .json sidecar with the
// signal — the corpus future sessions replay against the analyzer.
#ifndef SASH_BATCH_ISOLATE_H_
#define SASH_BATCH_ISOLATE_H_

#include <string>

#include "batch/batch.h"

namespace sash::batch {

// A FileResult across the worker pipe: the FileResult codec, unsealed.
// Public for the serve layer's tests; path and micros are the parent's.
inline std::string EncodeWorkerResult(const FileResult& result) { return EncodeFileResult(result); }
bool DecodeWorkerResult(std::string_view payload, FileResult* result);

// Runs AnalyzeSourceCached(options, path, source, cache, ...) in a forked
// worker under options.max_rss_mb / options.worker_cpu_s, with a parent-side
// wall watchdog derived from options.deadline_ms. The worker installs cache
// entries itself (synchronously) and ignores options.obs; the parent only
// decodes the result.
//
// Outcome mapping (parent side):
//   worker ok        the worker's FileResult, byte-identical to in-process.
//   crash (signal)   kCrashed, degraded_reason "crashed:<SIG>", quarantined.
//   oom (rss cap)    kCrashed, degraded_reason "rss-limit", quarantined.
//   watchdog kill    kCrashed, degraded_reason "worker-watchdog", quarantined.
//   bad exit/frame   kFailed ("worker exited N ..."), not quarantined (no
//                    evidence the *script* was at fault).
//   fork failure     graceful fallback: the analysis runs in-process (an
//                    EAGAIN on fork must not fail a healthy script).
//
// Metrics: crash.workers, crash.oom, crash.quarantined; journal mark
// "crash.worker" with the signal number. A worker's cache lookup counts in
// the parent's cache.hits / cache.misses (from the decoded `cached` bit of a
// result with `ok` set); its install does not count in
// cache.commit.committed, which only the installing process sees.
FileResult AnalyzeSourceIsolated(const BatchOptions& options, const std::string& path,
                                 const std::string& source, Cache* cache,
                                 util::CancelToken* abort);

// Banks `source` (and a post-mortem sidecar) under <cache_root>/quarantine/.
// Used by AnalyzeSourceIsolated; exposed so the serve layer can bank crashes
// against its own cache root. No-op when cache_root is empty. Returns the
// repro path ("" on failure — banking is best-effort and never fails the
// caller).
std::string BankQuarantine(const std::filesystem::path& cache_root, const std::string& name,
                           const std::string& source, const FileResult& post_mortem);

}  // namespace sash::batch

#endif  // SASH_BATCH_ISOLATE_H_
