// sashbench: runs one workload of the sash benchmark in a fresh process and
// prints one JSON line of results (the last line of stdout) for
// perfbench/run.py to assemble.
//
//   sashbench --workload cold|warm|serve|isolate --seed N --seconds S
//             [--trace 0|1] [--setup-only]
//
// Run from the root of a sash checkout: the paper-figure scripts are read
// from examples/scripts.
//
// sash is driven only through its public entry points (BatchDriver,
// AnalyzeSourceCached/Isolated, the cache functions, serve::Server/Client,
// util::RunInWorker); every timing is taken from outside, around those
// calls. The workload process starts further processes of this binary:
//
//   --pass    one RunSources pass (each cold pass, and the set-up fill), so
//             that every pass starts as a user's `sash analyze` does;
//   --daemon  the resident serve::Server (serving workloads, probes);
//   --probe   the traced run's layer probes, replayed on the workload's
//             corpus and cache in a process holding nothing else.
//
// All files live under .bench_run/ in the working directory; the run's own
// directory is removed before exit, trace files are kept.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "batch/cache.h"
#include "batch/isolate.h"
#include "corpus.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "trace.h"
#include "util/sha256.h"
#include "util/subproc.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sash::batch::BatchDriver;
using sash::batch::BatchOptions;
using sash::batch::BatchResult;
using sash::batch::FileResult;
using sash::batch::FileStatus;

constexpr char kFigureScripts[] = "examples/scripts";

// Script streams drawn from one seed.
constexpr uint64_t kTagCorpus = 1;
constexpr uint64_t kTagFirstSeen = 2;
constexpr uint64_t kTagProbe = 3;

// Workload sizes and rates (see BENCHMARK.json for the reasons).
constexpr int kColdScripts = 600;
constexpr int kWarmScripts = 400;
constexpr int kWarmCopies = 5;
constexpr int kServeScripts = 400;
constexpr int kFirstSeenPool = 8000;
constexpr double kServeRate = 500;     // Requests/s, serve's fixed rate.
constexpr double kIsolateRate = 60;    // Requests/s, isolate's fixed rate.
constexpr double kLatencyLimitUs = 50000;
constexpr int kMissEvery = 20;         // One first-seen script per 20 requests.
constexpr int kSubPhases = 5;
constexpr double kZipfS = 1.0;

int Jobs() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string exe;  // This binary, for spawning the daemon.
  // --daemon mode: serve `cache_dir` on `socket` until SIGTERM, then write
  // the server's counters to `stats_out`.
  bool daemon = false;
  bool isolate = false;
  std::string socket;
  std::string cache_dir;
  std::string stats_out;
  // --probe mode: replay each public call on the workload's corpus against
  // `cache_dir` and the daemon on `socket`; print the layer metrics.
  bool probe = false;
  // --pass mode: one RunSources pass over corpus stream `tag` into
  // `cache_dir`, per-file results written to `out`.
  bool pass = false;
  uint64_t tag = 1;
  std::string out;
};

// ---------------------------------------------------------------------------
// Results: metrics, the failure ledger, and planted-bug accounting.

class Results {
 public:
  explicit Results(const Options& options) : options_(options) {}

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  // Counts one attempted operation.
  void Attempt(int64_t n = 1) { attempted_.fetch_add(n, std::memory_order_relaxed); }

  // Counts one failed operation and names it on stderr (first 20 only).
  void Fail(const std::string& script, const std::string& why) {
    const int64_t n = failed_.fetch_add(1, std::memory_order_relaxed);
    if (n < 20) {
      std::lock_guard<std::mutex> lock(mu_);
      std::fprintf(stderr, "FAIL workload=%s seed=%llu script=%s: %s\n",
                   options_.workload.c_str(), static_cast<unsigned long long>(options_.seed),
                   script.c_str(), why.c_str());
    }
  }

  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }

  void Print(double setup_s, const std::string& digest) const {
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"digest\":\"%s\",\"setup_s\":%.9g,"
                "\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
                options_.workload.c_str(), static_cast<unsigned long long>(options_.seed),
                digest.c_str(), setup_s, static_cast<long long>(attempted()),
                static_cast<long long>(failed()));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                  metrics_[i].name.c_str(), v, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const Options& options_;
  std::vector<Entry> metrics_;
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::mutex mu_;
};

// What the checks and the per-layer metrics need from one report.
struct ReportFacts {
  bool parsed = false;
  bool degraded = false;
  std::vector<std::pair<std::string, int>> findings;  // (code, line)
  std::map<std::string, double> phase_us;
  double states_peak = 0;
  double states_merged = 0;
  double states_dropped = 0;
  std::string degraded_reason;  // FileResult::degraded_reason.
};

ReportFacts ParseReport(const std::string& json) {
  ReportFacts facts;
  std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(json);
  if (!doc.has_value() || !doc->is_object()) return facts;
  facts.parsed = true;
  if (const auto* d = doc->Find("degraded"); d != nullptr && d->is_bool()) {
    facts.degraded = d->boolean;
  }
  if (const auto* fs_ = doc->Find("findings"); fs_ != nullptr && fs_->is_array()) {
    for (const auto& f : fs_->array) {
      const auto* code = f.Find("code");
      const auto* line = f.Find("line");
      if (code != nullptr && line != nullptr && code->is_string() && line->is_number()) {
        facts.findings.emplace_back(code->string, static_cast<int>(line->number));
      }
    }
  }
  if (const auto* phases = doc->Find("phases"); phases != nullptr && phases->is_array()) {
    for (const auto& p : phases->array) {
      const auto* name = p.Find("name");
      const auto* micros = p.Find("micros");
      if (name != nullptr && micros != nullptr && name->is_string() && micros->is_number()) {
        facts.phase_us[name->string] += micros->number;
      }
    }
  }
  if (const auto* stats = doc->Find("stats"); stats != nullptr) {
    if (const auto* engine = stats->Find("engine"); engine != nullptr) {
      auto num = [&](const char* key) {
        const auto* v = engine->Find(key);
        return v != nullptr && v->is_number() ? v->number : 0.0;
      };
      facts.states_peak = num("states_peak");
      facts.states_merged = num("states_merged");
      facts.states_dropped = num("states_dropped");
    }
  }
  return facts;
}

ReportFacts FactsOf(const FileResult& file) {
  ReportFacts facts = ParseReport(file.report_json);
  facts.degraded_reason = file.degraded_reason;
  return facts;
}

// Zeroes the wall-clock fields of a report so two cold runs compare equal.
void ZeroTimings(sash::obs::JsonValue* v) {
  if (v->is_array()) {
    for (auto& e : v->array) ZeroTimings(&e);
    return;
  }
  if (!v->is_object()) return;
  for (auto& [key, value] : v->object) {
    if (value.is_number() && (key == "micros" || key == "total_micros")) {
      value.number = 0;
    } else {
      ZeroTimings(&value);
    }
  }
}

std::string NormalizeReport(const std::string& json) {
  std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(json);
  if (!doc.has_value()) return json;
  ZeroTimings(&*doc);
  sash::obs::JsonWriter w;
  sash::obs::WriteJsonValue(*doc, &w);
  return w.Take();
}

// Planted-bug recall and degradation over the reports a workload produced.
class Quality {
 public:
  explicit Quality(const Options& options) : options_(options) {}

  void Add(const Script& script, const ReportFacts& facts) {
    ++reports_;
    if (facts.degraded) {
      ++degraded_;
      return;
    }
    for (const PlantedBug& bug : script.planted) {
      ++planted_;
      const bool found = std::find(facts.findings.begin(), facts.findings.end(),
                                   std::make_pair(bug.code, bug.line)) != facts.findings.end();
      if (found) {
        ++found_;
      } else if (misses_[bug.shape]++ < 3) {
        std::fprintf(stderr,
                     "MISS workload=%s seed=%llu script=%s shape=%s expected %s at line %d\n",
                     options_.workload.c_str(), static_cast<unsigned long long>(options_.seed),
                     script.name.c_str(), bug.shape.c_str(), bug.code.c_str(), bug.line);
      }
    }
  }

  void Report(Results* results) const {
    for (const auto& [shape, n] : misses_) {
      std::fprintf(stderr, "planted %s: %lld missed on non-degraded reports\n", shape.c_str(),
                   static_cast<long long>(n));
    }
    results->Metric("complete_ratio",
                    reports_ == 0 ? 0 : 1.0 - static_cast<double>(degraded_) / reports_, "ratio");
    results->Metric("planted_recall", planted_ == 0 ? 0 : static_cast<double>(found_) / planted_,
                    "ratio");
  }

 private:
  const Options& options_;
  int64_t reports_ = 0;
  int64_t degraded_ = 0;
  int64_t planted_ = 0;
  int64_t found_ = 0;
  std::map<std::string, int64_t> misses_;
};

// What every workload hands back to main for the result line.
struct Outcome {
  double setup_s = 0;
  std::string digest;
  double peak_rss_mb = 0;  // 0: this process's own peak.
};

bool BadStatus(FileStatus s) {
  return s == FileStatus::kFailed || s == FileStatus::kCrashed || s == FileStatus::kTimedOut;
}

// ---------------------------------------------------------------------------
// Corpus and batch plumbing.

struct Corpus {
  std::vector<Script> scripts;
  std::vector<std::pair<std::string, std::string>> sources;
  std::string digest;
};

Corpus MakeCorpus(const Options& options, uint64_t tag, int count) {
  Corpus c;
  c.scripts = GenerateCorpus(options.seed, tag, count);
  if (!AppendFigureScripts(kFigureScripts, &c.scripts)) {
    std::fprintf(stderr, "sashbench: no figure scripts under %s\n", kFigureScripts);
    std::exit(2);
  }
  for (const Script& s : c.scripts) c.sources.emplace_back(s.name, s.source);
  c.digest = CorpusDigest(c.scripts);
  return c;
}

BatchOptions MakeBatchOptions(const fs::path& cache_dir, sash::obs::Registry* registry) {
  BatchOptions opt;
  opt.jobs = Jobs();
  opt.use_cache = true;
  opt.cache_dir = cache_dir;
  opt.obs.metrics = registry;
  return opt;
}

// Per-pass accounting of RunSources calls.
struct PassStats {
  std::vector<double> rates;       // Files per wall second, one per pass.
  std::vector<double> pass_us;     // Wall time, one per pass.
  std::vector<double> file_us;     // FileResult::micros, every file.
  std::vector<double> tail_us;     // wall - sum(file)/jobs, one per pass.
  double busy_us = 0;              // Sum of file micros.
  double capacity_us = 0;          // Sum of wall x jobs.
  int64_t hits = 0;
  int64_t lookups = 0;
};

void AddPass(const BatchResult& r, int64_t wall_ns, PassStats* stats) {
  double sum = 0;
  for (const FileResult& f : r.files) {
    stats->file_us.push_back(static_cast<double>(f.micros));
    sum += static_cast<double>(f.micros);
  }
  const double wall_us = Micros(wall_ns);
  stats->pass_us.push_back(wall_us);
  stats->rates.push_back(static_cast<double>(r.files.size()) / Seconds(wall_ns));
  stats->tail_us.push_back(wall_us - sum / Jobs());
  stats->busy_us += sum;
  stats->capacity_us += wall_us * Jobs();
  stats->hits += r.cache_hits;
  stats->lookups += r.cache_hits + r.cache_misses;
}

void PrintRates(const char* workload, const PassStats& s) {
  std::fprintf(stderr, "%s: %zu passes, files/s:", workload, s.rates.size());
  for (size_t i = 0; i < s.rates.size() && i < 12; ++i) std::fprintf(stderr, " %.0f", s.rates[i]);
  std::fprintf(stderr, s.rates.size() > 12 ? " ...\n" : "\n");
  std::fprintf(stderr, "%s: per-file us deciles:", workload);
  for (int p = 10; p <= 100; p += 10) std::fprintf(stderr, " %.0f", Percentile(s.file_us, p));
  std::fprintf(stderr, "\n");
}

void BatchEndToEnd(const PassStats& s, Results* results) {
  results->Metric("scripts_per_s", Median(s.rates), "1/s");
  // A batch user's request is the whole RunSources call.
  results->Metric("req_p50_us", Percentile(s.pass_us, 50), "us");
  results->Metric("req_p99_us", Percentile(s.pass_us, 99), "us");
  // Pool capacity: the rate jobs workers would sustain at the mean file cost
  // with no tail and no per-run set-up.
  results->Metric("max_rps", Jobs() * 1e6 / std::max(1.0, Mean(s.file_us)), "1/s");
}

void BatchLayers(const PassStats& s, Results* results, bool hit_ratio = true) {
  results->Metric("batch.file_p50_us", Percentile(s.file_us, 50), "us");
  results->Metric("batch.file_p99_us", Percentile(s.file_us, 99), "us");
  results->Metric("util.thread_pool.busy_ratio",
                  s.capacity_us == 0 ? 0 : s.busy_us / s.capacity_us, "ratio");
  results->Metric("batch.driver.tail_us", Median(s.tail_us), "us");
  if (!hit_ratio) return;
  results->Metric("batch.cache.hit_ratio",
                  s.lookups == 0 ? 0 : static_cast<double>(s.hits) / s.lookups, "ratio");
}

// Cold-analysis layers from the reports' own PhaseTimings and engine stats.
void AnalysisLayers(const std::vector<ReportFacts>& reports, Results* results) {
  std::map<std::string, double> phase_sum;
  std::map<std::string, double> reasons;
  double peak = 0, merged = 0, dropped = 0;
  for (const ReportFacts& f : reports) {
    for (const auto& [name, us] : f.phase_us) phase_sum[name] += us;
    peak = std::max(peak, f.states_peak);
    merged += f.states_merged;
    dropped += f.states_dropped;
    if (!f.degraded_reason.empty()) reasons[f.degraded_reason] += 1;
  }
  const double n = std::max<size_t>(1, reports.size());
  results->Metric("syntax.parse_us", phase_sum["parse"] / n, "us");
  results->Metric("annot.apply_us", phase_sum["annotations"] / n, "us");
  results->Metric("stream.typing_us", phase_sum["stream-typing"] / n, "us");
  results->Metric("symex.exec_us", phase_sum["symex"] / n, "us");
  results->Metric("symex.states_peak", peak, "count");
  results->Metric("symex.states_merged", merged, "count");
  results->Metric("symex.states_dropped", dropped, "count");
  for (const char* reason :
       {"timeout", "step-cap", "state-cap", "depth-cap", "input-too-large", "external"}) {
    results->Metric(std::string("core.degraded.") + reason, reasons[reason], "count");
  }
}

// Cache-write counters reported by the pass and daemon processes.
void CounterLayers(std::map<std::string, double> counters, Results* results) {
  results->Metric("batch.commit.committed", counters["cache.commit.committed"], "count");
  results->Metric("cache.retries", counters["cache.retries"], "count");
  results->Metric("cache.write_failures", counters["cache.write_failures"], "count");
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only): each public call replayed on the
// workload's own corpus and cache, timed from outside.

// `replay_dir` receives the replayed Puts and the first-seen misses.
void ProbeLayers(const Options& options, const Corpus& corpus, const fs::path& cache_dir,
                 const fs::path& replay_dir, const std::string& socket_path, Tracer* tracer,
                 Results* results) {
  BatchOptions opt = MakeBatchOptions(cache_dir, nullptr);
  opt.jobs = 1;
  sash::batch::Cache cache(cache_dir);
  sash::batch::Cache replay(replay_dir);
  if (!fs::exists(cache_dir)) {
    std::fprintf(stderr, "sashbench probe: no cache at %s\n", cache_dir.string().c_str());
    std::exit(1);
  }

  sash::serve::ClientOptions copt;
  copt.socket_path = socket_path;
  sash::serve::Client client(copt);

  std::vector<double> key_us, get_us, decode_us, hit_us, splice_us, encode_us, put_us, codec_us,
      penc_us, pdec_us, call_us, entry_bytes;
  const size_t n = std::min<size_t>(corpus.scripts.size(), 400);
  for (size_t i = 0; i < n; ++i) {
    const auto& [name, source] = corpus.sources[i];
    const auto rid = static_cast<int64_t>(i);
    std::string key;
    std::optional<std::string> payload;
    std::optional<sash::batch::AnalysisEntry> entry;
    FileResult hit;
    // One untimed hit first, so that every timed call below finds the entry
    // and the code equally warm.
    sash::batch::AnalyzeSourceCached(opt, name, source, &cache, nullptr, nullptr);
    const int64_t h = tracer->Time("batch.analyze_cached.hit", rid, [&] {
      hit = sash::batch::AnalyzeSourceCached(opt, name, source, &cache, nullptr, nullptr);
    });
    const int64_t k = tracer->Time("batch.cache.key", rid, [&] {
      key = sash::batch::AnalysisKey(source, opt.analyzer, opt.annotations_text);
    });
    const int64_t g =
        tracer->Time("batch.cache.get", rid, [&] { payload = cache.Get("analysis", key); });
    if (!payload.has_value()) continue;
    const int64_t d = tracer->Time("batch.cache.decode", rid, [&] {
      entry = sash::batch::DecodeAnalysisEntry(*payload);
    });
    if (!entry.has_value() || !hit.cached) continue;
    key_us.push_back(Micros(k));
    get_us.push_back(Micros(g));
    decode_us.push_back(Micros(d));
    hit_us.push_back(Micros(h));
    splice_us.push_back(Micros(h - k - g - d));
    entry_bytes.push_back(static_cast<double>(payload->size()));

    std::string encoded;
    encode_us.push_back(Micros(tracer->Time("batch.cache.encode", rid, [&] {
      encoded = sash::batch::EncodeAnalysisEntry(key, *entry);
    })));
    put_us.push_back(Micros(tracer->Time("batch.cache.put", rid, [&] {
      replay.Put("analysis", key, encoded);
    })));
    codec_us.push_back(Micros(tracer->Time("batch.isolate.codec", rid, [&] {
      FileResult back;
      sash::batch::DecodeWorkerResult(sash::batch::EncodeWorkerResult(hit), &back);
    })));

    sash::serve::RpcRequest req;
    req.op = "analyze";
    req.id = rid;
    req.name = name;
    req.script = source;
    penc_us.push_back(Micros(tracer->Time("serve.protocol.encode", rid, [&] {
      sash::serve::EncodeFrame(sash::serve::FrameType::kRequest, req.ToJson());
    })));
    sash::serve::RpcResponse resp;
    resp.id = rid;
    resp.status = sash::serve::kStatusOk;
    resp.file_status = std::string(sash::batch::FileStatusName(hit.status));
    resp.cached = true;
    resp.report_json = hit.report_json;
    resp.report_text = hit.report_text;
    const std::string resp_json = resp.ToJson();
    pdec_us.push_back(Micros(tracer->Time("serve.protocol.decode", rid, [&] {
      sash::serve::RpcResponse::Parse(resp_json);
    })));
    call_us.push_back(Micros(tracer->Time("serve.client.call", rid, [&] { client.Call(req); })));
  }

  // SHA-256 throughput over the corpus bytes, at least 8 MiB hashed.
  std::string blob;
  for (const auto& [name, source] : corpus.sources) blob += source;
  size_t hashed = 0;
  const int64_t sha_ns = tracer->Time("util.sha256", 0, [&] {
    while (hashed < (8u << 20)) {
      sash::util::Sha256Hex(blob);
      hashed += blob.size();
    }
  });

  std::vector<double> run_setup_us, ping_us, spawn_us, overhead_us, miss_us;
  {
    BatchDriver empty(MakeBatchOptions(cache_dir, nullptr));
    for (int i = 0; i < 30; ++i) {
      run_setup_us.push_back(Micros(tracer->Time("batch.run_sources.empty", i, [&] {
        empty.RunSources({});
      })));
    }
  }
  for (int i = 0; i < 200; ++i) {
    sash::serve::RpcRequest ping;
    ping.op = "ping";
    ping.id = i;
    ping_us.push_back(Micros(tracer->Time("serve.ping", i, [&] { client.Call(ping); })));
  }
  for (int i = 0; i < 30; ++i) {
    spawn_us.push_back(Micros(tracer->Time("util.subproc.spawn", i, [&] {
      sash::util::RunInWorker([] { return std::string(); }, sash::util::WorkerLimits{});
    })));
  }
  sash::obs::Registry crashes;  // crash.workers of the isolated calls.
  BatchOptions isolated = opt;
  isolated.obs.metrics = &crashes;
  for (size_t i = 0; i < std::min<size_t>(n, 30); ++i) {
    const auto& [name, source] = corpus.sources[i];
    const auto rid = static_cast<int64_t>(i);
    const int64_t iso = tracer->Time("batch.isolate.hit", rid, [&] {
      sash::batch::AnalyzeSourceIsolated(isolated, name, source, &cache, nullptr);
    });
    const int64_t in = tracer->Time("batch.analyze_cached.hit", rid, [&] {
      sash::batch::AnalyzeSourceCached(opt, name, source, &cache, nullptr, nullptr);
    });
    overhead_us.push_back(Micros(iso - in));
  }
  for (int i = 0; i < 60; ++i) {
    const Script s = GenerateScript(options.seed, kTagProbe, i, 'S');
    miss_us.push_back(Micros(tracer->Time("serve.execute_miss", i, [&] {
      sash::batch::AnalyzeSourceCached(opt, s.name, s.source, &replay, nullptr, nullptr);
    })));
  }

  results->Metric("batch.cache.key_us", Median(key_us), "us");
  results->Metric("util.sha256.mb_per_s", static_cast<double>(hashed) / 1e6 / Seconds(sha_ns),
                  "MB/s");
  results->Metric("batch.cache.get_us", Median(get_us), "us");
  results->Metric("batch.cache.decode_us", Median(decode_us), "us");
  results->Metric("batch.cache.splice_us", Median(splice_us), "us");
  results->Metric("batch.cache.entry_bytes", Mean(entry_bytes), "bytes");
  results->Metric("batch.driver.run_setup_us", Median(run_setup_us), "us");
  results->Metric("batch.cache.encode_us", Median(encode_us), "us");
  results->Metric("batch.cache.put_us", Median(put_us), "us");
  results->Metric("serve.ping_us", Median(ping_us), "us");
  results->Metric("serve.protocol.encode_us", Median(penc_us), "us");
  results->Metric("serve.protocol.decode_us", Median(pdec_us), "us");
  results->Metric("serve.client.call_us", Median(call_us), "us");
  results->Metric("serve.execute_hit_us", Median(hit_us), "us");
  results->Metric("serve.execute_miss_us", Median(miss_us), "us");
  results->Metric("serve.transport_us",
                  Median(call_us) - Median(hit_us) - Median(penc_us) - Median(pdec_us), "us");
  results->Metric("util.subproc.spawn_us", Median(spawn_us), "us");
  results->Metric("batch.isolate.overhead_us", Median(overhead_us), "us");
  results->Metric("batch.isolate.codec_us", Median(codec_us), "us");
  const sash::obs::MetricsSnapshot snap = crashes.Snapshot();
  const auto it = snap.counters.find("crash.workers");
  const double crashed = it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  results->Metric("crash.workers", crashed, "count");
}

int CorpusSize(const std::string& workload) {
  if (workload == "cold") return kColdScripts;
  return workload == "warm" ? kWarmScripts : kServeScripts;
}

int RunPassMode(const Options& options);

void WriteTrace(const Options& options, const Tracer& tracer, const char* suffix);

int RunProbeMode(const Options& options) {
  const Corpus corpus = MakeCorpus(options, options.tag, CorpusSize(options.workload));
  const fs::path replay = fs::path(options.cache_dir).parent_path() / "probe-cache";
  Tracer tracer(true);
  Results results(options);
  ProbeLayers(options, corpus, options.cache_dir, replay, options.socket, &tracer, &results);
  WriteTrace(options, tracer, "-probes");
  results.Print(0, corpus.digest);
  return 0;
}

// Self time per span name (median), for the names that have children.
void SelfTimeLayers(const Tracer& tracer, Results* results) {
  const std::vector<Span> spans = tracer.spans();
  const std::map<int64_t, int64_t> self = SelfTimes(spans);
  std::vector<double> request_self;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "serve.request") request_self.push_back(Micros(self.at(s.id)));
  }
  results->Metric("serve.request.self_us", Median(request_self), "us");
}

void WriteTrace(const Options& options, const Tracer& tracer, const char* suffix) {
  const std::string path = ".bench_run/trace-" + options.workload + "-" +
                           std::to_string(options.seed) + suffix + ".json";
  if (tracer.Write(path)) {
    std::fprintf(stderr, "trace: %zu spans written to %s\n", tracer.spans().size(), path.c_str());
  }
}

// Robustness counters of the daemon a traced run used (ServerStats).
void DaemonLayers(std::map<std::string, double> stats, Results* results) {
  if (stats["abnormal_exit"] != 0) results->Fail("(daemon)", "the daemon did not drain cleanly");
  results->Metric("serve.shed", stats["shed"], "count");
  results->Metric("serve.timeouts", stats["timeouts"], "count");
  results->Metric("serve.malformed", stats["malformed"], "count");
}

// Starts this binary with `args`; stdout goes to `stdout_path` when set.
pid_t Spawn(const Options& options, std::vector<std::string> args, const std::string& stdout_path) {
  args.insert(args.begin(), options.exe);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (!stdout_path.empty()) {
    posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0644);
  }
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, options.exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    std::fprintf(stderr, "sashbench: cannot start %s\n", options.exe.c_str());
    std::exit(1);
  }
  return pid;
}

std::optional<sash::obs::JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return sash::obs::JsonValue::Parse(buf.str());
}

// The layer probes run in a fresh process of their own (holding only the
// corpus and the cache, as a daemon would), so that fork and allocation
// costs are not inflated by this process's heap.
void RunProbes(const Options& options, uint64_t tag, const fs::path& run_dir,
               const fs::path& cache_dir, const std::string& socket, Results* results) {
  const std::string out = (run_dir / "probe.json").string();
  const pid_t pid = Spawn(options,
                          {"--probe", "--workload", options.workload, "--seed",
                           std::to_string(options.seed), "--tag", std::to_string(tag),
                           "--cache-dir", cache_dir.string(),
                           "--socket", socket},
                          out);
  int status = 0;
  waitpid(pid, &status, 0);
  const std::optional<sash::obs::JsonValue> doc = ReadJson(out);
  const sash::obs::JsonValue* metrics = doc.has_value() ? doc->Find("metrics") : nullptr;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || metrics == nullptr) {
    std::fprintf(stderr, "sashbench: the probe process failed (status %d)\n", status);
    std::exit(1);
  }
  for (const auto& [name, m] : metrics->object) {
    const auto* value = m.Find("value");
    const auto* unit = m.Find("unit");
    if (value != nullptr && unit != nullptr) results->Metric(name, value->number, unit->string);
  }
}

// The resident daemon of the serving workloads (and of the probes of the
// batch ones): this binary in --daemon mode, a separate process holding a
// serve::Server, so its memory and its forks are its own, as for a user's
// `sash serve`.
class Daemon {
 public:
  Daemon(const Options& options, const fs::path& run_dir, const fs::path& cache_dir, bool isolate)
      : socket_((run_dir / "s.sock").string()), stats_path_((run_dir / "daemon.json").string()) {
    std::vector<std::string> args = {"--daemon",    "--socket",         socket_,
                                     "--cache-dir", cache_dir.string(), "--stats-out",
                                     stats_path_,   "--trace",          options.trace ? "1" : "0"};
    if (isolate) args.push_back("--isolate");
    pid_ = Spawn(options, args, "");
    // Ready once a ping answers (the server warms up before it listens).
    const int64_t deadline = NowNs() + 60'000'000'000;
    for (;;) {
      sash::serve::ClientOptions copt;
      copt.socket_path = socket_;
      copt.connect_attempts = 1;
      sash::serve::Client probe(copt);
      sash::serve::RpcRequest ping;
      ping.op = "ping";
      if (probe.Call(ping).ok) break;
      if (NowNs() > deadline || waitpid(pid_, nullptr, WNOHANG) == pid_) {
        std::fprintf(stderr, "sashbench: the daemon did not come up\n");
        pid_ = 0;
        std::exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

  // Drains the daemon (SIGTERM) and returns the counters it wrote on exit.
  std::map<std::string, double> Stop() {
    std::map<std::string, double> stats;
    if (pid_ <= 0) return stats;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = 0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "sashbench: the daemon exited abnormally (status %d)\n", status);
      stats["abnormal_exit"] = 1;
    }
    if (auto doc = ReadJson(stats_path_); doc.has_value() && doc->is_object()) {
      for (const auto& [key, value] : doc->object) {
        if (value.is_number()) stats[key] = value.number;
      }
    }
    return stats;
  }

 private:
  std::string socket_;
  std::string stats_path_;
  pid_t pid_ = 0;
};

int RunDaemonMode(const Options& options) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);  // Never outlive the benchmark.
  sash::obs::Registry registry;
  sash::serve::ServerOptions so;
  so.socket_path = options.socket;
  so.jobs = Jobs();
  so.batch = MakeBatchOptions(options.cache_dir, options.trace ? &registry : nullptr);
  so.batch.isolate = options.isolate;
  sash::serve::Server server(std::move(so));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "sashbench daemon: %s\n", error.c_str());
    return 1;
  }
  sash::serve::Server::InstallSignalDrain(&server);
  server.AwaitStopped();
  server.Stop();
  sash::serve::Server::InstallSignalDrain(nullptr);
  const sash::serve::ServerStats st = server.stats();
  const sash::obs::MetricsSnapshot snap = registry.Snapshot();
  auto counter = [&](const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0LL : static_cast<long long>(it->second);
  };
  std::FILE* f = std::fopen(options.stats_out.c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\"peak_rss_mb\":%.17g,\"requests\":%lld,\"shed\":%lld,\"timeouts\":%lld,"
               "\"malformed\":%lld,\"worker_crashes\":%lld,\"cache.retries\":%lld,"
               "\"cache.write_failures\":%lld}\n",
               PeakRssMb(), static_cast<long long>(st.requests), static_cast<long long>(st.shed),
               static_cast<long long>(st.timeouts), static_cast<long long>(st.malformed),
               static_cast<long long>(st.worker_crashes), counter("cache.retries"),
               counter("cache.write_failures"));
  return std::fclose(f) == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Batch passes. Every cold RunSources pass (and every set-up fill) runs in a
// fresh child process, as a user's `sash analyze` does: the interner,
// PatternCache and spec library start empty, and the pass's peak memory is
// its own. The child hands its per-file results back in a record file.

void PutString(std::string* out, const std::string& s) {
  const uint64_t n = s.size();
  out->append(reinterpret_cast<const char*>(&n), sizeof(n));
  out->append(s);
}

bool GetString(const std::string& in, size_t* pos, std::string* s) {
  uint64_t n = 0;
  if (in.size() - *pos < sizeof(n)) return false;
  std::memcpy(&n, in.data() + *pos, sizeof(n));
  *pos += sizeof(n);
  if (in.size() - *pos < n) return false;
  s->assign(in, *pos, n);
  *pos += n;
  return true;
}

bool WriteRecords(const std::string& path, const std::vector<FileResult>& files) {
  std::string out;
  for (const FileResult& f : files) {
    PutString(&out, std::to_string(static_cast<int>(f.status)) + " " + std::to_string(f.ok) + " " +
                        std::to_string(f.cached) + " " + std::to_string(f.micros));
    PutString(&out, f.path);
    PutString(&out, f.degraded_reason);
    PutString(&out, f.error);
    PutString(&out, f.report_json);
    PutString(&out, f.report_text);
  }
  std::ofstream file(path, std::ios::binary);
  file << out;
  return static_cast<bool>(file.flush());
}

bool ReadRecords(const std::string& path, std::vector<FileResult>* files) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream buf;
  buf << file.rdbuf();
  const std::string in = buf.str();
  size_t pos = 0;
  while (pos < in.size()) {
    FileResult f;
    std::string head;
    if (!GetString(in, &pos, &head) || !GetString(in, &pos, &f.path) ||
        !GetString(in, &pos, &f.degraded_reason) || !GetString(in, &pos, &f.error) ||
        !GetString(in, &pos, &f.report_json) || !GetString(in, &pos, &f.report_text)) {
      return false;
    }
    int status = 0, ok = 0, cached = 0;
    long long micros = 0;
    if (std::sscanf(head.c_str(), "%d %d %d %lld", &status, &ok, &cached, &micros) != 4) {
      return false;
    }
    f.status = static_cast<FileStatus>(status);
    f.ok = ok != 0;
    f.cached = cached != 0;
    f.micros = micros;
    files->push_back(std::move(f));
  }
  return true;
}

int RunPassMode(const Options& options) {
  const Corpus corpus = MakeCorpus(options, options.tag, CorpusSize(options.workload));
  sash::obs::Registry registry;
  BatchDriver driver(MakeBatchOptions(options.cache_dir, options.trace ? &registry : nullptr));
  const int64_t start = NowNs();
  const BatchResult r = driver.RunSources(corpus.sources);
  const int64_t end = NowNs();
  if (!WriteRecords(options.out, r.files)) return 1;
  const sash::obs::MetricsSnapshot snap = registry.Snapshot();
  auto counter = [&](const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0LL : static_cast<long long>(it->second);
  };
  std::printf("{\"start_ns\":%lld,\"end_ns\":%lld,\"peak_rss_mb\":%.17g,\"digest\":\"%s\","
              "\"cache.commit.committed\":%lld,\"cache.retries\":%lld,"
              "\"cache.write_failures\":%lld}\n",
              static_cast<long long>(start), static_cast<long long>(end), PeakRssMb(),
              corpus.digest.c_str(), counter("cache.commit.committed"), counter("cache.retries"),
              counter("cache.write_failures"));
  return 0;
}

struct PassRun {
  std::vector<FileResult> files;
  int64_t wall_ns = 0;
  double peak_rss_mb = 0;
  std::map<std::string, double> counters;
};

// Runs one pass over corpus stream `tag` in a child process into the fresh
// `cache_dir`. Traced: a batch.pass span (spawn to reap) with the child's
// batch.run_sources span inside; the difference is process overhead.
PassRun RunPass(const Options& options, uint64_t tag, const fs::path& cache_dir,
                const fs::path& run_dir, const std::string& expected_digest, Tracer* tracer,
                int64_t rid) {
  const std::string out = (run_dir / "pass.out").string();
  const std::string records = (run_dir / "pass.records").string();
  const int64_t spawned = NowNs();
  const pid_t pid = Spawn(options,
                          {"--pass", "--workload", options.workload, "--seed",
                           std::to_string(options.seed), "--tag", std::to_string(tag),
                           "--cache-dir", cache_dir.string(), "--out", records, "--trace",
                           options.trace ? "1" : "0"},
                          out);
  int status = 0;
  waitpid(pid, &status, 0);
  const int64_t reaped = NowNs();
  PassRun run;
  const std::optional<sash::obs::JsonValue> doc = ReadJson(out);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !doc.has_value() ||
      !ReadRecords(records, &run.files)) {
    std::fprintf(stderr, "sashbench: the batch pass process failed (status %d)\n", status);
    std::exit(1);
  }
  for (const auto& [key, value] : doc->object) {
    if (value.is_number()) run.counters[key] = value.number;
  }
  const auto* digest = doc->Find("digest");
  if (digest == nullptr || digest->string != expected_digest) {
    std::fprintf(stderr, "sashbench: the pass analyzed another corpus than expected\n");
    std::exit(1);
  }
  const auto start = static_cast<int64_t>(run.counters["start_ns"]);
  const auto end = static_cast<int64_t>(run.counters["end_ns"]);
  run.wall_ns = end - start;
  run.peak_rss_mb = run.counters["peak_rss_mb"];
  if (tracer->enabled()) {
    const int64_t root = tracer->NewId();
    tracer->Record(root, "batch.pass", spawned, reaped, 0, rid);
    tracer->Record(tracer->NewId(), "batch.run_sources", start, end, root, rid);
  }
  return run;
}

void CheckFiles(const Corpus& corpus, const std::vector<FileResult>& files, Results* results) {
  results->Attempt(static_cast<int64_t>(files.size()));
  if (files.size() != corpus.scripts.size()) {
    results->Fail("(pass)", "result count differs from the corpus size");
    return;
  }
  for (size_t i = 0; i < files.size(); ++i) {
    const FileResult& f = files[i];
    if (BadStatus(f.status) || !f.ok) {
      results->Fail(corpus.scripts[i].name,
                    "status " + std::string(sash::batch::FileStatusName(f.status)) + " " + f.error);
    }
  }
}

// Cold passes use their own corpus stream each (tags kTagColdBase + k), so
// the median over passes averages content as well as noise.
constexpr uint64_t kTagColdBase = 100;

Outcome RunCold(const Options& options, const fs::path& run_dir, Results* results) {
  const int64_t t0 = NowNs();
  const Corpus first = MakeCorpus(options, kTagColdBase, kColdScripts);
  const double setup_s = Seconds(NowNs() - t0);
  if (options.setup_only) return {setup_s, first.digest};

  Tracer tracer(options.trace);
  Quality quality(options);
  // The analysis layers come from the first pass, whose corpus is the same
  // in every run of a seed, so that their counts repeat exactly.
  std::vector<ReportFacts> first_facts;
  std::vector<double> peaks;
  std::map<std::string, double> counters;
  int traced_passes = 0;
  sash::util::Sha256 digests;
  fs::path last_dir;
  uint64_t last_tag = 0;
  int pass_no = 0;
  // Fresh-process passes, each into a fresh empty cache, until `budget_s`.
  auto measure = [&](double budget_s, bool traced) {
    PassStats stats;
    Tracer off(false);
    const int64_t start = NowNs();
    do {
      const uint64_t tag = kTagColdBase + static_cast<uint64_t>(pass_no);
      const Corpus corpus = pass_no == 0 ? first : MakeCorpus(options, tag, kColdScripts);
      digests.Update(corpus.digest);
      if (!last_dir.empty()) fs::remove_all(last_dir);
      last_dir = run_dir / ("cold-" + std::to_string(pass_no));
      last_tag = tag;
      PassRun run = RunPass(options, tag, last_dir, run_dir, corpus.digest,
                            traced ? &tracer : &off, pass_no);
      BatchResult r;
      r.files = std::move(run.files);
      r.cache_misses = static_cast<int64_t>(r.files.size());
      AddPass(r, run.wall_ns, &stats);
      CheckFiles(corpus, r.files, results);
      peaks.push_back(run.peak_rss_mb);
      // The cache-write counters of the traced passes, per pass.
      if (traced) {
        ++traced_passes;
        for (const char* key :
             {"cache.commit.committed", "cache.retries", "cache.write_failures"}) {
          counters[key] += run.counters[key];
        }
      }
      for (size_t i = 0; i < r.files.size() && i < corpus.scripts.size(); ++i) {
        const ReportFacts facts = FactsOf(r.files[i]);
        if (!facts.parsed) results->Fail(corpus.scripts[i].name, "report is not JSON");
        quality.Add(corpus.scripts[i], facts);
        if (pass_no == 0) first_facts.push_back(facts);
      }
      ++pass_no;
    } while (Seconds(NowNs() - start) < budget_s);
    return stats;
  };

  if (!options.trace) {
    const PassStats stats = measure(options.seconds, false);
    BatchEndToEnd(stats, results);
    PrintRates("cold", stats);
    quality.Report(results);
  } else {
    const PassStats plain = measure(options.seconds / 2, false);
    const PassStats traced = measure(options.seconds / 2, true);
    results->Metric("trace.overhead_ratio", Median(plain.rates) / Median(traced.rates) - 1,
                    "ratio");
    BatchLayers(traced, results);
    quality.Report(results);
    AnalysisLayers(first_facts, results);
    for (auto& [key, value] : counters) value /= std::max(1, traced_passes);
    CounterLayers(counters, results);
    Daemon daemon(options, run_dir, last_dir, false);
    RunProbes(options, last_tag, run_dir, last_dir, daemon.socket(), results);
    DaemonLayers(daemon.Stop(), results);
    WriteTrace(options, tracer, "");
  }
  std::fprintf(stderr, "cold: %d passes, corpora digest %s, peak RSS MB:", pass_no,
               digests.HexDigest().c_str());
  for (double p : peaks) std::fprintf(stderr, " %.1f", p);
  std::fprintf(stderr, "\n");
  return {setup_s, first.digest, Median(peaks)};
}

Outcome RunWarm(const Options& options, const fs::path& run_dir, Results* results) {
  Tracer tracer(options.trace);
  const fs::path cache_dir = run_dir / "cache";
  const int64_t t0 = NowNs();
  const Corpus corpus = MakeCorpus(options, kTagCorpus, kWarmScripts);
  PassRun fill = RunPass(options, kTagCorpus, cache_dir, run_dir, corpus.digest, &tracer, 0);
  CheckFiles(corpus, fill.files, results);
  const std::vector<FileResult> reference = std::move(fill.files);
  const double setup_s = Seconds(NowNs() - t0);
  if (options.setup_only) return {setup_s, corpus.digest};

  // A rerun covers the corpus kWarmCopies times over, as copies under
  // distinct paths: a pass of a few milliseconds would time the thread
  // pool's start-up and the host's wake-up latency more than the hit path.
  std::vector<std::pair<std::string, std::string>> rerun;
  for (int k = 0; k < kWarmCopies; ++k) {
    for (const auto& [name, source] : corpus.sources) {
      rerun.emplace_back("copy" + std::to_string(k) + "/" + name, source);
    }
  }
  BatchDriver driver(MakeBatchOptions(cache_dir, nullptr));
  int pass_no = 0;
  auto measure = [&](double budget_s, bool traced) {
    PassStats stats;
    const int64_t start = NowNs();
    do {
      const int64_t a = NowNs();
      BatchResult r = driver.RunSources(rerun);
      const int64_t b = NowNs();
      if (traced) tracer.Record(tracer.NewId(), "batch.run_sources", a, b, 0, pass_no);
      AddPass(r, b - a, &stats);
      results->Attempt(static_cast<int64_t>(r.files.size()));
      for (size_t i = 0; i < r.files.size(); ++i) {
        const FileResult& f = r.files[i];
        const FileResult& ref = reference[i % reference.size()];
        if (BadStatus(f.status) || !f.ok) {
          results->Fail(rerun[i].first,
                        "status " + std::string(sash::batch::FileStatusName(f.status)));
        } else if (f.report_json != ref.report_json || f.report_text != ref.report_text) {
          results->Fail(rerun[i].first, "warm report differs from the cold report");
        }
      }
      ++pass_no;
    } while (Seconds(NowNs() - start) < budget_s);
    return stats;
  };

  std::vector<ReportFacts> facts;
  Quality q(options);
  for (size_t i = 0; i < reference.size(); ++i) {
    facts.push_back(FactsOf(reference[i]));
    q.Add(corpus.scripts[i], facts.back());
  }

  if (!options.trace) {
    const PassStats stats = measure(options.seconds, false);
    BatchEndToEnd(stats, results);
    PrintRates("warm", stats);
    q.Report(results);
  } else {
    const PassStats plain = measure(options.seconds / 2, false);
    const PassStats traced = measure(options.seconds / 2, true);
    results->Metric("trace.overhead_ratio", Median(plain.rates) / Median(traced.rates) - 1,
                    "ratio");
    BatchLayers(traced, results);
    q.Report(results);
    AnalysisLayers(facts, results);
    CounterLayers(fill.counters, results);
    Daemon daemon(options, run_dir, cache_dir, false);
    RunProbes(options, kTagCorpus, run_dir, cache_dir, daemon.socket(), results);
    DaemonLayers(daemon.Stop(), results);
    WriteTrace(options, tracer, "");
  }
  return {setup_s, corpus.digest};
}

// ---------------------------------------------------------------------------
// Serving workloads: an open-loop generator against the daemon process.
// (Runnable, but not in BENCHMARK.json: on a small shared VM their latency
// figures swing with the host from run to run; see perfbench/README.md.)

struct ServeContext {
  const Corpus* corpus = nullptr;
  const std::vector<FileResult>* reference = nullptr;
  std::vector<Script> first_seen;
  std::atomic<size_t> next_first_seen{0};
  std::vector<std::unique_ptr<sash::serve::Client>> clients;
  std::vector<double> zipf_cdf;     // Over popularity ranks.
  std::vector<int> rank_to_script;  // Warm-set index by popularity rank.
  Tracer* tracer = nullptr;
  Results* results = nullptr;

  std::mutex misses_mu;
  std::vector<std::pair<size_t, sash::serve::RpcResponse>> misses;  // (pool index, reply)
};

struct LoadResult {
  std::vector<double> latency_us;  // From the due time, per completed request.
  std::vector<double> late_us;     // Send time minus due time.
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t over_limit = 0;
  int64_t skipped = 0;  // Never sent: the step was already lost.
  int64_t retries = 0;
  int64_t cached = 0;
  int64_t backlog_max = 0;
  bool backlog_grew = false;
  double wall_s = 0;
};

struct Planned {
  int64_t due_ns = 0;  // Offset from the phase start.
  int script = 0;      // Warm-set index, or first-seen pool index if `miss`.
  bool miss = false;
};

// The seeded schedule of one phase: Poisson arrivals at `rate`, one
// first-seen script at a random slot of every kMissEvery requests, the rest
// Zipf-popular warm-set scripts. Returns fewer than `n` requests when the
// first-seen pool runs out.
std::vector<Planned> Schedule(ServeContext* ctx, Rng* rng, double rate, int64_t n) {
  std::vector<Planned> plan;
  plan.reserve(static_cast<size_t>(n));
  double t = 0;
  int miss_slot = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (i % kMissEvery == 0) miss_slot = rng->Range(0, kMissEvery - 1);
    t += -std::log(1.0 - rng->Unit()) / rate;
    Planned p;
    p.due_ns = static_cast<int64_t>(t * 1e9);
    if (i % kMissEvery == miss_slot) {
      const size_t idx = ctx->next_first_seen.fetch_add(1);
      if (idx >= ctx->first_seen.size()) break;
      p.script = static_cast<int>(idx);
      p.miss = true;
    } else {
      const double u = rng->Unit();
      const auto it = std::lower_bound(ctx->zipf_cdf.begin(), ctx->zipf_cdf.end(), u);
      const auto rank = std::min<size_t>(static_cast<size_t>(it - ctx->zipf_cdf.begin()),
                                         ctx->zipf_cdf.size() - 1);
      p.script = ctx->rank_to_script[rank];
    }
    plan.push_back(p);
  }
  return plan;
}

// Runs `plan` open-loop: one thread per connection takes the next request,
// waits for its due time, sends it, and records latency from the due time.
// With `abortable`, the step stops once more than 1 % of its requests missed
// the latency limit (its p99 is lost already).
LoadResult RunOpenLoop(ServeContext* ctx, const std::vector<Planned>& plan, bool traced,
                       bool abortable) {
  LoadResult out;
  const auto n = static_cast<int64_t>(plan.size());
  std::vector<int64_t> due(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) due[i] = plan[i].due_ns;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> over{0};
  std::atomic<bool> abort{false};
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> backlog;  // (request index, backlog)
  const int64_t start = NowNs() + 2'000'000;         // 2 ms to let threads park.

  auto worker = [&](sash::serve::Client* client) {
    LoadResult local;
    std::vector<std::pair<int64_t, int64_t>> local_backlog;
    for (;;) {
      const int64_t i = next.fetch_add(1);
      if (i >= n) break;
      if (abort.load(std::memory_order_relaxed)) {
        ++local.skipped;
        continue;
      }
      const Planned& p = plan[static_cast<size_t>(i)];
      const int64_t due_at = start + p.due_ns;
      // Sleep to just before the due time, then yield until it: a timer
      // wakeup alone would add its own lateness to every request.
      int64_t now = NowNs();
      if (due_at - now > 200'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due_at - now - 200'000));
      }
      while ((now = NowNs()) < due_at) std::this_thread::yield();
      const int64_t due_count =
          std::upper_bound(due.begin(), due.end(), now - start) - due.begin();
      local_backlog.emplace_back(i, due_count - i);

      const Script& script = p.miss ? ctx->first_seen[static_cast<size_t>(p.script)]
                                    : ctx->corpus->scripts[static_cast<size_t>(p.script)];
      sash::serve::RpcRequest req;
      req.op = "analyze";
      req.id = i;
      req.name = script.name;
      req.script = script.source;
      const int64_t send = NowNs();
      sash::serve::CallResult r = client->Call(req);
      const int64_t done = NowNs();
      ++local.sent;
      local.retries += std::max(0, r.attempts - 1);
      const double latency = Micros(done - due_at);
      local.latency_us.push_back(latency);
      local.late_us.push_back(Micros(send - due_at));
      if (traced) {
        const int64_t root = ctx->tracer->NewId();
        ctx->tracer->Record(root, "serve.request", due_at, done, 0, i);
        ctx->tracer->Record(ctx->tracer->NewId(), "serve.client.call", send, done, root, i);
      }
      bool failed = false;
      if (!r.ok || r.response.status != sash::serve::kStatusOk) {
        failed = true;
        ctx->results->Fail(script.name, r.ok ? "status " + r.response.status + " " +
                                                   r.response.error
                                             : "transport: " + r.transport_error);
      } else if (r.response.file_status != "ok" && r.response.file_status != "degraded") {
        failed = true;
        ctx->results->Fail(script.name, "file status " + r.response.file_status);
      } else if (p.miss) {
        std::lock_guard<std::mutex> lock(ctx->misses_mu);
        ctx->misses.emplace_back(static_cast<size_t>(p.script), std::move(r.response));
      } else {
        const FileResult& ref = (*ctx->reference)[static_cast<size_t>(p.script)];
        if (r.response.report_json != ref.report_json ||
            r.response.report_text != ref.report_text) {
          failed = true;
          ctx->results->Fail(script.name, "served report differs from the cold report");
        }
        local.cached += r.response.cached ? 1 : 0;
      }
      ctx->results->Attempt();
      if (failed) ++local.failed;
      if (failed || latency > kLatencyLimitUs) {
        ++local.over_limit;
        if (abortable && (over.fetch_add(1) + 1) * 100 > n) abort.store(true);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    out.latency_us.insert(out.latency_us.end(), local.latency_us.begin(), local.latency_us.end());
    out.late_us.insert(out.late_us.end(), local.late_us.begin(), local.late_us.end());
    out.sent += local.sent;
    out.failed += local.failed;
    out.over_limit += local.over_limit;
    out.skipped += local.skipped;
    out.retries += local.retries;
    out.cached += local.cached;
    backlog.insert(backlog.end(), local_backlog.begin(), local_backlog.end());
  };

  std::vector<std::thread> threads;
  for (auto& client : ctx->clients) threads.emplace_back(worker, client.get());
  for (auto& t : threads) t.join();
  out.wall_s = Seconds(NowNs() - start);

  // Backlog (requests due but not yet taken) by request order; it grew when
  // the last quarter's mean exceeds the first quarter's by more than one
  // request per connection.
  std::sort(backlog.begin(), backlog.end());
  for (const auto& [i, b] : backlog) out.backlog_max = std::max(out.backlog_max, b);
  const size_t q = backlog.size() / 4;
  if (q > 0) {
    double first = 0, last = 0;
    for (size_t i = 0; i < q; ++i) {
      first += static_cast<double>(backlog[i].second);
      last += static_cast<double>(backlog[backlog.size() - 1 - i].second);
    }
    out.backlog_grew =
        (last - first) / static_cast<double>(q) > static_cast<double>(ctx->clients.size());
  }
  return out;
}

bool MeetsLimit(const LoadResult& r) {
  return r.failed == 0 && r.skipped == 0 && !r.backlog_grew &&
         Percentile(r.latency_us, 99) <= kLatencyLimitUs;
}

// Highest offered rate meeting the limit: grow by 1.5x until a step fails,
// then bisect geometrically until the bracket is within 4 % or the time
// budget is spent.
double SearchMaxRps(ServeContext* ctx, Rng* rng, double start_rate, double budget_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  double lo = 0, hi = 0, rate = start_rate;
  while (NowNs() < deadline) {
    const auto n = static_cast<int64_t>(std::clamp(rate * 0.5, 300.0, 20000.0));
    const std::vector<Planned> plan = Schedule(ctx, rng, rate, n);
    if (static_cast<int64_t>(plan.size()) < n) break;  // First-seen pool exhausted.
    // A step that misses the limit is run once more before it counts, so
    // that one stall of the machine does not end the search.
    bool ok = false;
    for (int attempt = 0; attempt < 2 && !ok && NowNs() < deadline; ++attempt) {
      const LoadResult r = RunOpenLoop(ctx, attempt == 0 ? plan : Schedule(ctx, rng, rate, n),
                                       false, true);
      ok = MeetsLimit(r);
      std::fprintf(stderr, "  search %.0f rps: p99 %.0f us, backlog max %lld%s -> %s\n", rate,
                   Percentile(r.latency_us, 99), static_cast<long long>(r.backlog_max),
                   r.backlog_grew ? " (growing)" : "", ok ? "ok" : "over");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));  // Let queues drain.
    }
    if (ok) {
      lo = std::max(lo, rate);
    } else {
      hi = hi == 0 ? rate : std::min(hi, rate);
    }
    if (hi == 0) {
      rate *= 1.5;
    } else if (lo == 0) {
      rate /= 2;
    } else if (hi / lo < 1.04) {
      break;
    } else {
      rate = std::sqrt(lo * hi);
    }
  }
  return lo;
}

Outcome RunServe(const Options& options, const fs::path& run_dir, bool isolate,
                 Results* results) {
  Tracer tracer(options.trace);
  const fs::path cache_dir = run_dir / "cache";
  const double rate = isolate ? kIsolateRate : kServeRate;

  const int64_t t0 = NowNs();
  const Corpus corpus = MakeCorpus(options, kTagCorpus, kServeScripts);
  PassRun fill = RunPass(options, kTagCorpus, cache_dir, run_dir, corpus.digest, &tracer, 0);
  CheckFiles(corpus, fill.files, results);
  const std::vector<FileResult>& reference = fill.files;
  ServeContext ctx;
  ctx.corpus = &corpus;
  ctx.reference = &reference;
  ctx.tracer = &tracer;
  ctx.results = results;
  ctx.first_seen.reserve(kFirstSeenPool);
  for (int i = 0; i < kFirstSeenPool; ++i) {
    ctx.first_seen.push_back(GenerateScript(options.seed, kTagFirstSeen, i, 'S'));
  }
  {
    Rng rng(SubSeed(options.seed, 10, 0));
    const size_t n = corpus.scripts.size();
    double norm = 0;
    for (size_t k = 1; k <= n; ++k) norm += 1.0 / std::pow(static_cast<double>(k), kZipfS);
    double acc = 0;
    for (size_t k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k), kZipfS) / norm;
      ctx.zipf_cdf.push_back(acc);
    }
    // Popularity ranks follow the corpus's class pattern (rank r is drawn
    // from class kClassPattern[r % 20], shuffled within the class), so every
    // seed puts the same mix of small, medium and large scripts at the top.
    std::map<char, std::vector<int>> by_class;
    for (size_t i = 0; i < n; ++i) {
      by_class[corpus.scripts[i].size_class].push_back(static_cast<int>(i));
    }
    for (auto& [cls, members] : by_class) {
      for (size_t i = members.size(); i > 1; --i) {
        const auto j = static_cast<size_t>(rng.Range(0, static_cast<int>(i) - 1));
        std::swap(members[i - 1], members[j]);
      }
    }
    for (size_t r = 0; r < n; ++r) {
      char cls = kClassPattern[r % 20];
      if (by_class[cls].empty()) {
        for (const auto& [other, members] : by_class) {
          if (!members.empty()) cls = other;
        }
      }
      ctx.rank_to_script.push_back(by_class[cls].back());
      by_class[cls].pop_back();
    }
  }
  Daemon daemon(options, run_dir, cache_dir, isolate);
  for (int k = 0; k < Jobs(); ++k) {
    sash::serve::ClientOptions copt;
    copt.socket_path = daemon.socket();
    ctx.clients.push_back(std::make_unique<sash::serve::Client>(copt));
    std::string error;
    if (!ctx.clients.back()->Connect(&error)) {
      std::fprintf(stderr, "sashbench: cannot connect: %s\n", error.c_str());
      std::exit(1);
    }
  }
  const double setup_s = Seconds(NowNs() - t0);
  if (options.setup_only) {
    ctx.clients.clear();
    daemon.Stop();
    return {setup_s, corpus.digest};
  }

  Rng rng(SubSeed(options.seed, 11, 0));
  // The fixed-rate phase runs as kSubPhases back-to-back sub-phases; p50 and
  // p99 are the medians over them, so that one stall of the machine costs
  // one sub-phase, not the run.
  struct FixedStats {
    LoadResult all;
    std::vector<double> p50, p99;
    double wall_s = 0;
  };
  auto fixed_phase = [&](double seconds, bool traced) {
    FixedStats st;
    for (int k = 0; k < kSubPhases; ++k) {
      const std::vector<Planned> plan =
          Schedule(&ctx, &rng, rate, static_cast<int64_t>(rate * seconds / kSubPhases));
      LoadResult r = RunOpenLoop(&ctx, plan, traced, false);
      st.p50.push_back(Percentile(r.latency_us, 50));
      st.p99.push_back(Percentile(r.latency_us, 99));
      st.wall_s += r.wall_s;
      st.all.latency_us.insert(st.all.latency_us.end(), r.latency_us.begin(), r.latency_us.end());
      st.all.late_us.insert(st.all.late_us.end(), r.late_us.begin(), r.late_us.end());
      st.all.sent += r.sent;
      st.all.retries += r.retries;
      st.all.cached += r.cached;
      st.all.backlog_max = std::max(st.all.backlog_max, r.backlog_max);
    }
    return st;
  };

  if (!options.trace) {
    const FixedStats fixed = fixed_phase(options.seconds * 0.4, false);
    const double max_rps = SearchMaxRps(&ctx, &rng, 2 * rate, options.seconds * 0.6);
    results->Metric("scripts_per_s", static_cast<double>(fixed.all.sent) / fixed.wall_s, "1/s");
    results->Metric("req_p50_us", Median(fixed.p50), "us");
    results->Metric("req_p99_us", Median(fixed.p99), "us");
    results->Metric("max_rps", max_rps, "1/s");
    std::fprintf(stderr, "fixed %.0f rps: %lld requests, p50 %.0f us, p99 %.0f us; max_rps %.0f\n",
                 rate, static_cast<long long>(fixed.all.sent), Median(fixed.p50),
                 Median(fixed.p99), max_rps);
    std::fprintf(stderr, "  sub-phases p50/p99 us:");
    for (size_t k = 0; k < fixed.p50.size(); ++k) {
      std::fprintf(stderr, " %.0f/%.0f", fixed.p50[k], fixed.p99[k]);
    }
    std::fprintf(stderr, "\n");
  } else {
    const FixedStats plain = fixed_phase(options.seconds / 2, false);
    const FixedStats traced = fixed_phase(options.seconds / 2, true);
    results->Metric("trace.overhead_ratio", Median(traced.p50) / Median(plain.p50) - 1, "ratio");
    results->Metric("serve.gen_late_p99_us", Percentile(traced.all.late_us, 99), "us");
    results->Metric("serve.backlog_max", static_cast<double>(traced.all.backlog_max), "count");
    results->Metric("serve.client.retries", static_cast<double>(traced.all.retries), "count");
    results->Metric("batch.cache.hit_ratio",
                    static_cast<double>(traced.all.cached) / std::max<int64_t>(1, traced.all.sent),
                    "ratio");
  }

  // Verification, untimed: every warm-set script once more through the
  // daemon, byte-compared with the cold reference.
  Quality quality(options);
  for (size_t i = 0; i < corpus.scripts.size(); ++i) {
    sash::serve::RpcRequest req;
    req.op = "analyze";
    req.id = static_cast<int64_t>(i);
    req.name = corpus.scripts[i].name;
    req.script = corpus.scripts[i].source;
    sash::serve::CallResult r = ctx.clients[0]->Call(req);
    results->Attempt();
    if (!r.ok || r.response.status != sash::serve::kStatusOk ||
        r.response.report_json != reference[i].report_json ||
        r.response.report_text != reference[i].report_text) {
      results->Fail(corpus.scripts[i].name, "verification reply differs from the cold report");
      continue;
    }
    quality.Add(corpus.scripts[i], ParseReport(reference[i].report_json));
  }
  // First-seen replies against a local cold analysis of the same script
  // (wall-clock fields zeroed on both sides).
  {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::vector<std::thread> threads;
    for (int k = 0; k < Jobs(); ++k) {
      threads.emplace_back([&] {
        BatchOptions local;
        local.use_cache = false;
        for (size_t i = next.fetch_add(1); i < ctx.misses.size(); i = next.fetch_add(1)) {
          const auto& [idx, resp] = ctx.misses[i];
          const Script& s = ctx.first_seen[idx];
          const FileResult cold =
              sash::batch::AnalyzeSourceCached(local, s.name, s.source, nullptr, nullptr, nullptr);
          const bool same =
              NormalizeReport(resp.report_json) == NormalizeReport(cold.report_json) &&
              resp.report_text == cold.report_text;
          std::lock_guard<std::mutex> lock(mu);
          if (!same) results->Fail(s.name, "first-seen reply differs from a local cold run");
          quality.Add(s, ParseReport(resp.report_json));
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  quality.Report(results);

  if (options.trace) {
    std::vector<ReportFacts> facts;
    for (const FileResult& f : reference) facts.push_back(FactsOf(f));
    AnalysisLayers(facts, results);
    SelfTimeLayers(tracer, results);
  }

  ctx.clients.clear();
  if (options.trace) {
    RunProbes(options, kTagCorpus, run_dir, cache_dir, daemon.socket(), results);
  }
  std::map<std::string, double> stats = daemon.Stop();
  if (stats["abnormal_exit"] != 0) results->Fail("(daemon)", "the daemon did not drain cleanly");
  if (stats["worker_crashes"] != 0) {
    results->Fail("(daemon)", "crash.workers = " + std::to_string(stats["worker_crashes"]));
  }
  if (options.trace) {
    DaemonLayers(stats, results);
    // The set-up fill is this workload's batch pass.
    PassStats fill_stats;
    BatchResult fill_result;
    fill_result.files = reference;
    AddPass(fill_result, fill.wall_ns, &fill_stats);
    BatchLayers(fill_stats, results, /*hit_ratio=*/false);
    for (const auto& [key, value] : fill.counters) stats[key] += value;
    CounterLayers(stats, results);
    WriteTrace(options, tracer, "");
  }
  // The daemon is the system under test here; its peak is the workload's.
  return {setup_s, corpus.digest, stats["peak_rss_mb"]};
}

int Usage() {
  std::fprintf(stderr,
               "usage: sashbench --workload cold|warm|serve|isolate --seed N --seconds S\n"
               "                 [--trace 0|1] [--setup-only]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--pass") {
      options.pass = true;
    } else if (arg == "--tag" && has_value) {
      options.tag = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out" && has_value) {
      options.out = argv[++i];
    } else if (arg == "--probe") {
      options.probe = true;
    } else if (arg == "--daemon") {
      options.daemon = true;
    } else if (arg == "--isolate") {
      options.isolate = true;
    } else if (arg == "--socket" && has_value) {
      options.socket = argv[++i];
    } else if (arg == "--cache-dir" && has_value) {
      options.cache_dir = argv[++i];
    } else if (arg == "--stats-out" && has_value) {
      options.stats_out = argv[++i];
    } else {
      return Usage();
    }
  }
  std::signal(SIGPIPE, SIG_IGN);
  options.exe = argv[0];
  if (options.daemon) return RunDaemonMode(options);
  if (options.probe) return RunProbeMode(options);
  if (options.pass) return RunPassMode(options);
  if (options.seconds <= 0 || options.workload.empty()) return Usage();

  const fs::path run_dir =
      fs::path(".bench_run") / (options.workload + "-" + std::to_string(::getpid()));
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  Results results(options);
  Outcome outcome;
  if (options.workload == "cold") {
    outcome = RunCold(options, run_dir, &results);
  } else if (options.workload == "warm") {
    outcome = RunWarm(options, run_dir, &results);
  } else if (options.workload == "serve" || options.workload == "isolate") {
    outcome = RunServe(options, run_dir, options.workload == "isolate", &results);
  } else {
    return Usage();
  }
  fs::remove_all(run_dir);
  if (!options.setup_only) {
    const double attempted = static_cast<double>(std::max<int64_t>(1, results.attempted()));
    results.Metric("ok_ratio", 1.0 - static_cast<double>(results.failed()) / attempted, "ratio");
    results.Metric("peak_rss_mb", outcome.peak_rss_mb > 0 ? outcome.peak_rss_mb : PeakRssMb(),
                   "MB");
  }
  results.Print(outcome.setup_s, outcome.digest);
  return 0;
}
