// The sash command-line tool. `sash` with no arguments prints the usage:
// every subcommand with its options, each generated from the flag table
// below, so a flag cannot be accepted without being listed.
//
// Reads from stdin when the script operand is "-". Directory operands expand
// to their *.sh files, recursively. Multiple operands (or -j > 1) run as a
// batch over a FIFO thread pool, each file consulting the incremental
// result cache (default ~/.cache/sash; see README "Batch mode & caching").
//
// Exit codes: 0 = analysis clean (or command succeeded), 1 = findings at
// warning severity or above (or a blocked run), 2 = usage or I/O error.
// Partial-batch failure: every readable input is still analyzed and printed;
// the batch exits 2 if any input could not be read, else 1 if any file had
// findings, else 0.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "batch/batch.h"
#include "batch/mine_cache.h"
#include "core/analyzer.h"
#include "core/version.h"
#include "mining/pipeline.h"
#include "monitor/guard.h"
#include "monitor/interp.h"
#include "obs/obs.h"
#include "obs/procstat.h"
#include "obs/profile.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "stream/pipeline.h"
#include "util/strings.h"

namespace {

int Usage();

// Flag ranges.
inline constexpr int64_t kMaxJobs = 4096;
inline constexpr int64_t kMaxMs = 1000000000;          // ~11.5 days.
inline constexpr int64_t kMaxBytes = 1LL << 40;        // 1 TiB.

// Every value one invocation's flags can set. Each subcommand reads the
// fields its flags fill; serve moves `batch` into `server.batch`.
struct Invocation {
  sash::batch::BatchOptions batch;
  sash::serve::ServerOptions server;
  sash::serve::SupervisorOptions supervisor;
  sash::monitor::EffectPolicy policy;
  std::string annotations;  // File whose text becomes batch.annotations_text.
  std::string journal;
  std::string trace_out;
  std::string folded;
  std::string via;
  std::string fallback = "fail";
  std::string format = "text";
  bool stats = false;
  bool supervise = false;
};

// Subcommands that take options, as bits of Flag::commands.
enum : unsigned {
  kAnalyze = 1 << 0,
  kServe = 1 << 1,
  kProfile = 1 << 2,
  kReport = 1 << 3,
  kMine = 1 << 4,
  kVerify = 1 << 5,
};

// One option: accepted as `--name VALUE` or `--name=VALUE` (a bool flag
// takes no value), and `-sVALUE` or `-s VALUE` when it has a short name.
struct Flag {
  const char* name;
  char short_name;          // 0: none.
  const char* metavar;      // nullptr: a bool flag.
  unsigned commands;        // The subcommands that accept it.
  std::function<std::string(const std::string& value)> set;  // Error text, "" when set.
};

// Strict integer parsing into [0, max]: non-numeric, out-of-range and
// overflowing values are errors, where atoi/atoll would silently produce 0
// or saturate.
std::string ParseCount(const char* flag, const std::string& text, int64_t max, int64_t* out) {
  if (!sash::ParseInt64(text, out)) {
    return std::string(flag) + " expects an integer, got '" + text + "'";
  }
  if (*out < 0 || *out > max) {
    return std::string(flag) + " must be between 0 and " + std::to_string(max) + ", got '" +
           text + "'";
  }
  return "";
}

Flag Bool(const char* name, unsigned commands, bool* out, bool value = true) {
  return {name, 0, nullptr, commands, [out, value](const std::string&) {
            *out = value;
            return std::string();
          }};
}

template <typename T>
Flag Value(const char* name, const char* metavar, unsigned commands, T* out) {
  return {name, 0, metavar, commands, [out](const std::string& v) {
            *out = v;
            return std::string();
          }};
}

// Each occurrence appends.
Flag Repeated(const char* name, const char* metavar, unsigned commands,
              std::vector<std::string>* out) {
  return {name, 0, metavar, commands, [out](const std::string& v) {
            out->push_back(v);
            return std::string();
          }};
}

// `choices` is both the synopsis metavar and the accepted set, '|'-separated.
Flag Choice(const char* name, const char* choices, unsigned commands, std::string* out) {
  return {name, 0, choices, commands, [name, choices, out](const std::string& v) {
            if (("|" + std::string(choices) + "|").find("|" + v + "|") == std::string::npos) {
              return std::string(name) + " expects one of " + choices + ", got '" + v + "'";
            }
            *out = v;
            return std::string();
          }};
}

template <typename T>
Flag Int(const char* name, unsigned commands, int64_t max, T* out) {
  return {name, 0, "N", commands, [name, max, out](const std::string& v) {
            int64_t n = 0;
            std::string error = ParseCount(name, v, max, &n);
            if (error.empty()) {
              *out = static_cast<T>(n);
            }
            return error;
          }};
}

// The flag table: every option of every subcommand, each declared once and
// bound to its field of `o`.
std::vector<Flag> Flags(Invocation& o) {
  constexpr unsigned kBatch = kAnalyze | kServe | kProfile;
  constexpr unsigned kWorker = kAnalyze | kServe;
  sash::batch::BatchOptions& b = o.batch;
  sash::serve::ServerOptions& s = o.server;
  return {
      {"--jobs", 'j', "N", kBatch,
       [&o](const std::string& v) {
         int64_t n = 0;
         std::string error = ParseCount("--jobs", v, kMaxJobs, &n);
         // A batch sizes its pool from BatchOptions::jobs (default 1), the
         // server from ServerOptions::jobs (default: one per core).
         if (error.empty()) {
           o.batch.jobs = o.server.jobs = static_cast<int>(n);
         }
         return error;
       }},
      Value("--cache-dir", "DIR", kBatch | kMine, &b.cache_dir),
      Bool("--no-cache", kBatch | kMine, &b.use_cache, false),
      Bool("--isolate", kWorker, &b.isolate),
      Int("--max-rss-mb", kWorker, kMaxBytes >> 20, &b.max_rss_mb),
      Int("--worker-cpu-s", kWorker, kMaxMs / 1000, &b.worker_cpu_s),
      Value("--annotations", "file.sasht", kWorker, &o.annotations),
      Bool("--lint", kAnalyze, &b.analyzer.enable_lint),
      Bool("--no-symex", kAnalyze, &b.analyzer.enable_symex, false),
      Bool("--no-stream", kAnalyze, &b.analyzer.enable_stream_types, false),
      Bool("--idempotence", kAnalyze, &b.analyzer.enable_idempotence_check),
      Bool("--coach", kAnalyze, &b.analyzer.enable_optimization_coach),
      Choice("--format", "text|json", kAnalyze, &o.format),
      Int("--deadline-ms", kAnalyze, kMaxMs, &b.deadline_ms),
      Bool("--fail-fast", kAnalyze, &b.fail_fast),
      Int("--max-input-bytes", kAnalyze, kMaxBytes, &b.analyzer.max_input_bytes),
      Value("--via", "SOCKET", kAnalyze, &o.via),
      Choice("--fallback", "local|fail", kAnalyze, &o.fallback),
      Value("--socket", "PATH", kServe, &s.socket_path),
      Value("--pidfile", "PATH", kServe, &s.pidfile),
      Int("--max-pending", kServe, 1 << 20, &s.max_pending),
      Int("--max-connections", kServe, 1 << 20, &s.max_connections),
      Int("--deadline-cap-ms", kServe, kMaxMs, &s.deadline_cap_ms),
      Int("--default-budget-ms", kServe, kMaxMs, &s.default_budget_ms),
      Int("--idle-timeout-ms", kServe, kMaxMs, &s.idle_timeout_ms),
      Int("--io-timeout-ms", kServe, kMaxMs, &s.io_timeout_ms),
      Int("--drain-deadline-ms", kServe, kMaxMs, &s.drain_deadline_ms),
      Int("--max-frame-bytes", kServe, 1LL << 31, &s.max_frame_bytes),
      Bool("--no-warmup", kServe, &s.warmup, false),
      Bool("--supervise", kServe, &o.supervise),
      Int("--max-restarts", kServe, 1 << 20, &o.supervisor.max_restarts),
      Int("--heartbeat-ms", kServe, kMaxMs, &o.supervisor.heartbeat_interval_ms),
      Bool("--stats", kAnalyze | kServe, &o.stats),
      Value("--journal", "events.jsonl", kBatch | kReport, &o.journal),
      Value("--trace-out", "trace.json", kAnalyze | kProfile, &o.trace_out),
      Value("--folded", "profile.folded", kProfile, &o.folded),
      Repeated("--no-rw", "PATH", kVerify, &o.policy.no_write),
      Repeated("--no-read", "PATH", kVerify, &o.policy.no_read),
  };
}

// Operand counts: any at or above the minimum.
inline constexpr size_t kMany = SIZE_MAX;

struct Subcommand {
  const char* name;
  unsigned bit;             // Its bit in Flag::commands; 0: takes no options.
  const char* operands;     // Synopsis of the operands.
  size_t min_operands;
  size_t max_operands;
  bool passthrough;         // Everything after the first operand is an operand.
  int (*run)(Invocation& o, const std::vector<std::string>& operands);
};

// "analyze [-jN|--jobs N] [--cache-dir DIR] ... <script.sh|dir>...",
// wrapped under the subcommand name.
std::string Synopsis(const Subcommand& cmd, const std::vector<Flag>& flags) {
  std::string out = cmd.name;
  size_t line_start = 0;
  auto add = [&](const std::string& item) {
    if (out.size() - line_start + 1 + item.size() > 76) {
      // Continue at column 10, under the first flag of "  analyze ".
      out += '\n';
      line_start = out.size();
      out += std::string(9, ' ');
    }
    out += " " + item;
  };
  for (const Flag& f : flags) {
    if ((f.commands & cmd.bit) == 0) {
      continue;
    }
    std::string item = "[";
    if (f.short_name != 0) {
      item += std::string("-") + f.short_name + (f.metavar != nullptr ? f.metavar : "") + "|";
    }
    item += f.name;
    if (f.metavar != nullptr) {
      item += std::string(" ") + f.metavar;
    }
    add(item + "]");
  }
  if (*cmd.operands != '\0') {
    add(cmd.operands);
  }
  return out;
}

// Splits `args` into the flags `cmd` accepts, each applied to its field, and
// operands. Reports the first unknown option, malformed or missing value,
// or unacceptable operand count, and returns false (the caller exits 2).
bool ParseArgs(const Subcommand& cmd, const std::vector<Flag>& flags,
               const std::vector<std::string>& args, std::vector<std::string>* operands) {
  auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "sash %s: %s\n", cmd.name, message.c_str());
    return false;
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.size() < 2 || a[0] != '-' || (cmd.passthrough && !operands->empty())) {
      operands->push_back(a);
      continue;
    }
    const bool is_short = a[1] != '-';
    const size_t eq = is_short ? 2 : a.find('=');
    const std::string name = a.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if ((f.commands & cmd.bit) != 0 &&
          (is_short ? f.short_name != 0 && name[1] == f.short_name : name == f.name)) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) {
      return fail("unknown option " + a);
    }
    std::string value;
    if (flag->metavar == nullptr) {
      if (eq < a.size()) {
        return fail(std::string(flag->name) + " takes no value");
      }
    } else if (eq < a.size()) {
      value = a.substr(is_short ? eq : eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return fail(std::string(flag->name) + " requires a value");
    }
    if (std::string error = flag->set(value); !error.empty()) {
      return fail(error);
    }
  }
  if (operands->size() < cmd.min_operands || operands->size() > cmd.max_operands) {
    std::fprintf(stderr, "usage: sash %s\n", Synopsis(cmd, flags).c_str());
    return false;
  }
  return true;
}

// Human-readable stats table, written to stderr so it never mixes with the
// report on stdout.
void PrintStats(const sash::obs::Registry& registry) {
  sash::obs::MetricsSnapshot snap = registry.Snapshot();
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    std::fprintf(stderr, "--- metrics ---\n");
    for (const auto& [name, value] : snap.counters) {
      std::fprintf(stderr, "  %-32s %10lld\n", name.c_str(), static_cast<long long>(value));
    }
    for (const auto& [name, value] : snap.gauges) {
      std::fprintf(stderr, "  %-32s %10lld (gauge)\n", name.c_str(),
                   static_cast<long long>(value));
    }
    for (const auto& [name, h] : snap.histograms) {
      std::fprintf(stderr, "  %-32s count=%lld p50<=%lld p99<=%lld\n", name.c_str(),
                   static_cast<long long>(h.count), static_cast<long long>(h.p50),
                   static_cast<long long>(h.p99));
    }
  }
}

bool ReadSource(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    *out = buf.str();
    return true;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "sash: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Renders the batch result as one machine-readable document (schema
// "sash-batch-v1"). Per-file reports are spliced in verbatim — the bytes are
// identical whether the report came from a fresh analysis or the cache.
std::string BatchJson(const sash::batch::BatchResult& result, int jobs, bool cache_enabled) {
  sash::obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", sash::batch::kBatchSchema);
  w.KV("sash", sash::core::kVersion);
  w.KV("jobs", jobs);
  w.Key("cache").BeginObject();
  w.KV("enabled", cache_enabled);
  w.KV("hits", result.cache_hits);
  w.KV("misses", result.cache_misses);
  w.EndObject();
  w.Key("results").BeginArray();
  int errors = 0;
  int with_findings = 0;
  for (const sash::batch::FileResult& f : result.files) {
    w.BeginObject();
    w.KV("file", f.path);
    w.KV("ok", f.ok);
    w.KV("status", sash::batch::FileStatusName(f.status));
    if (!f.degraded_reason.empty()) {
      w.KV("degraded_reason", f.degraded_reason);
    }
    if (f.ok) {
      w.KV("cached", f.cached);
      w.KV("warnings_or_worse", f.warnings_or_worse);
      w.Key("report").Raw(f.report_json);
      if (f.warnings_or_worse > 0) {
        ++with_findings;
      }
    } else {
      w.KV("error", f.error);
      ++errors;
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("summary").BeginObject();
  w.KV("files", static_cast<int64_t>(result.files.size()));
  w.KV("errors", errors);
  w.KV("files_with_findings", with_findings);
  w.KV("degraded", static_cast<int64_t>(result.CountStatus(sash::batch::FileStatus::kDegraded)));
  w.KV("timed_out", static_cast<int64_t>(result.CountStatus(sash::batch::FileStatus::kTimedOut)));
  w.KV("failed", static_cast<int64_t>(result.CountStatus(sash::batch::FileStatus::kFailed)));
  w.KV("crashed", static_cast<int64_t>(result.CountStatus(sash::batch::FileStatus::kCrashed)));
  w.Key("quarantined").BeginArray();
  for (const std::string& path : result.Quarantined()) {
    w.String(path);
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.Take();
}

// Runs the analyze batch against a resident server (`--via`). Returns 0 when
// *result was filled from server responses, 1 when the caller should fall
// back to local analysis (--fallback local after a transport failure), 2 on
// a hard, already-reported error.
int AnalyzeVia(const std::string& socket_path, bool fallback_local,
               const sash::batch::BatchOptions& batch, const std::vector<std::string>& files,
               sash::batch::BatchResult* result) {
  sash::serve::ClientOptions copt;
  copt.socket_path = socket_path;
  sash::serve::Client client(copt);
  result->files.clear();
  result->files.resize(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    sash::batch::FileResult& file = result->files[i];
    file.path = files[i];
    std::string source;
    if (!ReadSource(files[i], &source)) {
      file.status = sash::batch::FileStatus::kFailed;
      file.error = "cannot open " + files[i];
      continue;
    }
    sash::serve::RpcRequest req;
    req.op = "analyze";
    req.id = static_cast<int64_t>(i) + 1;
    req.name = files[i];
    req.script = std::move(source);
    req.annotations = batch.annotations_text;
    req.budget_ms = batch.deadline_ms;
    req.use_cache = batch.use_cache;
    req.lint = batch.analyzer.enable_lint;
    req.symex = batch.analyzer.enable_symex;
    req.stream = batch.analyzer.enable_stream_types;
    req.idempotence = batch.analyzer.enable_idempotence_check;
    req.coach = batch.analyzer.enable_optimization_coach;
    req.max_input_bytes = batch.analyzer.max_input_bytes;
    sash::serve::CallResult call = client.Call(req);
    if (!call.ok) {
      std::fprintf(stderr, "sash analyze: --via %s: %s\n", socket_path.c_str(),
                   call.transport_error.c_str());
      if (fallback_local) {
        std::fprintf(stderr, "sash analyze: falling back to local analysis\n");
        return 1;
      }
      return 2;
    }
    const sash::serve::RpcResponse& r = call.response;
    file.ok = r.status == sash::serve::kStatusOk;
    // The wire `file_status` maps back to the batch enum so `--via` output
    // goes through exactly the same rendering path as local output.
    file.status = !r.file_status.empty()
                      ? sash::batch::FileStatusFromName(r.file_status)
                      : (file.ok ? sash::batch::FileStatus::kOk : sash::batch::FileStatus::kFailed);
    file.degraded_reason = r.degraded_reason;
    file.cached = r.cached;
    file.warnings_or_worse = r.warnings_or_worse;
    file.report_json = r.report_json;
    file.report_text = r.report_text;
    file.error = !r.error.empty() ? r.error
                 : !file.ok       ? "server status: " + r.status
                                  : std::string();
    file.micros = r.micros;
    if (batch.use_cache && file.ok) {
      file.cached ? ++result->cache_hits : ++result->cache_misses;
    }
  }
  return 0;
}

int CmdAnalyze(Invocation& o, const std::vector<std::string>& inputs) {
  sash::batch::BatchOptions& batch = o.batch;
  const std::string& trace_out = o.trace_out;
  const std::string& journal_out = o.journal;
  const bool json = o.format == "json";
  std::vector<std::string> files = sash::batch::ExpandInputs(inputs);
  if (files.empty()) {
    std::fprintf(stderr, "sash analyze: no .sh files found under the given inputs\n");
    return 2;
  }
  bool has_stdin = false;
  for (const std::string& f : files) {
    has_stdin = has_stdin || f == "-";
  }
  if (has_stdin && files.size() > 1) {
    std::fprintf(stderr, "sash analyze: '-' cannot be combined with other inputs\n");
    return 2;
  }

  // Observability is opt-in: the tracer only when a trace file was requested,
  // the metrics registry whenever stats or JSON output will surface it, the
  // journal (with armed lock probes) only behind --journal.
  sash::obs::Tracer tracer;
  sash::obs::Registry registry;
  sash::obs::EventJournal journal(1 << 16);
  if (!trace_out.empty()) {
    batch.obs.tracer = &tracer;
  }
  if (o.stats || json || !trace_out.empty()) {
    batch.obs.metrics = &registry;
  }
  if (!journal_out.empty()) {
    batch.obs.journal = &journal;
    sash::obs::EventJournal::SetGlobal(&journal);
    sash::obs::LockProbes::Reset();
    sash::obs::LockProbes::Arm();
  }

  sash::batch::BatchResult result;
  bool via_filled = false;
  if (!o.via.empty()) {
    int rc = AnalyzeVia(o.via, o.fallback == "local", batch, files, &result);
    if (rc == 2) {
      return 2;
    }
    via_filled = rc == 0;
  }
  if (!via_filled) {
    sash::batch::BatchDriver driver(batch);
    if (has_stdin) {
      std::string source;
      if (!ReadSource("-", &source)) {
        return 2;
      }
      result = driver.RunSources({{"-", std::move(source)}});
    } else {
      result = driver.Run(files);
    }
  }

  const bool single = result.files.size() == 1;
  if (json) {
    if (single && result.files[0].ok) {
      // Single-file JSON stays a plain sash-analysis-v1 document; the bytes
      // are the cold run's whether this run was cold or warm.
      std::printf("%s\n", result.files[0].report_json.c_str());
    } else {
      std::printf("%s\n", BatchJson(result, batch.jobs, batch.use_cache).c_str());
    }
  } else {
    for (const sash::batch::FileResult& f : result.files) {
      if (!single) {
        std::printf("== %s ==\n", f.path.c_str());
      }
      if (f.ok) {
        std::printf("%s", f.report_text.c_str());
      } else {
        std::printf("error: %s\n", f.error.c_str());
      }
    }
  }
  for (const sash::batch::FileResult& f : result.files) {
    if (!f.ok) {
      std::fprintf(stderr, "sash: %s\n", f.error.c_str());
    }
  }
  if (o.stats) {
    PrintStats(registry);
  }
  if (!trace_out.empty() && !tracer.WriteChromeJson(trace_out)) {
    std::fprintf(stderr, "sash: cannot write %s\n", trace_out.c_str());
    return 2;
  }
  if (!journal_out.empty()) {
    sash::obs::LockProbes::Disarm();
    sash::obs::JournalLockSites(&journal);
    if (!journal.WriteJsonl(journal_out)) {
      std::fprintf(stderr, "sash: cannot write %s\n", journal_out.c_str());
      return 2;
    }
  }
  return result.ExitCode();
}

int CmdLint(Invocation&, const std::vector<std::string>& args) {
  std::string source;
  if (!ReadSource(args[0], &source)) {
    return 2;
  }
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(source);
  std::vector<sash::Diagnostic> findings = sash::lint::Lint(parsed.program);
  for (const sash::Diagnostic& d : parsed.diagnostics) {
    std::printf("%s\n", d.ToString().c_str());
  }
  for (const sash::Diagnostic& d : findings) {
    std::printf("%s\n", d.ToString().c_str());
  }
  return findings.empty() && parsed.ok() ? 0 : 1;
}

int CmdRun(Invocation&, const std::vector<std::string>& args) {
  std::string source;
  if (!ReadSource(args[0], &source)) {
    return 2;
  }
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(source);
  if (!parsed.ok()) {
    for (const sash::Diagnostic& d : parsed.diagnostics) {
      std::fprintf(stderr, "%s\n", d.ToString().c_str());
    }
    return 2;
  }
  sash::fs::FileSystem fs;
  fs.MakeDir("/tmp", false);
  fs.MakeDir("/home/user", true);
  sash::monitor::InterpOptions options;
  options.script_name = args[0];
  options.args.assign(args.begin() + 1, args.end());
  sash::monitor::Interpreter interp(&fs, std::move(options));
  sash::monitor::InterpResult result = interp.Run(parsed.program);
  std::fputs(result.out.c_str(), stdout);
  std::fputs(result.err.c_str(), stderr);
  return result.exit_code;
}

int CmdVerify(Invocation& o, const std::vector<std::string>& args) {
  const sash::monitor::EffectPolicy& policy = o.policy;
  std::string source;
  if (!ReadSource(args[0], &source)) {
    return 2;
  }
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(source);
  sash::fs::FileSystem fs;
  fs.MakeDir("/home/user", true);
  for (const std::string& p : policy.no_write) {
    fs.MakeDir(p, true);
  }
  sash::monitor::VerifyReport report = sash::monitor::Verify(
      parsed.program, policy, &fs, sash::monitor::InterpOptions{}, /*execute=*/true);
  for (const sash::monitor::StaticPolicyFinding& f : report.static_findings) {
    std::printf("static [%s] %s -> %s\n", f.rule.c_str(), f.command.c_str(), f.path.c_str());
  }
  if (report.blocked) {
    std::printf("BLOCKED: %s\n", report.block_reason.c_str());
    return 1;
  }
  std::printf("verified run completed (exit %d)\n", report.run.exit_code);
  return report.static_findings.empty() ? 0 : 1;
}

int CmdMine(Invocation& inv, const std::vector<std::string>& args) {
  const std::string command = args.empty() ? "" : args[0];
  std::optional<sash::batch::Cache> cache;
  if (inv.batch.use_cache) {
    cache.emplace(inv.batch.cache_dir);
  }
  sash::batch::Cache* cache_ptr = cache.has_value() ? &*cache : nullptr;
  if (!command.empty()) {
    sash::mining::MiningOutcome o = sash::batch::CachedMineCommand(cache_ptr, command);
    if (!o.ok) {
      std::fprintf(stderr, "sash mine: %s\n", o.error.c_str());
      return 1;
    }
    std::printf("%s — %d probes, %d cases, %.1f%% agreement\n%s", o.command.c_str(), o.probes,
                o.cases, 100.0 * o.validation.Agreement(), o.spec.ToString().c_str());
    return 0;
  }
  for (const sash::mining::MiningOutcome& o : sash::batch::CachedMineAll(cache_ptr)) {
    std::printf("%-10s %s (%d probes, %d cases, %.1f%% agreement)\n", o.command.c_str(),
                o.ok ? "ok" : o.error.c_str(), o.probes, o.cases,
                100.0 * o.validation.Agreement());
  }
  return 0;
}

// `sash profile`: run a batch under full instrumentation — armed lock
// probes, event journal, tracer, metrics — and leave three artifacts behind:
// the journal (sash-events-v1 JSONL), a Chrome trace with per-worker lanes
// and counter tracks, and a collapsed-stack file for flamegraph tools. The
// contention/utilization summary prints to stdout.
int CmdProfile(Invocation& o, const std::vector<std::string>& inputs) {
  sash::batch::BatchOptions& batch = o.batch;
  const std::string journal_out = o.journal.empty() ? "sash-journal.jsonl" : o.journal;
  const std::string trace_out = o.trace_out.empty() ? "sash-trace.json" : o.trace_out;
  const std::string folded_out = o.folded.empty() ? "sash-profile.folded" : o.folded;
  std::vector<std::string> files = sash::batch::ExpandInputs(inputs);
  if (files.empty()) {
    std::fprintf(stderr, "sash profile: no .sh files found under the given inputs\n");
    return 2;
  }

  sash::obs::Tracer tracer;
  sash::obs::Registry registry;
  sash::obs::EventJournal journal(1 << 16);
  batch.obs.tracer = &tracer;
  batch.obs.metrics = &registry;
  batch.obs.journal = &journal;
  sash::obs::EventJournal::SetGlobal(&journal);
  sash::obs::LockProbes::Reset();
  sash::obs::LockProbes::Arm();

  sash::batch::BatchDriver driver(batch);
  sash::batch::BatchResult result = driver.Run(files);

  sash::obs::LockProbes::Disarm();
  sash::obs::JournalLockSites(&journal);

  bool io_ok = true;
  if (!journal.WriteJsonl(journal_out)) {
    std::fprintf(stderr, "sash profile: cannot write %s\n", journal_out.c_str());
    io_ok = false;
  }
  if (!tracer.WriteChromeJson(trace_out)) {
    std::fprintf(stderr, "sash profile: cannot write %s\n", trace_out.c_str());
    io_ok = false;
  }
  {
    std::ofstream out(folded_out, std::ios::trunc);
    if (out) {
      out << sash::obs::CollapsedStacks(tracer.Events());
    }
    if (!out) {
      std::fprintf(stderr, "sash profile: cannot write %s\n", folded_out.c_str());
      io_ok = false;
    }
  }

  sash::obs::JournalSummary summary = sash::obs::SummarizeEvents(journal.Drain());
  std::printf("profiled %zu file(s), jobs=%d\n", result.files.size(),
              batch.jobs > 0 ? batch.jobs : 0);
  std::printf("%s", sash::obs::FormatReport(summary).c_str());
  // Each analysis has its own regex algebra memo; the counters sum them.
  sash::obs::MetricsSnapshot metrics = registry.Snapshot();
  const long long memo_hits = metrics.counters["regex.memo.hits"];
  const long long memo_probes = memo_hits + metrics.counters["regex.memo.misses"];
  std::printf("== regex memo ==\n  hits=%lld  misses=%lld  hit rate=%.1f%%  peak languages=%lld\n",
              memo_hits, memo_probes - memo_hits,
              memo_probes > 0 ? 100.0 * static_cast<double>(memo_hits) / memo_probes : 0.0,
              static_cast<long long>(metrics.gauges["regex.memo.languages"]));
  std::printf("artifacts: %s, %s, %s\n", journal_out.c_str(), trace_out.c_str(),
              folded_out.c_str());
  if (!io_ok) {
    return 2;
  }
  return result.ExitCode();
}

// `sash report`: aggregate profiling/bench artifacts into a human summary.
// A --journal file yields the contention/worker/phase report; sash-batch-v1
// and sash-bench-v1 JSON documents are summarized after it.
int CmdReport(Invocation& o, const std::vector<std::string>& json_paths) {
  const std::string& journal_path = o.journal;
  if (journal_path.empty() && json_paths.empty()) {
    return Usage();
  }

  if (!journal_path.empty()) {
    std::string text;
    if (!ReadSource(journal_path, &text)) {
      return 2;
    }
    std::vector<std::string> problems;
    std::optional<sash::obs::JournalSummary> summary =
        sash::obs::SummarizeJsonl(text, &problems);
    if (!summary.has_value()) {
      std::fprintf(stderr, "sash report: %s is not a valid %s document:\n", journal_path.c_str(),
                   sash::obs::kEventsSchema);
      for (const std::string& p : problems) {
        std::fprintf(stderr, "  %s\n", p.c_str());
      }
      return 2;
    }
    std::printf("%s", sash::obs::FormatReport(*summary).c_str());
  }

  for (const std::string& path : json_paths) {
    std::string text;
    if (!ReadSource(path, &text)) {
      return 2;
    }
    std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(text);
    if (!doc.has_value() || !doc->is_object()) {
      std::fprintf(stderr, "sash report: %s is not a JSON document\n", path.c_str());
      return 2;
    }
    const sash::obs::JsonValue* schema = doc->Find("schema");
    std::string kind = schema != nullptr && schema->is_string() ? schema->string : "?";
    std::printf("== %s (%s) ==\n", path.c_str(), kind.c_str());
    if (kind == sash::batch::kBatchSchema) {
      if (const sash::obs::JsonValue* summary = doc->Find("summary");
          summary != nullptr && summary->is_object()) {
        for (const char* key :
             {"files", "errors", "files_with_findings", "degraded", "timed_out", "failed",
              "crashed"}) {
          if (const sash::obs::JsonValue* v = summary->Find(key); v != nullptr && v->is_number()) {
            std::printf("  %-20s %lld\n", key, static_cast<long long>(v->number));
          }
        }
      }
      if (const sash::obs::JsonValue* cache = doc->Find("cache");
          cache != nullptr && cache->is_object()) {
        const sash::obs::JsonValue* hits = cache->Find("hits");
        const sash::obs::JsonValue* misses = cache->Find("misses");
        std::printf("  %-20s %lld hits / %lld misses\n", "cache",
                    hits != nullptr && hits->is_number() ? static_cast<long long>(hits->number) : 0,
                    misses != nullptr && misses->is_number()
                        ? static_cast<long long>(misses->number)
                        : 0);
      }
    } else if (kind == "sash-bench-v1") {
      const sash::obs::JsonValue* name = doc->Find("name");
      if (name != nullptr && name->is_string()) {
        std::printf("  bench: %s\n", name->string.c_str());
      }
      if (const sash::obs::JsonValue* metrics = doc->Find("metrics");
          metrics != nullptr && metrics->is_object()) {
        for (const auto& [key, value] : metrics->object) {
          if (value.is_number()) {
            std::printf("  %-36s %.3f\n", key.c_str(), value.number);
          }
        }
      }
    } else {
      std::printf("  (no summarizer for this schema)\n");
    }
  }
  return 0;
}

// `sash serve`: the resident analysis daemon. Binds a unix socket, keeps
// every warm structure resident, and answers sash-rpc-v1 requests until a
// graceful drain (SIGTERM/SIGINT or an rpc `shutdown`) completes — then
// exits 0. Startup failures (live sibling on the socket, unwritable pidfile)
// exit 2.
int CmdServe(Invocation& o, const std::vector<std::string>&) {
  sash::serve::ServerOptions options = std::move(o.server);
  options.batch = std::move(o.batch);
  sash::serve::SupervisorOptions& sup_options = o.supervisor;
  const std::string& journal_out = o.journal;
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "sash serve: --socket PATH is required\n");
    return Usage();
  }

  if (o.supervise) {
    // Self-healing mode: the daemon runs in a child; this process only
    // watches, restarts, and forwards signals. The pidfile (written by the
    // child) names the daemon, not the supervisor. Exit 0 after the daemon's
    // graceful drain, 2/3 on startup failure, 1 when the restart budget is
    // exhausted. --journal is honored per incarnation: each child keeps its
    // own journal and flushes it on graceful drain (a SIGKILLed incarnation
    // cannot flush; the last healthy one wins).
    sup_options.journal_path = journal_out;
    sash::serve::Supervisor supervisor(std::move(options), sup_options);
    sash::serve::Supervisor::InstallSignalForward(&supervisor);
    std::fprintf(stderr, "sash serve: supervising (pid %d)\n", static_cast<int>(getpid()));
    std::string error;
    int rc = supervisor.Run(&error);
    sash::serve::Supervisor::InstallSignalForward(nullptr);
    if (!error.empty()) {
      std::fprintf(stderr, "sash serve: %s\n", error.c_str());
    }
    std::fprintf(stderr, "sash serve: supervisor exiting (%lld restarts)\n",
                 static_cast<long long>(supervisor.restarts()));
    return rc;
  }

  sash::obs::Registry registry;
  sash::obs::EventJournal journal(1 << 16);
  options.batch.obs.metrics = &registry;
  if (!journal_out.empty()) {
    options.batch.obs.journal = &journal;
    sash::obs::EventJournal::SetGlobal(&journal);
  }

  sash::serve::Server server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "sash serve: %s\n", error.c_str());
    return 2;
  }
  sash::serve::Server::InstallSignalDrain(&server);
  std::fprintf(stderr, "sash serve: listening on %s (pid %d)\n",
               server.options().socket_path.c_str(), static_cast<int>(getpid()));
  server.AwaitStopped();
  sash::serve::Server::InstallSignalDrain(nullptr);
  server.Stop();
  sash::serve::ServerStats final_stats = server.stats();
  std::fprintf(stderr,
               "sash serve: drained (%lld requests, %lld responses, %lld shed, "
               "%lld timed out, %lld cancelled at drain)\n",
               static_cast<long long>(final_stats.requests),
               static_cast<long long>(final_stats.responses),
               static_cast<long long>(final_stats.shed),
               static_cast<long long>(final_stats.timeouts),
               static_cast<long long>(final_stats.drain_cancelled));
  if (o.stats) {
    PrintStats(registry);
  }
  if (!journal_out.empty() && !journal.WriteJsonl(journal_out)) {
    std::fprintf(stderr, "sash serve: cannot write %s\n", journal_out.c_str());
    return 2;
  }
  return 0;
}

int CmdTypeof(Invocation&, const std::vector<std::string>& args) {
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(args[0]);
  if (!parsed.ok() || parsed.program.body == nullptr) {
    std::fprintf(stderr, "sash typeof: cannot parse pipeline\n");
    return 2;
  }
  sash::rtypes::TypeLibrary lib = sash::rtypes::TypeLibrary::Default();
  sash::stream::PipelineChecker checker(lib);
  sash::stream::PipelineReport report = checker.Check(*parsed.program.body);
  for (const sash::stream::StageReport& s : report.stages) {
    std::printf("%-30s :: %s%s\n", s.command.c_str(),
                s.type_display.value_or("(untyped)").c_str(),
                s.killed_stream ? "   <- DEAD STREAM" : s.type_error ? "   <- TYPE ERROR" : "");
  }
  if (report.final_output.has_value()) {
    std::printf("output line type: %s  (typeOf: %s)\n", report.final_output->pattern().c_str(),
                sash::rtypes::TypeOf(lib, *report.final_output).c_str());
  }
  return report.has_dead_stream || report.has_type_error ? 1 : 0;
}

int CmdVersion(Invocation&, const std::vector<std::string>&) {
  std::printf("sash %s\n", sash::core::kVersion);
  return 0;
}

constexpr Subcommand kSubcommands[] = {
    {"analyze", kAnalyze, "<script.sh|dir>...", 1, kMany, false, CmdAnalyze},
    {"serve", kServe, "", 0, 0, false, CmdServe},
    {"profile", kProfile, "<script.sh|dir>...", 1, kMany, false, CmdProfile},
    {"report", kReport, "[batch.json|bench.json]...", 0, kMany, false, CmdReport},
    {"lint", 0, "<script.sh>", 1, 1, false, CmdLint},
    {"run", 0, "<script.sh> [args...]", 1, kMany, true, CmdRun},
    {"verify", kVerify, "<script.sh>", 1, 1, false, CmdVerify},
    {"mine", kMine, "[command]", 0, 1, false, CmdMine},
    {"typeof", 0, "'<pipeline>'", 1, 1, false, CmdTypeof},
    {"version", 0, "", 0, 0, false, CmdVersion},
};

int Usage() {
  Invocation unused;
  const std::vector<Flag> flags = Flags(unused);
  std::fprintf(stderr, "usage: sash <command> [options]\n");
  for (const Subcommand& cmd : kSubcommands) {
    std::fprintf(stderr, "  %s\n", Synopsis(cmd, flags).c_str());
  }
  std::fprintf(stderr,
               "option values: --flag VALUE or --flag=VALUE (-jN or -j N); an unknown\n"
               "option, a missing value or a wrong operand count exits 2\n"
               "exit codes: 0 clean, 1 findings (warnings or worse), 2 usage/IO error\n"
               "batch: all readable inputs are analyzed; exit 2 if any input was\n"
               "unreadable, failed, or timed out (partial batch), else 1 if any file\n"
               "had findings, else 0. --deadline-ms bounds each file's analysis (an\n"
               "expired file keeps its partial report, status \"timed_out\");\n"
               "--fail-fast stops scheduling new files after the first failure.\n"
               "--isolate runs each file's analysis in a forked, rlimit-capped worker\n"
               "(--max-rss-mb / --worker-cpu-s imply it): a crashing or OOMing file\n"
               "gets status \"crashed\" (exit 2) with a repro banked under\n"
               "<cache-dir>/quarantine/, and its neighbors are untouched\n"
               "serve: --socket is required; exit 0 after a graceful drain\n"
               "(SIGTERM/SIGINT), 2 on startup failure. --supervise restarts the\n"
               "daemon on abnormal death (bounded backoff, heartbeat watchdog); exit 1\n"
               "when --max-restarts is exhausted.\n"
               "analyze --via uses a resident server (bounded retry with\n"
               "backoff); --fallback local degrades to in-process analysis when the\n"
               "server is unreachable, --fallback fail (default) exits 2\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = argc < 2 ? "" : argv[1];
  if (name == "--version") {
    name = "version";
  }
  for (const Subcommand& cmd : kSubcommands) {
    if (name != cmd.name) {
      continue;
    }
    Invocation o;
    std::vector<std::string> operands;
    if (!ParseArgs(cmd, Flags(o), {argv + 2, argv + argc}, &operands)) {
      return 2;
    }
    // Resource caps only apply inside a worker process, so they imply one.
    if (o.batch.max_rss_mb > 0 || o.batch.worker_cpu_s > 0) {
      o.batch.isolate = true;
    }
    if (!o.annotations.empty() && !ReadSource(o.annotations, &o.batch.annotations_text)) {
      return 2;
    }
    return cmd.run(o, operands);
  }
  return Usage();
}
