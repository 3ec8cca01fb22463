// perfbench: the end-to-end benchmark's binary (run.py runs it).
//
//   perfbench prepare --workload W --seed S --data DIR --repo R
//       Generates the workload's corpus and, from the seed, its traffic;
//       writes the traffic to DIR/inputs.bin and, unless R exists, the
//       corpus as an on-disk repository R (the corpus does not depend on
//       the seed); prints the input fingerprint.
//
//   perfbench serve --data DIR --repo R --seconds T [--trace 0|1]
//                   [--fresh F] [--mirror M] [--spans FILE] [--prefilter X]
//       Set-up: SchemaRepository::Open(R) -> ServingCorpus::Create ->
//       StartServing with `schemr serve`'s settings -> first 200 from
//       POST /search. Then warms up, measures one closed-loop search
//       connection for T seconds (plus the uploads on ingest_10k), checks
//       every answer (F: scratch copy for the fresh-corpus check), and
//       prints "RESULT {...}". With --trace 1 it decomposes set-up, runs a
//       second, traced window and reports per-layer numbers from spans
//       recorded around the calls this file makes into each layer (M: a
//       pristine repository copy to mirror inserts into; FILE: where the
//       spans go).
//
//   Exit codes: 0 after RESULT; 2 when the benchmark itself cannot go on
//   (bad flags or inputs, an unwritable file); 3 after a "FAULT {...}"
//   line when the program under test fails so that no result can follow
//   (a set-up or in-process call returns an error, the first or a
//   warm-up search is not a 200).

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/query_parser.h"
#include "core/serving_corpus.h"
#include "index/indexer.h"
#include "index/versioned_index.h"
#include "inputs.h"
#include "match/features.h"
#include "obs/metrics.h"
#include "parse/ddl_parser.h"
#include "repo/schema_repository.h"
#include "service/http_server.h"
#include "service/schemr_service.h"

namespace schemr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void DieIf(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

/// A fault of the program under test, not of the benchmark: `attempted`
/// operations were sent and the last one failed.
[[noreturn]] void Fault(const std::string& what, size_t attempted = 1) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::printf("FAULT {\"attempted\": %zu, \"failed\": 1}\n", attempted);
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(3);
}

void FaultIf(const Status& status, const std::string& what) {
  if (!status.ok()) Fault(what + ": " + status.ToString());
}

// --- small statistics -------------------------------------------------------

/// The q-quantile of `values` (nearest rank on the sorted samples).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The highest quantile not above `q` that leaves at least ten samples
/// beyond it.
double TailQuantileLevel(size_t n, double q) {
  if (n == 0) return q;
  return std::min(q, 1.0 - 10.0 / static_cast<double>(n));
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

// --- process diagnostics ----------------------------------------------------

/// A /proc/self/status field in kB ("VmHWM", "VmRSS"), as MB.
double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes times;
  for (int field = 0; field < 10; ++field) {
    double value = 0.0;
    if (!(in >> value)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    if (field < 8) times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

/// Seconds on a CPU clock (CLOCK_PROCESS_CPUTIME_ID: every thread of
/// this process; CLOCK_THREAD_CPUTIME_ID or a pthread's clock: one
/// thread). Time the hypervisor stole from a vCPU is not counted.
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one_minute = 0.0;
  in >> one_minute;
  return one_minute;
}

/// Wall time of a fixed integer loop: tells a slow machine from a slow
/// program when two runs disagree.
double CpuReferenceMs() {
  const double start = Now();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  static volatile uint64_t sink;  // keeps the loop from being folded away
  sink = x;
  (void)sink;
  return (Now() - start) * 1e3;
}

// --- spans --------------------------------------------------------------

/// In-memory span log, written out when the run ends. Spans are recorded
/// only here, around the public calls this file makes into each layer.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t parent = 0;
    uint64_t request = 0;
    double start = 0.0;
    double end = 0.0;
  };

  uint64_t Begin(std::string name, uint64_t parent, uint64_t request) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), parent, request, Now(), 0.0});
    return spans_.size();
  }

  /// Ends span `id`; returns its duration in seconds.
  double End(uint64_t id) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[id - 1];
    span.end = now;
    return span.end - span.start;
  }

  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back((span.end - span.start) * 1e3);
    }
    return out;
  }

  /// Writes one line per span: id, parent, request, name, start and end
  /// (s, relative to the first span), duration and self time (ms; self =
  /// duration minus the part its children cover).
  Status Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size() + 1);
    for (const Span& span : spans_) {
      children[span.parent].push_back({span.start, span.end});
    }
    std::ofstream out(path, std::ios::trunc);
    out << "id\tparent\trequest\tname\tstart_s\tend_s\tdur_ms\tself_ms\n";
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    char line[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::vector<std::pair<double, double>> covered = children[i + 1];
      std::sort(covered.begin(), covered.end());
      double covered_seconds = 0.0;
      double reach = span.start;
      for (const auto& [start, end] : covered) {
        const double from = std::max(start, reach);
        const double to = std::min(end, span.end);
        if (to > from) covered_seconds += to - from;
        reach = std::max(reach, end);
      }
      const double duration = span.end - span.start;
      std::snprintf(line, sizeof(line),
                    "%zu\t%llu\t%llu\t%s\t%.6f\t%.6f\t%.4f\t%.4f\n", i + 1,
                    static_cast<unsigned long long>(span.parent),
                    static_cast<unsigned long long>(span.request),
                    span.name.c_str(), span.start - origin, span.end - origin,
                    duration * 1e3, (duration - covered_seconds) * 1e3);
      out << line;
    }
    out.close();
    if (!out) return Status::IOError("cannot write " + path);
    return Status::OK();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- registry deltas -----------------------------------------------------

const char* const kCounters[] = {
    "schemr_result_cache_hits_total",
    "schemr_result_cache_misses_total",
    "schemr_index_postings_scanned_total",
    "schemr_search_candidates_extracted_total",
    "schemr_search_candidates_skipped_total",
    "schemr_entity_graph_cache_builds_total",
    "schemr_audit_bytes_written_total",
    "schemr_requests_shed_total",
    "schemr_http_shed_total",
    "schemr_searches_degraded_total",
    "schemr_matcher_failures_total",
    "schemr_store_write_bytes_total",
};

using CounterValues = std::map<std::string, double>;

CounterValues ReadCounters() {
  CounterValues values;
  for (const MetricsRegistry::MetricSnapshot& metric :
       MetricsRegistry::Global().Collect()) {
    if (metric.kind == MetricsRegistry::MetricKind::kCounter) {
      values[metric.name] = static_cast<double>(metric.counter_value);
    }
  }
  for (const char* name : kCounters) values.emplace(name, 0.0);
  return values;
}

CounterValues Delta(const CounterValues& before, const CounterValues& after) {
  CounterValues delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return delta;
}

/// A live counter, for deltas around single calls (one thread at a time).
uint64_t CounterNow(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

// --- the serving stack ------------------------------------------------------

struct Stack {
  std::unique_ptr<ServingCorpus> corpus;
  std::unique_ptr<SchemrService> service;
  int port = 0;
};

SearchRequest MakeRequest(const SearchItem& item, double prefilter) {
  SearchRequest request;
  request.keywords = item.keywords;
  request.fragment = item.fragment;
  request.prefilter = prefilter;
  return request;
}

Result<HttpReply> PostSearch(int port, const std::string& body) {
  HttpCallOptions options;
  options.method = "POST";
  options.body = body;
  options.attempt_timeout_seconds = 30.0;
  return HttpCall("127.0.0.1", port, "/search", options);
}

/// `schemr serve`'s settings: result cache 256, audit on, ephemeral
/// introspection and search ports, default executor and HTTP pools.
Status StartService(const std::string& repo_dir, Stack* stack) {
  stack->service = std::make_unique<SchemrService>(stack->corpus.get());
  SCHEMR_RETURN_IF_ERROR(stack->service->EnableAudit(repo_dir + "/audit"));
  ServingOptions serving;
  serving.introspection_port = 0;
  serving.search_port = 0;
  serving.result_cache_capacity = 256;
  SCHEMR_RETURN_IF_ERROR(stack->service->StartServing(serving));
  stack->port = stack->service->search_server()->port();
  return Status::OK();
}

Status FirstSearch(const Stack& stack, const std::string& body) {
  SCHEMR_ASSIGN_OR_RETURN(HttpReply reply, PostSearch(stack.port, body));
  if (reply.status != 200) {
    return Status::Internal("first search answered " +
                            std::to_string(reply.status));
  }
  return Status::OK();
}

struct SetupTime {
  double cpu_s = 0.0;   ///< the process's CPU time (every thread)
  double wall_s = 0.0;
};

/// Set-up as a restart pays it.
SetupTime SetUp(const std::string& repo_dir, const std::string& first_body,
                Stack* stack) {
  const double cpu = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const double start = Now();
  auto repo = SchemaRepository::Open(repo_dir);
  FaultIf(repo.status(), "opening repository");
  auto corpus = ServingCorpus::Create(std::move(*repo));
  FaultIf(corpus.status(), "creating serving corpus");
  stack->corpus = std::move(*corpus);
  FaultIf(StartService(repo_dir, stack), "starting service");
  FaultIf(FirstSearch(*stack, first_body), "first search");
  return {CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu, Now() - start};
}

/// The traced set-up's layer timings.
struct TracedSetup {
  double open_s = 0.0;
  double index_build_s = 0.0;
  double catalog_build_s = 0.0;
  double create_s = 0.0;
  double start_s = 0.0;
  double index_rss_mb = 0.0;
  double catalog_rss_mb = 0.0;
};

/// Set-up with each layer timed on its own: Open, then the index and the
/// feature catalog built standalone over the opened view (Create builds
/// both again internally), then Create, then StartServing -> first 200.
TracedSetup SetUpTraced(const std::string& repo_dir,
                        const std::string& first_body, SpanLog* spans,
                        Stack* stack) {
  TracedSetup traced;
  const uint64_t root = spans->Begin("setup", 0, 0);
  uint64_t span = spans->Begin("repo.open", root, 0);
  auto repo = SchemaRepository::Open(repo_dir);
  FaultIf(repo.status(), "opening repository");
  traced.open_s = spans->End(span);
  std::shared_ptr<const RepositoryView> view = (*repo)->View();

  span = spans->Begin("index.build", root, 0);
  double rss = ProcStatusMb("VmRSS");
  auto index = std::make_unique<InvertedIndex>();
  FaultIf(view->ForEach([&index](const Schema& schema) {
            return index->AddDocument(FlattenSchema(schema));
          }),
          "building index");
  traced.index_rss_mb = ProcStatusMb("VmRSS") - rss;
  traced.index_build_s = spans->End(span);

  span = spans->Begin("match.catalog_build", root, 0);
  rss = ProcStatusMb("VmRSS");
  std::shared_ptr<const MatchFeatureCatalog> catalog;
  {
    CatalogBuilder builder;
    FaultIf(view->ForEach([&builder](const Schema& schema) {
              builder.Add(schema);
              return Status::OK();
            }),
            "building catalog");
    catalog = builder.Build();
  }
  traced.catalog_rss_mb = ProcStatusMb("VmRSS") - rss;
  traced.catalog_build_s = spans->End(span);
  catalog.reset();
  index.reset();
  view.reset();

  span = spans->Begin("core.create", root, 0);
  auto corpus = ServingCorpus::Create(std::move(*repo));
  FaultIf(corpus.status(), "creating serving corpus");
  stack->corpus = std::move(*corpus);
  traced.create_s = spans->End(span);

  span = spans->Begin("service.start", root, 0);
  FaultIf(StartService(repo_dir, stack), "starting service");
  FaultIf(FirstSearch(*stack, first_body), "first search");
  traced.start_s = spans->End(span);
  spans->End(root);
  return traced;
}

// --- the measured window ------------------------------------------------

struct SearchSample {
  uint32_t item = 0;
  double rtt_ms = 0.0;
  double cpu_ms = 0.0;  ///< process CPU time spent while it was in flight
  size_t bytes = 0;
  int status = 0;
  bool degraded = false;
  bool wrong = false;
  // Traced windows only.
  bool cache_hit = false;
  SearchStats stats;
  size_t extracted = 0;
  size_t returned = 0;
};

struct IngestSample {
  double latency_ms = 0.0;  ///< due (or start) -> id visible in Snapshot()
  double cpu_ms = 0.0;      ///< the ingesting thread's CPU time for it
  double busy_ms = 0.0;     ///< start -> visible
  double late_ms = 0.0;     ///< how late the generator started it
  uint64_t store_bytes = 0;
  bool ok = false;
};

/// The traced run's same-size mirror repository: Ingest's repository
/// step, timed alone. (The index step is mirrored on a fresh clone of
/// the live index per upload; see RunMirrors.)
struct Mirror {
  std::unique_ptr<SchemaRepository> repository;
  /// Uploads of the traced window, mirrored after it so the mirror work
  /// never competes with the measured ingests and searches.
  std::vector<std::pair<uint64_t, Schema>> pending;
};

struct Window {
  std::vector<SearchSample> searches;
  std::vector<IngestSample> ingests;
  double seconds = 0.0;
  CounterValues counters;  ///< registry deltas over the window
  double steal_frac = 0.0;
};

class Runner {
 public:
  Runner(const Inputs& inputs, Stack* stack, double prefilter)
      : inputs_(inputs), stack_(stack) {
    bodies_.reserve(inputs.searches.size());
    for (const SearchItem& item : inputs.searches) {
      bodies_.push_back(SearchRequestToXml(MakeRequest(item, prefilter)));
    }
    read_only_ = inputs.searches_per_upload == 0;
  }

  const std::string& body(size_t order_index) const {
    return bodies_[inputs_.order[order_index % inputs_.order.size()]];
  }

  /// Sends the untimed warm-up; an answer other than a 200 is a fault.
  void WarmUp() {
    for (size_t i = 0; i < inputs_.warmup; ++i) {
      auto reply = PostSearch(stack_->port, body(i));
      if (!reply.ok() || reply->status != 200) {
        // Sent so far: the set-up's first search and i + 1 warm-ups.
        Fault("warm-up search " + std::to_string(i) + " failed", i + 2);
      }
    }
    next_ = inputs_.warmup;
  }

  /// One closed-loop search connection for `seconds`, plus, when the
  /// workload ingests, one upload arriving with every
  /// `searches_per_upload` searches sent. Uploads arrive whether or not
  /// the writer has finished the previous one (their latency counts from
  /// arrival), but at a fixed share of the searches rather than a fixed
  /// wall-clock rate, so a slower machine does not change how many
  /// searches each commit's cold caches serve. `spans` non-null makes
  /// this the traced window.
  Window Measure(double seconds, SpanLog* spans, Mirror* mirror) {
    Window window;
    const CounterValues before = ReadCounters();
    const CpuTimes cpu_before = ReadCpuTimes();
    const double start = Now();
    const double deadline = start + seconds;
    std::mutex arrivals_mutex;
    std::condition_variable arrived;
    std::vector<double> arrivals;  // guarded by arrivals_mutex
    bool closed = false;           // guarded by arrivals_mutex
    std::thread ingester;
    if (!read_only_) {
      ingester = std::thread([&] {
        for (size_t k = 0;; ++k) {
          double due = 0.0;
          {
            std::unique_lock<std::mutex> lock(arrivals_mutex);
            arrived.wait(lock, [&] { return closed || k < arrivals.size(); });
            if (k == arrivals.size()) return;
            due = arrivals[k];
          }
          window.ingests.push_back(IngestOne(due, spans, mirror));
        }
      });
      pthread_getcpuclockid(ingester.native_handle(), &ingest_clock_);
    }
    double last_end = start;
    for (size_t sent = 0; Now() < deadline; ++sent) {
      if (!read_only_ && sent % inputs_.searches_per_upload == 0) {
        std::lock_guard<std::mutex> lock(arrivals_mutex);
        arrivals.push_back(Now());
        arrived.notify_one();
      }
      window.searches.push_back(SearchOne(next_++, spans));
      last_end = Now();
    }
    if (ingester.joinable()) {
      {
        std::lock_guard<std::mutex> lock(arrivals_mutex);
        closed = true;
        arrived.notify_one();
      }
      ingester.join();
    }
    ingest_clock_ = 0;
    window.seconds = last_end - start;
    const CpuTimes cpu_after = ReadCpuTimes();
    window.counters = Delta(before, ReadCounters());
    const double total = cpu_after.total - cpu_before.total;
    window.steal_frac =
        total > 0 ? (cpu_after.steal - cpu_before.steal) / total : 0.0;
    return window;
  }

  /// Closed-loop ingest of every upload: the traced run's ingest layers
  /// on the read-only workloads, measured after their windows.
  std::vector<IngestSample> IngestProbe(SpanLog* spans, Mirror* mirror) {
    std::vector<IngestSample> samples;
    for (size_t k = 0; k < inputs_.uploads.size(); ++k) {
      samples.push_back(IngestOne(Now(), spans, mirror));
    }
    return samples;
  }

  /// The calls Ingest makes inside, each timed alone on a same-size
  /// mirror, outside the ingest span: Insert into the mirror repository;
  /// VersionedIndex::AddDocument (whole-index clone + add) on an index
  /// seeded with a copy of the live one, so it clones what Ingest
  /// clones; the new schema's features and signature.
  void RunMirrors(SpanLog* spans, Mirror* mirror) {
    // Enough for the medians; each mirror clones the whole live index.
    constexpr size_t kMirrored = 30;
    for (size_t i = 0; i < mirror->pending.size() && i < kMirrored; ++i) {
      auto& [request_id, schema] = mirror->pending[i];
      RunMirror(std::move(schema), request_id, spans, mirror);
    }
    mirror->pending.clear();
  }

  /// Compares every read-only response with the exact reference on
  /// `snapshot`, the one the window served: no cache, no pruning, serial
  /// scoring, no prefilter. Marks wrong samples; returns how many
  /// distinct requests it checked.
  size_t CheckAgainstReference(std::shared_ptr<const CorpusSnapshot> snapshot,
                               std::vector<SearchSample>* samples) {
    const SchemrService pinned(stack_->corpus->repository(),
                               std::move(snapshot));
    std::vector<uint32_t> items;
    for (const auto& [item, body] : first_body_) items.push_back(item);
    std::vector<char> matches(inputs_.searches.size(), 1);
    ParallelFor(items.size(), [&](size_t i) {
      const uint32_t item = items[i];
      matches[item] = ExactXml(pinned, item) == first_body_.at(item);
    });
    for (SearchSample& sample : *samples) {
      if (!matches[sample.item]) sample.wrong = true;
    }
    return items.size();
  }

  /// After an ingest window, with the writer stopped, every distinct
  /// request must pass two checks. Sent over the wire once more, as the
  /// window sent it (through the result cache, pruning and any
  /// prefilter), its answer must be byte-identical to the exact reference
  /// on the live snapshot. And the live corpus must answer it exactly as
  /// a corpus freshly created over the same repository does. Returns how
  /// many requests failed either check.
  size_t CheckAfterIngest(const std::string& live_dir,
                          const std::string& fresh_dir) {
    const size_t n = inputs_.searches.size();
    std::vector<std::string> reference(n);
    ParallelFor(n, [&](size_t item) {
      reference[item] = ExactXml(*stack_->service, item);
    });
    std::vector<char> wrong(n, 0);
    for (size_t item = 0; item < n; ++item) {
      auto reply = PostSearch(stack_->port, bodies_[item]);
      wrong[item] = !reply.ok() || reply->status != 200 ||
                    reply->body != reference[item];
    }

    namespace fs = std::filesystem;
    fs::remove_all(fresh_dir);
    fs::copy(live_dir, fresh_dir, fs::copy_options::recursive);
    fs::remove_all(fresh_dir + "/audit");
    auto repo = SchemaRepository::Open(fresh_dir);
    FaultIf(repo.status(), "opening the fresh repository");
    auto fresh = ServingCorpus::Create(std::move(*repo));
    FaultIf(fresh.status(), "creating the fresh corpus");
    const bool same_size = (*fresh)->Snapshot()->schemas->Size() ==
                           stack_->corpus->Snapshot()->schemas->Size();
    SchemrService fresh_service(fresh->get());
    ParallelFor(n, [&](size_t item) {
      if (!same_size || ExactXml(fresh_service, item) != reference[item]) {
        wrong[item] = 1;
      }
    });
    return static_cast<size_t>(std::count(wrong.begin(), wrong.end(), 1));
  }

 private:
  SearchSample SearchOne(size_t order_index, SpanLog* spans) {
    SearchSample sample;
    sample.item = inputs_.order[order_index % inputs_.order.size()];
    const std::string& request = bodies_[sample.item];
    const uint64_t request_id = order_index + 1;
    const uint64_t root =
        spans != nullptr ? spans->Begin("search", 0, request_id) : 0;
    const uint64_t call =
        spans != nullptr ? spans->Begin("service.http_call", root, request_id)
                         : 0;
    const uint64_t hits_before =
        spans != nullptr ? CounterNow("schemr_result_cache_hits_total") : 0;
    const double ingest_cpu =
        ingest_clock_ != 0 ? CpuSeconds(ingest_clock_) : 0.0;
    const double cpu = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double start = Now();
    auto reply = PostSearch(stack_->port, request);
    sample.rtt_ms = (Now() - start) * 1e3;
    sample.cpu_ms = (CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu -
                     (ingest_clock_ != 0
                          ? CpuSeconds(ingest_clock_) - ingest_cpu
                          : 0.0)) *
                    1e3;
    if (spans != nullptr) {
      spans->End(call);
      sample.cache_hit =
          CounterNow("schemr_result_cache_hits_total") > hits_before;
    }
    if (reply.ok()) {
      sample.status = reply->status;
      sample.bytes = reply->body.size();
      sample.degraded =
          reply->body.find(" degraded=\"true\"") != std::string::npos;
      if (read_only_ && spans == nullptr && reply->status == 200) {
        auto [it, first] = first_body_.emplace(sample.item, reply->body);
        if (!first && it->second != reply->body) sample.wrong = true;
      }
    }
    if (spans != nullptr) {
      ReplayInProcess(sample.item, root, request_id, spans, &sample);
      spans->End(root);
    }
    return sample;
  }

  /// The traced window's in-process re-run of one request, outside the
  /// client span: ParseQuery, the query's feature prep, and the engine's
  /// Search with the cache bypassed and SearchStats attached.
  void ReplayInProcess(uint32_t item, uint64_t root, uint64_t request_id,
                       SpanLog* spans, SearchSample* sample) {
    const SearchItem& search = inputs_.searches[item];
    uint64_t span = spans->Begin("core.parse_query", root, request_id);
    auto parsed = ParseQuery(search.keywords, search.fragment);
    spans->End(span);
    FaultIf(parsed.status(), "parsing a query");
    std::shared_ptr<const CorpusSnapshot> snapshot =
        stack_->corpus->Snapshot();
    const MatchFeatureCatalog& catalog = *snapshot->match_features;
    span = spans->Begin("match.query_prep", root, request_id);
    std::shared_ptr<SchemaFeatures> features =
        BuildSchemaFeatures(parsed->AsSchema(), catalog.options());
    ComputeSignature(features.get(), &catalog.df());
    spans->End(span);
    SearchEngineOptions options;
    options.cache_bypass = true;
    options.stats = &sample->stats;
    const uint64_t extracted_before =
        CounterNow("schemr_search_candidates_extracted_total");
    span = spans->Begin("core.engine_search", root, request_id);
    auto results = stack_->service->engine().Search(*parsed, options);
    spans->End(span);
    FaultIf(results.status(), "in-process search");
    sample->extracted =
        CounterNow("schemr_search_candidates_extracted_total") -
        extracted_before;
    sample->returned = results->size();
  }

  IngestSample IngestOne(double due, SpanLog* spans, Mirror* mirror) {
    const size_t k = upload_next_++;
    const Upload& upload = inputs_.uploads[k % inputs_.uploads.size()];
    IngestSample sample;
    const uint64_t request_id = 1000000000ull + k;
    const double cpu = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const double start = Now();
    sample.late_ms = (start - due) * 1e3;
    const uint64_t root =
        spans != nullptr ? spans->Begin("ingest", 0, request_id) : 0;
    uint64_t span =
        spans != nullptr ? spans->Begin("parse.ddl", root, request_id) : 0;
    auto schema = ParseDdl(upload.ddl, upload.name);
    if (spans != nullptr) spans->End(span);
    if (!schema.ok()) return sample;
    Schema uploaded = *schema;
    const uint64_t bytes_before = CounterNow("schemr_store_write_bytes_total");
    span = spans != nullptr ? spans->Begin("core.ingest", root, request_id)
                            : 0;
    auto id = stack_->corpus->Ingest(std::move(*schema));
    if (spans != nullptr) spans->End(span);
    sample.store_bytes =
        CounterNow("schemr_store_write_bytes_total") - bytes_before;
    if (id.ok()) {
      std::shared_ptr<const CorpusSnapshot> snapshot =
          stack_->corpus->Snapshot();
      sample.ok = snapshot->schemas->Contains(*id) &&
                  snapshot->match_features->Find(*id) != nullptr;
    }
    const double visible = Now();
    sample.latency_ms = (visible - due) * 1e3;
    sample.busy_ms = (visible - start) * 1e3;
    sample.cpu_ms = (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu) * 1e3;
    if (spans != nullptr) {
      spans->End(root);
      mirror->pending.push_back({request_id, std::move(uploaded)});
    }
    return sample;
  }

  void RunMirror(Schema schema, uint64_t request_id, SpanLog* spans,
                 Mirror* mirror) {
    uint64_t span = spans->Begin("repo.insert", 0, request_id);
    auto id = mirror->repository->Insert(schema);
    spans->End(span);
    FaultIf(id.status(), "mirror insert");
    std::shared_ptr<const CorpusSnapshot> snapshot =
        stack_->corpus->Snapshot();
    {
      VersionedIndex index(InvertedIndex(*snapshot->index));
      // Clear of every id the live corpus can hold.
      schema.set_id(*id + (1ull << 40));
      span = spans->Begin("index.add", 0, request_id);
      FaultIf(index.AddDocument(FlattenSchema(schema)), "mirror add");
      spans->End(span);
    }
    const MatchFeatureCatalog& catalog = *snapshot->match_features;
    span = spans->Begin("match.features", 0, request_id);
    std::shared_ptr<SchemaFeatures> features =
        BuildSchemaFeatures(schema, catalog.options());
    ComputeSignature(features.get(), &catalog.df());
    spans->End(span);
  }

  std::string ExactXml(const SchemrService& service, size_t item) const {
    SearchRequest request = MakeRequest(inputs_.searches[item], 0.0);
    request.cache_bypass = true;
    SearchEngineOptions exact;
    exact.enable_pruning = false;
    exact.cache_bypass = true;
    exact.scoring_threads = 1;
    exact.prefilter = 0.0;
    auto xml = service.SearchXml(request, exact);
    return xml.ok() ? *xml : "error: " + xml.status().ToString();
  }

  /// Untimed checking work, spread over three threads.
  template <typename Fn>
  static void ParallelFor(size_t n, Fn fn) {
    std::atomic<size_t> cursor{0};
    auto worker = [&] {
      for (size_t i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) {
        fn(i);
      }
    };
    std::thread a(worker);
    std::thread b(worker);
    worker();
    a.join();
    b.join();
  }

  const Inputs& inputs_;
  Stack* stack_;
  std::vector<std::string> bodies_;
  bool read_only_ = true;
  size_t next_ = 0;
  size_t upload_next_ = 0;
  /// CPU clock of the ingesting thread while a window runs one, so the
  /// search client can leave its CPU time out of each search's.
  clockid_t ingest_clock_ = 0;
  std::unordered_map<uint32_t, std::string> first_body_;
};

// --- output ------------------------------------------------------------------

class JsonLine {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0.0);
    Append(key, buf);
  }
  void AddBool(const std::string& key, bool value) {
    Append(key, value ? "true" : "false");
  }
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  void Append(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

std::vector<double> RttsMs(const std::vector<SearchSample>& samples) {
  std::vector<double> out;
  for (const SearchSample& s : samples) out.push_back(s.rtt_ms);
  return out;
}

std::vector<double> LatenciesMs(const std::vector<IngestSample>& samples) {
  std::vector<double> out;
  for (const IngestSample& s : samples) out.push_back(s.latency_ms);
  return out;
}

struct Failures {
  size_t non_200 = 0;
  size_t shed = 0;
  size_t degraded = 0;
  size_t wrong = 0;
  size_t ingest = 0;
  size_t total() const { return non_200 + shed + degraded + wrong + ingest; }
};

Failures CountFailures(const std::vector<SearchSample>& searches,
                       const std::vector<IngestSample>& ingests) {
  Failures failures;
  for (const SearchSample& s : searches) {
    if (s.status == 503) {
      ++failures.shed;
    } else if (s.status != 200) {
      ++failures.non_200;
    } else if (s.degraded) {
      ++failures.degraded;
    } else if (s.wrong) {
      ++failures.wrong;
    }
  }
  for (const IngestSample& s : ingests) {
    if (!s.ok) ++failures.ingest;
  }
  return failures;
}

/// The end-to-end numbers of one window. Timings come twice: as CPU time
/// (the gated metrics; see README.md for why) and as wall-clock time.
void AddEndToEnd(const Window& window,
                 const std::vector<IngestSample>& ingests, JsonLine* json) {
  const std::vector<double> rtts = RttsMs(window.searches);
  json->Add("search_p50_ms", Median(rtts));
  json->Add("search_p99_ms",
            Quantile(rtts, TailQuantileLevel(rtts.size(), 0.99)));
  json->Add("search_qps",
            window.seconds > 0 ? static_cast<double>(rtts.size()) /
                                     window.seconds
                               : 0.0);
  const std::vector<double> latencies = LatenciesMs(ingests);
  json->Add("ingest_p50_ms", Median(latencies));
  json->Add("ingest_p90_ms",
            Quantile(latencies, TailQuantileLevel(latencies.size(), 0.90)));
  std::vector<double> cpu, ingest_cpu;
  for (const SearchSample& s : window.searches) cpu.push_back(s.cpu_ms);
  for (const IngestSample& s : ingests) ingest_cpu.push_back(s.cpu_ms);
  json->Add("search_cpu_p50_ms", Median(cpu));
  json->Add("search_cpu_p99_ms",
            Quantile(cpu, TailQuantileLevel(cpu.size(), 0.99)));
  json->Add("search_per_cpu_s",
            static_cast<double>(cpu.size()) / (Sum(cpu) / 1e3));
  json->Add("ingest_cpu_p50_ms", Median(ingest_cpu));
  json->Add("ingest_cpu_p90_ms",
            Quantile(ingest_cpu, TailQuantileLevel(ingest_cpu.size(), 0.90)));
  json->Add("searches", static_cast<double>(rtts.size()));
  json->Add("ingests", static_cast<double>(latencies.size()));
  json->Add("search_tail_quantile", TailQuantileLevel(rtts.size(), 0.99));
  json->Add("ingest_tail_quantile",
            TailQuantileLevel(latencies.size(), 0.90));
}

/// Registry-delta counts over an untraced window (exact: one client).
void AddCounts(const Window& window, JsonLine* json) {
  const CounterValues& c = window.counters;
  auto get = [&c](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const double searches = static_cast<double>(window.searches.size());
  const double hits = get("schemr_result_cache_hits_total");
  const double misses = get("schemr_result_cache_misses_total");
  const double extracted = get("schemr_search_candidates_extracted_total");
  const double skipped = get("schemr_search_candidates_skipped_total");
  double bytes = 0.0;
  for (const SearchSample& s : window.searches) {
    bytes += static_cast<double>(s.bytes);
  }
  json->Add("core.cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0);
  json->Add("index.postings_per_search",
            get("schemr_index_postings_scanned_total") / searches);
  json->Add("core.candidates_scored_per_search",
            (extracted - skipped) / searches);
  json->Add("core.pruned_frac", extracted > 0 ? skipped / extracted : 0.0);
  json->Add("core.graph_builds_per_search",
            get("schemr_entity_graph_cache_builds_total") / searches);
  json->Add("obs.audit_bytes_per_request",
            get("schemr_audit_bytes_written_total") / searches);
  json->Add("service.response_kb", bytes / searches / 1024.0);
  json->Add("service.shed_total", get("schemr_requests_shed_total") +
                                      get("schemr_http_shed_total"));
  json->Add("core.degraded_total", get("schemr_searches_degraded_total"));
  json->Add("match.failures_total", get("schemr_matcher_failures_total"));
}

/// Per-layer numbers from the traced window's spans and re-runs.
void AddTracedSearch(const Window& traced, double untraced_p50_ms,
                     const SpanLog& spans, JsonLine* json) {
  std::vector<double> overhead, phase1, phase2, phase3, totals;
  double returned = 0.0;
  double scored = 0.0;
  double served_phases = 0.0;  // phases of requests the cache did not answer
  for (const SearchSample& s : traced.searches) {
    overhead.push_back(s.rtt_ms -
                       (s.cache_hit ? 0.0 : s.stats.total_seconds * 1e3));
    if (!s.cache_hit) {
      served_phases += (s.stats.phase1_seconds + s.stats.phase2_seconds +
                        s.stats.phase3_seconds) *
                       1e3;
    }
    phase1.push_back(s.stats.phase1_seconds * 1e3);
    phase2.push_back(s.stats.phase2_seconds * 1e3);
    phase3.push_back(s.stats.phase3_seconds * 1e3);
    totals.push_back(s.stats.total_seconds * 1e3);
    returned += static_cast<double>(s.returned);
    scored += static_cast<double>(s.extracted) -
              static_cast<double>(s.stats.candidates_skipped);
  }
  const double rtt_p50 = Median(RttsMs(traced.searches));
  const double engine_total = Sum(totals);
  json->Add("service.overhead_ms", Median(overhead));
  json->Add("core.parse_query_ms", Median(spans.DurationsMs("core.parse_query")));
  json->Add("match.query_prep_ms",
            Median(spans.DurationsMs("match.query_prep")));
  json->Add("index.extract_ms", Median(phase1));
  json->Add("match.phase2_ms", Median(phase2));
  json->Add("match.phase2_p99_ms",
            Quantile(phase2, TailQuantileLevel(phase2.size(), 0.99)));
  json->Add("core.tightness_ms", Median(phase3));
  json->Add("match.useful_frac", scored > 0 ? returned / scored : 0.0);
  json->Add("core.phase1_share", engine_total > 0 ? Sum(phase1) / engine_total : 0);
  json->Add("core.phase2_share", engine_total > 0 ? Sum(phase2) / engine_total : 0);
  json->Add("core.phase3_share", engine_total > 0 ? Sum(phase3) / engine_total : 0);
  json->Add("trace.search_p50_ms", rtt_p50);
  json->Add("trace.overhead_ms", rtt_p50 - untraced_p50_ms);
  // Summed over requests: the client time the overhead and the three
  // engine phases leave unexplained (ranking, cache lookup, rendering
  // inside the engine's total but outside its phases).
  const double rtt_total = Sum(RttsMs(traced.searches));
  json->Add("acct.search_residual_frac",
            rtt_total > 0
                ? (rtt_total - (Sum(overhead) + served_phases)) / rtt_total
                : 0.0);
}

void AddTracedIngest(const std::vector<IngestSample>& ingests,
                     const SpanLog& spans, JsonLine* json) {
  const double parse = Median(spans.DurationsMs("parse.ddl"));
  const double ingest = Median(spans.DurationsMs("core.ingest"));
  const double insert = Median(spans.DurationsMs("repo.insert"));
  const double add = Median(spans.DurationsMs("index.add"));
  const double features = Median(spans.DurationsMs("match.features"));
  double store_bytes = 0.0;
  for (const IngestSample& s : ingests) {
    store_bytes += static_cast<double>(s.store_bytes);
  }
  json->Add("parse.ddl_ms", parse);
  json->Add("core.ingest_ms", ingest);
  json->Add("repo.insert_ms", insert);
  json->Add("index.add_ms", add);
  json->Add("match.features_ms", features);
  json->Add("core.publish_ms", ingest - (insert + add + features));
  json->Add("store.bytes_per_ingest",
            ingests.empty() ? 0.0
                            : store_bytes / static_cast<double>(ingests.size()));
  // Summed over uploads, start -> visible, so open-loop queueing behind
  // the previous upload stays out of it.
  double busy = 0.0;
  for (const IngestSample& s : ingests) busy += s.busy_ms;
  const double spanned = Sum(spans.DurationsMs("parse.ddl")) +
                         Sum(spans.DurationsMs("core.ingest"));
  json->Add("acct.ingest_residual_frac",
            busy > 0 ? (busy - spanned) / busy : 0.0);
}

// --- commands --------------------------------------------------------------

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die("bad argument " + std::string(argv[i]));
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& name, const std::string& fallback = "") {
  auto it = flags.find(name);
  if (it != flags.end()) return it->second;
  if (fallback.empty()) Die("missing --" + name);
  return fallback;
}

int Prepare(const std::map<std::string, std::string>& flags) {
  const WorkloadSpec* spec = FindWorkload(Flag(flags, "workload"));
  if (spec == nullptr) Die("unknown workload");
  const uint64_t seed = std::strtoull(Flag(flags, "seed").c_str(), nullptr, 10);
  const std::string data = Flag(flags, "data");
  const std::string repo_dir = Flag(flags, "repo");
  namespace fs = std::filesystem;
  fs::create_directories(data);
  const double start = Now();
  std::vector<GeneratedSchema> corpus = GenerateWorkloadCorpus(*spec);
  Inputs inputs = GenerateInputs(*spec, seed);
  inputs.fingerprint = Fingerprint(corpus, inputs);
  std::fprintf(stderr, "perfbench: generated inputs in %.1f s\n",
               Now() - start);
  if (!fs::exists(repo_dir)) {
    const double insert_start = Now();
    const std::string tmp = repo_dir + ".tmp";
    fs::remove_all(tmp);
    {
      auto repo = SchemaRepository::Open(tmp);
      DieIf(repo.status(), "opening the repository");
      for (const GeneratedSchema& generated : corpus) {
        DieIf((*repo)->Insert(generated.schema).status(),
              "inserting a schema");
      }
    }
    fs::rename(tmp, repo_dir);
    std::fprintf(stderr, "perfbench: inserted %zu schemas in %.1f s\n",
                 corpus.size(), Now() - insert_start);
  }
  DieIf(WriteInputs(data + "/inputs.bin", inputs), "writing inputs");
  size_t tables[4] = {0, 0, 0, 0};
  for (const SearchItem& item : inputs.searches) {
    ++tables[std::min<uint32_t>(item.fragment_tables, 3)];
  }
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(inputs.fingerprint));
  std::printf(
      "PREPARED {\"fingerprint\": \"%s\", \"corpus\": %zu, \"distinct\": %zu, "
      "\"keyword_only\": %zu, \"fragment_1\": %zu, \"fragment_2\": %zu, "
      "\"fragment_3\": %zu, \"uploads\": %zu}\n",
      fingerprint, corpus.size(), inputs.searches.size(), tables[0],
      tables[1], tables[2], tables[3], inputs.uploads.size());
  return 0;
}

int Serve(const std::map<std::string, std::string>& flags) {
  auto inputs_or = ReadInputs(Flag(flags, "data") + "/inputs.bin");
  DieIf(inputs_or.status(), "reading inputs");
  const Inputs inputs = std::move(*inputs_or);
  const std::string repo_dir = Flag(flags, "repo");
  const bool traced = Flag(flags, "trace", "0") == "1";
  const double seconds = std::strtod(Flag(flags, "seconds").c_str(), nullptr);
  const double prefilter =
      std::strtod(Flag(flags, "prefilter", "0").c_str(), nullptr);
  const std::string first_body =
      SearchRequestToXml(MakeRequest(inputs.searches[inputs.order[0]], prefilter));

  Stack stack;
  SpanLog spans;
  TracedSetup traced_setup;
  JsonLine json;
  if (traced) {
    traced_setup = SetUpTraced(repo_dir, first_body, &spans, &stack);
  } else {
    const SetupTime setup = SetUp(repo_dir, first_body, &stack);
    json.Add("setup_s", setup.cpu_s);
    json.Add("setup_wall_s", setup.wall_s);
  }
  json.Add("cpu_ref_ms", CpuReferenceMs());
  Runner runner(inputs, &stack, prefilter);
  runner.WarmUp();
  Window window = runner.Measure(seconds, nullptr, nullptr);
  const double rss_mb = ProcStatusMb("VmHWM");
  json.Add("loadavg", LoadAverage());
  json.Add("steal_frac", window.steal_frac);

  const bool read_only = inputs.searches_per_upload == 0;
  size_t checked = 0;
  size_t rechecked = 0;  // requests sent again by the ingest check
  size_t wrong_after_ingest = 0;
  std::shared_ptr<const CorpusSnapshot> served = stack.corpus->Snapshot();
  const std::vector<IngestSample>& ingests = window.ingests;

  Window traced_window;
  Mirror mirror;
  if (traced) {
    const std::string mirror_dir = Flag(flags, "mirror");
    auto mirror_repo = SchemaRepository::Open(mirror_dir);
    DieIf(mirror_repo.status(), "opening the mirror repository");
    mirror.repository = std::move(*mirror_repo);
    traced_window = runner.Measure(seconds, &spans, &mirror);
    runner.RunMirrors(&spans, &mirror);
  }

  std::vector<IngestSample> traced_ingests = traced_window.ingests;
  if (read_only) {
    if (traced) {
      traced_ingests = runner.IngestProbe(&spans, &mirror);
      runner.RunMirrors(&spans, &mirror);
    }
    checked = runner.CheckAgainstReference(served, &window.searches);
  } else {
    checked = rechecked = inputs.searches.size();
    wrong_after_ingest = runner.CheckAfterIngest(
        repo_dir, Flag(flags, "fresh", repo_dir + ".fresh"));
  }

  Failures failures = CountFailures(window.searches, ingests);
  failures.wrong += wrong_after_ingest;
  double busy = 0.0;
  size_t late = 0;
  for (const IngestSample& s : window.ingests) {
    busy += s.busy_ms;
    if (s.late_ms > 1.0) ++late;
  }
  AddEndToEnd(window, ingests, &json);
  json.Add("rss_mb", rss_mb);
  json.Add("attempted", static_cast<double>(window.searches.size() +
                                            ingests.size() + rechecked));
  json.Add("failed", static_cast<double>(failures.total()));
  json.Add("non_200", static_cast<double>(failures.non_200));
  json.Add("shed", static_cast<double>(failures.shed));
  json.Add("degraded", static_cast<double>(failures.degraded));
  json.Add("wrong_answers", static_cast<double>(failures.wrong));
  json.Add("ingest_failures", static_cast<double>(failures.ingest));
  json.Add("answers_checked", static_cast<double>(checked));
  json.Add("writer_busy_frac",
           window.seconds > 0 ? busy / 1e3 / window.seconds : 0.0);
  json.Add("late_send_frac",
           window.ingests.empty()
               ? 0.0
               : static_cast<double>(late) /
                     static_cast<double>(window.ingests.size()));
  AddCounts(window, &json);
  if (traced) {
    AddTracedSearch(traced_window, Median(RttsMs(window.searches)), spans,
                    &json);
    AddTracedIngest(traced_ingests, spans, &json);
    json.Add("repo.open_s", traced_setup.open_s);
    json.Add("index.build_s", traced_setup.index_build_s);
    json.Add("match.catalog_build_s", traced_setup.catalog_build_s);
    json.Add("service.start_s", traced_setup.start_s);
    // The path the untraced run's setup_s times, in this process.
    json.Add("trace.setup_s", traced_setup.open_s + traced_setup.create_s +
                                  traced_setup.start_s);
    json.Add("index.rss_mb", traced_setup.index_rss_mb);
    json.Add("match.catalog_rss_mb", traced_setup.catalog_rss_mb);
    const std::string spans_path = Flag(flags, "spans", "-");
    if (spans_path != "-") DieIf(spans.Write(spans_path), "writing spans");
  }
  std::printf("RESULT %s\n", json.Finish().c_str());
  std::fflush(stdout);
  (void)stack.service->Shutdown(5.0);
  std::_Exit(0);  // skip freeing the corpus
}

}  // namespace
}  // namespace schemr::perfbench

int main(int argc, char** argv) {
  using namespace schemr::perfbench;
  if (argc < 2) Die("usage: perfbench prepare|serve --flag value ...");
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (command == "prepare") return Prepare(flags);
  if (command == "serve") return Serve(flags);
  Die("unknown command " + command);
}
