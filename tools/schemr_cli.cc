// schemr: command-line interface to a Schemr repository.
//
// The paper positions Schemr as deployable "as a standalone tool for
// organizations to search and share schemas". This CLI is that
// deployment: a persistent repository directory, DDL/XSD import/export,
// the offline indexer with a saved segment, the three-phase search, the
// visualization endpoints, and the collaboration commands.
//
//   schemr import <repo> <file.sql|file.xsd> [name]
//   schemr list <repo>
//   schemr show <repo> <id>
//   schemr index <repo>
//   schemr search <repo> <keywords...> [--fragment <file>] [--top N]
//                 [--offset N] [--boost] [--explain]
//   schemr stats <repo> [keywords...] [--json]
//   schemr viz <repo> <id> [--layout tree|radial] [--format graphml|svg|dot]
//   schemr export <repo> <id> [--format ddl|xsd]
//   schemr comment <repo> <id> <author> <text...>
//   schemr rate <repo> <id> <author> <stars>
//   schemr comments <repo> <id>
//
// `--explain` prints the per-phase span breakdown after the results table;
// `stats` runs a sample search workload and dumps the metrics registry
// (Prometheus text format, or JSON with --json).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/query_parser.h"
#include "core/result_cache.h"
#include "core/serving_corpus.h"
#include "corpus/query_workload.h"
#include "corpus/schema_generator.h"
#include "obs/audit_log.h"
#include "obs/exposition.h"
#include "obs/log_bridge.h"
#include "obs/metrics.h"
#include "obs/replay.h"
#include "service/fleet.h"
#include "service/http_server.h"
#include "service/request_id.h"
#include "parse/ddl_parser.h"
#include "parse/ddl_writer.h"
#include "parse/xsd_importer.h"
#include "parse/xsd_writer.h"
#include "service/schemr_service.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "viz/dot_writer.h"
#include "viz/graphml_writer.h"
#include "viz/svg_writer.h"

namespace schemr {
namespace {

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "schemr: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: schemr <command> <repo_dir> [args]\n"
      "  import <repo> <file.sql|file.xsd> [name]   add a schema\n"
      "  list <repo>                                list schemas\n"
      "  show <repo> <id>                           print one schema\n"
      "  index <repo>                               refresh persisted state\n"
      "  search <repo> <keywords...> [--fragment f] [--top N] [--offset N]"
      " [--boost] [--explain]\n"
      "         [--prefilter T]   T in (0,1): approximate signature screen\n"
      "  stats <repo> [keywords...] [--json]           run a sample search,"
      " dump metrics\n"
      "  viz <repo> <id> [--layout tree|radial] [--format graphml|svg|dot]\n"
      "  export <repo> <id> [--format ddl|xsd]\n"
      "  comment <repo> <id> <author> <text...>     leave a comment\n"
      "  rate <repo> <id> <author> <stars>          rate 1..5\n"
      "  comments <repo> <id>                       show comments/ratings\n"
      "  audit <repo> tail|top|slow [--limit N] [--follow] [--poll-ms N]"
      " [--max-polls N]\n"
      "         inspect the query audit log (--follow tails incrementally)\n"
      "  serve <repo> [--port N] [--search-port N] [--workers N] [--cache N]"
      " [--duration S] [--warmup N]\n"
      "         serve with the HTTP introspection plane (and, with\n"
      "         --search-port, the POST /search front end) enabled\n"
      "  fleet <repo> [--replicas N] [--port N] [--workers N]"
      " [--duration S] [--sample-every N]\n"
      "         serve via N supervised replica processes behind the\n"
      "         failover coordinator (SIGHUP = rolling restart)\n"
      "  top <host:port> [--interval S] [--iterations N]   live /statusz"
      " dashboard\n"
      "  trace <host:port> <request-id>             stitch one request's\n"
      "         coordinator hop journal and replica traces into a timeline\n"
      "  checkmetrics <file|->                      validate Prometheus"
      " exposition text\n"
      "  checkjson <file|-> [--require key]...      validate flat JSON"
      " (e.g. /statusz)\n"
      "  replay <workload> --repo <dir> [--threads N] [--repeat N]"
      " [--engine-threads N] [--prefilter T]\n"
      "         [--out f.json] [--record f.xml]         replay a workload\n"
      "  seed <repo> [--schemas N] [--seed S] [--workload f.xml]"
      " [--queries M]\n"
      "         generate a synthetic corpus (and optional workload)\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string AuditDir(const std::string& repo_dir) {
  return repo_dir + "/audit";
}

/// The "# index:" and "# signatures:" lines on stderr: what Open adopted
/// or rebuilt, what it cost, and the size of the catalog's dictionary.
void PrintOpenReport(const OpenReport& report, const ServingCorpus& corpus) {
  if (report.index_adopted) {
    std::fprintf(stderr, "# index: adopted persisted segment in %.1f ms\n",
                 report.index_open_seconds * 1e3);
  } else {
    std::fprintf(stderr, "# index: no usable segment, rebuilt in %.1f ms\n",
                 report.index_rebuild_seconds * 1e3);
  }
  const CatalogBuildStats& stats = report.catalog;
  std::fprintf(stderr,
               "# signatures: %zu schemas (%zu loaded, %zu built, %zu "
               "corrupt), %zu dictionary terms, in %.1f ms\n",
               stats.schemas, stats.signatures_loaded, stats.signatures_built,
               stats.corrupt_records,
               corpus.Snapshot()->match_features->terms().size(),
               stats.seconds * 1e3);
  if (!report.persisted.ok()) {
    std::fprintf(stderr, "# state: not written back: %s\n",
                 report.persisted.ToString().c_str());
  }
}

int CmdImport(SchemaRepository* repo, int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string path = argv[0];
  auto contents = ReadFile(path);
  if (!contents.ok()) return Fail(contents.status(), "reading input");
  // Name defaults to the file stem.
  std::string name = argc >= 2 ? argv[1] : path;
  size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);

  Result<Schema> schema = EndsWith(path, ".xsd")
                              ? ParseXsd(*contents, name)
                              : ParseDdl(*contents, name);
  if (!schema.ok()) return Fail(schema.status(), "parsing schema");
  auto id = repo->Insert(std::move(schema).value());
  if (!id.ok()) return Fail(id.status(), "inserting schema");
  std::printf("imported '%s' as schema %llu\n", name.c_str(),
              static_cast<unsigned long long>(*id));
  return 0;
}

int CmdList(SchemaRepository* repo) {
  auto summaries = repo->ListAll();
  if (!summaries.ok()) return Fail(summaries.status(), "listing");
  std::printf("%-6s %-28s %-9s %-11s %s\n", "id", "name", "entities",
              "attributes", "description");
  for (const SchemaSummary& s : *summaries) {
    std::printf("%-6llu %-28s %-9zu %-11zu %s\n",
                static_cast<unsigned long long>(s.id), s.name.c_str(),
                s.num_entities, s.num_attributes, s.description.c_str());
  }
  return 0;
}

int CmdShow(SchemaRepository* repo, int argc, char** argv) {
  if (argc < 1) return Usage();
  auto schema = repo->Get(std::strtoull(argv[0], nullptr, 10));
  if (!schema.ok()) return Fail(schema.status(), "fetching schema");
  std::printf("%s", schema->ToString().c_str());
  return 0;
}

/// `schemr index <repo>`: Open, which makes the persisted state current.
int CmdIndex(std::unique_ptr<SchemaRepository> repo,
             const std::string& repo_dir) {
  OpenReport report;
  auto corpus = ServingCorpus::Open(std::move(repo), repo_dir, &report);
  if (!corpus.ok()) return Fail(corpus.status(), "indexing");
  PrintOpenReport(report, **corpus);
  if (!report.persisted.ok()) return Fail(report.persisted, "writing state");
  std::printf("indexed %zu schemas (%zu terms) → %s\n",
              (*corpus)->Snapshot()->index->NumDocs(),
              (*corpus)->Snapshot()->index->NumTerms(), repo_dir.c_str());
  return 0;
}

int CmdSearch(std::unique_ptr<SchemaRepository> repo,
              const std::string& repo_dir, int argc, char** argv) {
  std::string keywords;
  std::string fragment;
  bool explain = false;
  double prefilter = 0.0;
  SearchEngineOptions options;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--fragment" && i + 1 < argc) {
      auto contents = ReadFile(argv[++i]);
      if (!contents.ok()) return Fail(contents.status(), "reading fragment");
      fragment = *contents;
    } else if (arg == "--top" && i + 1 < argc) {
      options.top_k = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--offset" && i + 1 < argc) {
      options.offset = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--boost") {
      options.annotation_boost = 0.3;
    } else if (arg == "--prefilter" && i + 1 < argc) {
      prefilter = std::strtod(argv[++i], nullptr);
    } else if (arg == "--explain") {
      explain = true;
    } else {
      if (!keywords.empty()) keywords += ' ';
      keywords += arg;
    }
  }
  auto corpus = ServingCorpus::Open(std::move(repo), repo_dir);
  if (!corpus.ok()) return Fail(corpus.status(), "opening corpus");
  SchemrService service(corpus->get());
  // Every CLI search lands in the repo's audit log (inspect with
  // `schemr audit`); failure to open it is not search-fatal.
  (void)service.EnableAudit(AuditDir(repo_dir));
  SearchTrace trace;
  if (explain) options.trace = &trace;
  SearchRequest request;
  request.keywords = keywords;
  request.fragment = fragment;
  request.prefilter = prefilter;
  request.top_k = options.top_k;
  request.candidate_pool = std::max<size_t>(options.top_k + options.offset,
                                            SearchRequest{}.candidate_pool);
  auto results = service.Search(request, options);
  if (!results.ok()) return Fail(results.status(), "searching");

  std::printf("%-4s %-6s %-28s %-7s %-9s %-8s %-9s %-10s\n", "#", "id",
              "name", "score", "tightness", "matches", "entities",
              "attributes");
  size_t rank = options.offset + 1;
  for (const SearchResult& r : *results) {
    std::printf("%-4zu %-6llu %-28s %-7.3f %-9.3f %-8zu %-9zu %-10zu\n",
                rank++, static_cast<unsigned long long>(r.schema_id),
                r.name.c_str(), r.score, r.tightness, r.num_matches,
                r.num_entities, r.num_attributes);
  }
  if (results->empty()) std::printf("(no results)\n");
  if (explain) {
    std::printf("\nexplain:\n%s", trace.ToString().c_str());
  }
  return 0;
}

/// Runs a sample search workload (given keywords, or the names of the
/// first few schemas when none are given), then dumps the process metrics
/// registry so phase latencies and index/store counters are non-zero.
int CmdStats(std::unique_ptr<SchemaRepository> repo,
             const std::string& repo_dir, int argc, char** argv) {
  std::string keywords;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else {
      if (!keywords.empty()) keywords += ' ';
      keywords += arg;
    }
  }
  // The two open lines are the full cost of a searchable snapshot; a
  // rebuild on every call means the persisted files keep going stale.
  OpenReport report;
  auto corpus = ServingCorpus::Open(std::move(repo), repo_dir, &report);
  if (!corpus.ok()) return Fail(corpus.status(), "opening corpus");
  PrintOpenReport(report, **corpus);
  SchemrService service(corpus->get());
  (void)service.EnableAudit(AuditDir(repo_dir));
  // A small result cache so the derived cache gauges (hit ratio,
  // entries, capacity) appear in the dump. Nothing writes to the corpus,
  // so the cache keys on a stable version and the sample search below
  // actually exercises it.
  service.EnableResultCache(64);

  if (keywords.empty()) {
    auto summaries = (*corpus)->repository()->ListAll();
    if (!summaries.ok()) return Fail(summaries.status(), "listing");
    size_t taken = 0;
    for (const SchemaSummary& s : *summaries) {
      if (taken++ == 3) break;
      if (!keywords.empty()) keywords += ' ';
      keywords += s.name;
    }
  }
  if (!keywords.empty()) {
    SearchRequest request;
    request.keywords = keywords;
    auto results = service.Search(request);
    if (!results.ok()) return Fail(results.status(), "searching");
    std::fprintf(stderr, "# sample search \"%s\": %zu results\n",
                 keywords.c_str(), results->size());
  }
  (void)(*corpus)->repository()->GetStoreStats();  // schemr_store_* gauges
  if (std::shared_ptr<ResultCache> cache = service.engine().result_cache();
      cache != nullptr) {
    const ResultCacheStats cache_stats = cache->Stats();
    const uint64_t lookups = cache_stats.hits + cache_stats.misses;
    std::fprintf(stderr,
                 "# result cache: %zu/%zu entries, %llu hits / %llu lookups"
                 " (ratio %.2f)\n",
                 cache_stats.entries, cache->capacity(),
                 static_cast<unsigned long long>(cache_stats.hits),
                 static_cast<unsigned long long>(lookups),
                 lookups == 0 ? 0.0
                              : static_cast<double>(cache_stats.hits) /
                                    static_cast<double>(lookups));
  }

  std::fputs(json ? service.MetricsJson().c_str()
                  : service.MetricsText().c_str(),
             stdout);
  return 0;
}

int CmdViz(SchemaRepository* repo, int argc, char** argv) {
  if (argc < 1) return Usage();
  VisualizationRequest request;
  request.schema_id = std::strtoull(argv[0], nullptr, 10);
  std::string format = "graphml";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--layout" && i + 1 < argc) {
      request.layout = argv[++i];
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    }
  }
  // Rendering needs the one schema, straight from the repository: no
  // index, catalog or service.
  auto schema = repo->Get(request.schema_id);
  if (!schema.ok()) return Fail(schema.status(), "fetching schema");
  Result<std::string> rendered = Status::InvalidArgument("unknown format");
  if (format == "dot") {
    rendered = WriteDot(BuildGraphView(*schema));
  } else if (format == "graphml" || format == "svg") {
    auto view = BuildVisualization(*schema, request);
    if (!view.ok()) return Fail(view.status(), "rendering");
    rendered = format == "svg" ? WriteSvg(*view) : WriteGraphMl(*view);
  }
  if (!rendered.ok()) return Fail(rendered.status(), "rendering");
  std::fputs(rendered->c_str(), stdout);
  return 0;
}

int CmdExport(SchemaRepository* repo, int argc, char** argv) {
  if (argc < 1) return Usage();
  auto schema = repo->Get(std::strtoull(argv[0], nullptr, 10));
  if (!schema.ok()) return Fail(schema.status(), "fetching schema");
  std::string format = "ddl";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--format" && i + 1 < argc) {
      format = argv[++i];
    }
  }
  if (format == "xsd") {
    std::fputs(WriteXsd(*schema).c_str(), stdout);
  } else {
    std::fputs(WriteDdl(*schema).c_str(), stdout);
  }
  return 0;
}

int CmdComment(SchemaRepository* repo, int argc, char** argv) {
  if (argc < 3) return Usage();
  SchemaId id = std::strtoull(argv[0], nullptr, 10);
  std::string text;
  for (int i = 2; i < argc; ++i) {
    if (!text.empty()) text += ' ';
    text += argv[i];
  }
  Status st = repo->AddComment(id, {argv[1], text, 0});
  if (!st.ok()) return Fail(st, "adding comment");
  (void)repo->RecordUsage(id);
  std::printf("comment added to schema %llu\n",
              static_cast<unsigned long long>(id));
  return 0;
}

int CmdRate(SchemaRepository* repo, int argc, char** argv) {
  if (argc < 3) return Usage();
  SchemaId id = std::strtoull(argv[0], nullptr, 10);
  Status st = repo->AddRating(
      id, {argv[1], static_cast<uint8_t>(std::strtoul(argv[2], nullptr, 10))});
  if (!st.ok()) return Fail(st, "rating");
  auto summary = repo->GetRatingSummary(id);
  std::printf("schema %llu now rated %.1f (%zu ratings)\n",
              static_cast<unsigned long long>(id), summary->average,
              summary->num_ratings);
  return 0;
}

int CmdComments(SchemaRepository* repo, int argc, char** argv) {
  if (argc < 1) return Usage();
  SchemaId id = std::strtoull(argv[0], nullptr, 10);
  auto summary = repo->GetRatingSummary(id);
  auto usage = repo->GetUsageCount(id);
  if (summary.ok() && usage.ok()) {
    std::printf("rating: %.1f (%zu ratings), used %llu times\n",
                summary->average, summary->num_ratings,
                static_cast<unsigned long long>(*usage));
  }
  auto comments = repo->GetComments(id);
  if (!comments.ok()) return Fail(comments.status(), "fetching comments");
  for (const SchemaComment& c : *comments) {
    std::printf("  [%s] %s\n", c.author.c_str(), c.text.c_str());
  }
  if (comments->empty()) std::printf("  (no comments)\n");
  return 0;
}

void PrintAuditRecord(const AuditRecord& r) {
  char when[32] = "-";
  const time_t seconds = static_cast<time_t>(r.timestamp_micros / 1000000);
  struct tm tm_buf;
  if (seconds > 0 && localtime_r(&seconds, &tm_buf) != nullptr) {
    std::strftime(when, sizeof(when), "%Y-%m-%d %H:%M:%S", &tm_buf);
  }
  std::printf("%-19s %-15s fp=%016llx %8.1fms [p1 %5.1f p2 %5.1f p3 %5.1f]"
              " n=%-3u digest=%016llx",
              when, AuditOutcomeName(r.outcome),
              static_cast<unsigned long long>(r.fingerprint),
              r.total_micros / 1e3, r.phase1_micros / 1e3,
              r.phase2_micros / 1e3, r.phase3_micros / 1e3, r.result_count,
              static_cast<unsigned long long>(r.result_digest));
  if (!r.request_id.empty()) std::printf(" id=%s", r.request_id.c_str());
  if (r.has_query_text) {
    std::printf("  \"%s\"%s", r.keywords.c_str(),
                r.fragment.empty() ? "" : " +fragment");
  }
  std::printf("\n");
}

volatile std::sig_atomic_t g_interrupted = 0;
void OnInterrupt(int) { g_interrupted = 1; }
volatile std::sig_atomic_t g_rolling_restart = 0;
void OnHangup(int) { g_rolling_restart = 1; }

/// `audit tail --follow`: prints the last `limit` records, then polls the
/// log with an offset cursor — each poll reads only the bytes appended
/// since the previous one, instead of re-reading whole segments.
int FollowAuditLog(const std::string& dir, size_t limit, int poll_ms,
                   size_t max_polls) {
  std::signal(SIGINT, OnInterrupt);
  AuditCursor cursor;
  auto initial = ReadAuditLogFrom(dir, &cursor);
  if (!initial.ok()) return Fail(initial.status(), "reading audit log");
  const std::vector<AuditRecord>& records = initial->records;
  const size_t start = records.size() > limit ? records.size() - limit : 0;
  for (size_t i = start; i < records.size(); ++i) {
    PrintAuditRecord(records[i]);
  }
  std::fflush(stdout);
  for (size_t polls = 0; max_polls == 0 || polls < max_polls; ++polls) {
    if (g_interrupted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    auto more = ReadAuditLogFrom(dir, &cursor);
    if (!more.ok()) continue;  // log may rotate/vanish between polls
    for (const AuditRecord& r : more->records) PrintAuditRecord(r);
    if (!more->records.empty()) std::fflush(stdout);
  }
  return 0;
}

int CmdAudit(const std::string& repo_dir, int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string mode = argv[0];
  size_t limit = 20;
  bool follow = false;
  int poll_ms = 500;
  size_t max_polls = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--limit" && i + 1 < argc) {
      limit = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--poll-ms" && i + 1 < argc) {
      poll_ms = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (poll_ms < 1) poll_ms = 1;
    } else if (arg == "--max-polls" && i + 1 < argc) {
      max_polls = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (follow) {
    if (mode != "tail") {
      std::fprintf(stderr, "schemr audit: --follow only applies to tail\n");
      return 2;
    }
    return FollowAuditLog(AuditDir(repo_dir), limit, poll_ms, max_polls);
  }
  auto report = ReadAuditLog(AuditDir(repo_dir));
  if (!report.ok()) return Fail(report.status(), "reading audit log");
  if (report->skipped_records > 0 || report->torn_tail) {
    std::fprintf(stderr,
                 "# audit: salvaged around %zu damaged records (%llu bytes"
                 "%s)\n",
                 report->skipped_records,
                 static_cast<unsigned long long>(report->skipped_bytes),
                 report->torn_tail ? ", torn tail" : "");
  }
  const std::vector<AuditRecord>& records = report->records;

  if (mode == "tail") {
    const size_t start = records.size() > limit ? records.size() - limit : 0;
    for (size_t i = start; i < records.size(); ++i) {
      PrintAuditRecord(records[i]);
    }
  } else if (mode == "slow") {
    // Persisted slow records are the ones that retained query text with a
    // healthy outcome (shed/error records keep text for debugging, not
    // because they were slow).
    std::vector<const AuditRecord*> slow;
    for (const AuditRecord& r : records) {
      if (r.has_query_text && (r.outcome == AuditOutcome::kOk ||
                               r.outcome == AuditOutcome::kDegraded)) {
        slow.push_back(&r);
      }
    }
    std::sort(slow.begin(), slow.end(),
              [](const AuditRecord* a, const AuditRecord* b) {
                return a->total_micros > b->total_micros;
              });
    if (slow.size() > limit) slow.resize(limit);
    for (const AuditRecord* r : slow) PrintAuditRecord(*r);
    if (slow.empty()) std::printf("(no slow queries recorded)\n");
  } else if (mode == "top") {
    struct Aggregate {
      size_t count = 0;
      size_t degraded = 0;
      size_t shed = 0;
      uint64_t total_micros = 0;
      uint64_t max_micros = 0;
      const AuditRecord* sample = nullptr;
    };
    std::map<uint64_t, Aggregate> by_fingerprint;
    for (const AuditRecord& r : records) {
      Aggregate& agg = by_fingerprint[r.fingerprint];
      ++agg.count;
      if (r.outcome == AuditOutcome::kDegraded) ++agg.degraded;
      if (IsShedOutcome(r.outcome)) ++agg.shed;
      agg.total_micros += r.total_micros;
      agg.max_micros = std::max(agg.max_micros, r.total_micros);
      if (r.has_query_text) agg.sample = &r;
    }
    std::vector<std::pair<uint64_t, const Aggregate*>> ranked;
    for (const auto& [fp, agg] : by_fingerprint) ranked.emplace_back(fp, &agg);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                return a.second->count > b.second->count;
              });
    if (ranked.size() > limit) ranked.resize(limit);
    std::printf("%-18s %-6s %-9s %-5s %-10s %-10s %s\n", "fingerprint",
                "count", "degraded", "shed", "avg_ms", "max_ms", "sample");
    for (const auto& [fp, agg] : ranked) {
      std::printf("%016llx   %-6zu %-9zu %-5zu %-10.1f %-10.1f %s\n",
                  static_cast<unsigned long long>(fp), agg->count,
                  agg->degraded, agg->shed,
                  agg->total_micros / 1e3 / static_cast<double>(agg->count),
                  agg->max_micros / 1e3,
                  agg->sample != nullptr ? agg->sample->keywords.c_str()
                                         : "-");
    }
  } else {
    return Usage();
  }
  std::fprintf(stderr, "# audit: %zu records in %zu segments\n",
               records.size(), report->segments_read);
  return 0;
}

int CmdSeed(std::unique_ptr<SchemaRepository> repo,
            const std::string& repo_dir, int argc, char** argv) {
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 200;
  QueryWorkloadOptions workload_options;
  std::string workload_path;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--schemas" && i + 1 < argc) {
      corpus_options.num_schemas = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      corpus_options.seed = std::strtoull(argv[++i], nullptr, 10);
      workload_options.seed = corpus_options.seed + 57;
    } else if (arg == "--workload" && i + 1 < argc) {
      workload_path = argv[++i];
    } else if (arg == "--queries" && i + 1 < argc) {
      workload_options.num_queries = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  Timer timer;
  std::vector<GeneratedSchema> corpus = GenerateCorpus(corpus_options);
  for (GeneratedSchema& generated : corpus) {
    auto id = repo->Insert(std::move(generated.schema));
    if (!id.ok()) return Fail(id.status(), "inserting generated schema");
  }
  std::printf("seeded %zu schemas in %.1f ms\n", corpus.size(),
              timer.ElapsedMillis());
  if (int rc = CmdIndex(std::move(repo), repo_dir); rc != 0) return rc;
  if (!workload_path.empty()) {
    workload_options.fragment_prob = 0.3;
    std::vector<WorkloadQuery> queries =
        GenerateQueryWorkload(workload_options);
    std::vector<WorkloadEntry> entries;
    entries.reserve(queries.size());
    for (WorkloadQuery& q : queries) {
      WorkloadEntry entry;
      entry.keywords = std::move(q.keywords);
      entry.fragment = std::move(q.ddl_fragment);
      entries.push_back(std::move(entry));
    }
    Status saved = SaveWorkload(workload_path, entries);
    if (!saved.ok()) return Fail(saved, "writing workload");
    std::printf("wrote %zu queries to %s\n", entries.size(),
                workload_path.c_str());
  }
  return 0;
}

/// `schemr replay <workload> --repo <dir> ...` — argument order differs
/// from the other commands (the workload, not the repo, is the subject),
/// so Run() special-cases it before the common repository open.
int CmdReplay(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string workload_path = argv[0];
  std::string repo_dir;
  std::string out_path;
  std::string record_path;
  ReplayOptions replay_options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--repo" && i + 1 < argc) {
      repo_dir = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      replay_options.threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--repeat" && i + 1 < argc) {
      replay_options.repeat = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--engine-threads" && i + 1 < argc) {
      replay_options.engine_threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--prefilter" && i + 1 < argc) {
      replay_options.force_prefilter = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--record" && i + 1 < argc) {
      record_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (repo_dir.empty()) {
    std::fprintf(stderr, "schemr replay: --repo <dir> is required\n");
    return 2;
  }

  auto repo = SchemaRepository::Open(repo_dir);
  if (!repo.ok()) return Fail(repo.status(), "opening repository");
  OpenReport open_report;
  auto corpus = ServingCorpus::Open(std::move(*repo), repo_dir, &open_report);
  if (!corpus.ok()) return Fail(corpus.status(), "opening corpus");
  PrintOpenReport(open_report, **corpus);

  size_t skipped = 0;
  auto workload = LoadWorkload(workload_path, &skipped);
  if (!workload.ok()) return Fail(workload.status(), "loading workload");
  if (skipped > 0) {
    std::fprintf(stderr,
                 "# replay: %zu audit records had no query text, skipped\n",
                 skipped);
  }

  // One snapshot for the whole run: the pairing of this index, schema
  // view and feature catalog is what makes the digests reproducible.
  auto report =
      ReplayWorkload((*corpus)->Snapshot(), *workload, replay_options);
  if (!report.ok()) return Fail(report.status(), "replaying");

  std::fprintf(stderr,
               "# replay: %zu entries x%zu on %zu threads: %.1f qps, "
               "p50 %.2fms p95 %.2fms p99 %.2fms, %zu errors, %zu degraded, "
               "%zu digest mismatches\n",
               report->entries, report->repeat, report->threads, report->qps,
               report->total.p50 * 1e3, report->total.p95 * 1e3,
               report->total.p99 * 1e3, report->errors, report->degraded,
               report->digest_mismatches);

  const std::string json = ReplayReportToJson(*report);
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) return Fail(Status::IOError("cannot write " + out_path),
                          "writing report");
    out << json;
  }

  if (!record_path.empty()) {
    // Stamp this run's digests into the workload so the next replay (or
    // machine) verifies against them. A forced pre-filter threshold is
    // stamped too: these digests were produced under that screen, and a
    // workload that opts into approximate mode must say so.
    std::vector<WorkloadEntry> recorded = *workload;
    for (size_t i = 0; i < recorded.size(); ++i) {
      recorded[i].expected_digest = report->digests[i];
      if (replay_options.force_prefilter > 0.0) {
        recorded[i].prefilter = replay_options.force_prefilter;
      }
    }
    Status saved = SaveWorkload(record_path, recorded);
    if (!saved.ok()) return Fail(saved, "recording workload");
    std::fprintf(stderr, "# replay: recorded digests to %s\n",
                 record_path.c_str());
  }

  return report->digest_mismatches > 0 ? 1 : 0;
}

/// `schemr serve <repo>`: brings up the full serving stack — serving
/// corpus, worker pool, admission control, result cache, and the HTTP
/// introspection plane — then idles until SIGINT/SIGTERM or --duration.
/// The CI smoke job drives this; operators get the same entry point.
int CmdServe(const std::string& repo_dir, int argc, char** argv) {
  ServingOptions serving;
  serving.introspection_port = 0;  // ephemeral unless --port pins one
  serving.result_cache_capacity = 256;
  double duration = 0.0;  // 0 = until interrupted
  size_t warmup = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      serving.introspection_port =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--search-port" && i + 1 < argc) {
      serving.search_port =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--workers" && i + 1 < argc) {
      serving.executor.num_workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--cache" && i + 1 < argc) {
      serving.result_cache_capacity = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--duration" && i + 1 < argc) {
      duration = std::strtod(argv[++i], nullptr);
    } else if (arg == "--warmup" && i + 1 < argc) {
      warmup = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--sample-every" && i + 1 < argc) {
      serving.trace_retention.sample_every_n =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return Usage();
    }
  }
  auto repo = SchemaRepository::Open(repo_dir);
  if (!repo.ok()) return Fail(repo.status(), "opening repository");
  std::vector<std::string> warmup_names;
  if (warmup > 0) {
    if (auto summaries = (*repo)->ListAll(); summaries.ok()) {
      for (const SchemaSummary& s : *summaries) {
        warmup_names.push_back(s.name);
        if (warmup_names.size() == 8) break;
      }
    }
  }
  OpenReport report;
  auto corpus = ServingCorpus::Open(std::move(*repo), repo_dir, &report);
  if (!corpus.ok()) return Fail(corpus.status(), "building serving corpus");
  PrintOpenReport(report, **corpus);
  SchemrService service(corpus->get());
  (void)service.EnableAudit(AuditDir(repo_dir));
  Status started = service.StartServing(serving);
  if (!started.ok()) return Fail(started, "starting service");
  std::printf("introspection: http://127.0.0.1:%d (corpus v%llu, %zu docs)\n",
              service.introspection()->port(),
              static_cast<unsigned long long>((*corpus)->version()),
              (*corpus)->Snapshot()->index->NumDocs());
  if (service.search_server() != nullptr) {
    std::printf("search: http://127.0.0.1:%d/search\n",
                service.search_server()->port());
  }
  std::fflush(stdout);
  // Warm-up traffic so the windows, traces, and cache counters are live
  // for whoever scrapes us. Each query runs twice: miss, then cache hit.
  for (size_t i = 0; i < warmup && !warmup_names.empty(); ++i) {
    SearchRequest request;
    request.keywords = warmup_names[i % warmup_names.size()];
    (void)service.HandleSearchXml(request);
    (void)service.HandleSearchXml(request);
  }
  std::signal(SIGINT, OnInterrupt);
  std::signal(SIGTERM, OnInterrupt);
  Timer timer;
  while (!g_interrupted &&
         (duration <= 0.0 || timer.ElapsedSeconds() < duration)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  Status drained = service.Shutdown(5.0);
  std::fprintf(stderr, "# serve: drain %s\n", drained.ToString().c_str());
  return drained.ok() ? 0 : 1;
}

/// `schemr fleet <repo>`: spawns N `schemr serve` replicas (each over
/// its own corpus copy) behind the in-process failover coordinator,
/// then supervises them: dead replicas are respawned in place, and
/// SIGHUP triggers a rolling drain-and-restart that never drops the
/// ready count below N−1. SIGINT/SIGTERM drain the whole fleet.
int CmdFleet(const std::string& repo_dir, int argc, char** argv) {
  FleetOptions fleet_options;
  fleet_options.repo_dir = repo_dir;
  CoordinatorOptions coord_options;
  coord_options.http.port = 0;
  double duration = 0.0;  // 0 = until interrupted
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--replicas" && i + 1 < argc) {
      fleet_options.replicas =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--port" && i + 1 < argc) {
      coord_options.http.port =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--workers" && i + 1 < argc) {
      fleet_options.serve_workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--duration" && i + 1 < argc) {
      duration = std::strtod(argv[++i], nullptr);
    } else if (arg == "--sample-every" && i + 1 < argc) {
      // One flag pins sampling across the whole tier: the replicas'
      // trace retention AND the coordinator's hop-journal retention.
      fleet_options.serve_sample_every =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      coord_options.trace_retention.sample_every_n =
          fleet_options.serve_sample_every;
    } else {
      return Usage();
    }
  }
  // Replicas exec this very binary: /proc/self/exe survives relative
  // argv[0] and $PATH lookups.
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    return Fail(Status::IOError("cannot resolve /proc/self/exe"),
                "locating the schemr binary");
  }
  fleet_options.binary_path.assign(exe, static_cast<size_t>(n));

  Fleet fleet(fleet_options, coord_options);
  Status started = fleet.Start();
  if (!started.ok()) return Fail(started, "starting fleet");
  std::printf("coordinator: http://127.0.0.1:%d/search (%d replicas)\n",
              fleet.coordinator().port(), fleet.replicas());
  for (int i = 0; i < fleet.replicas(); ++i) {
    const BackendConfig config = fleet.ReplicaConfig(i);
    std::printf("%s: pid %d search :%d introspection :%d\n",
                config.name.c_str(), static_cast<int>(fleet.ReplicaPid(i)),
                config.search_port, config.introspection_port);
  }
  std::fflush(stdout);
  std::signal(SIGINT, OnInterrupt);
  std::signal(SIGTERM, OnInterrupt);
  std::signal(SIGHUP, OnHangup);
  Timer timer;
  while (!g_interrupted &&
         (duration <= 0.0 || timer.ElapsedSeconds() < duration)) {
    if (g_rolling_restart) {
      g_rolling_restart = 0;
      std::fprintf(stderr, "# fleet: rolling restart begin\n");
      Status rolled = fleet.RollingRestart();
      std::fprintf(stderr, "# fleet: rolling restart %s\n",
                   rolled.ToString().c_str());
    }
    fleet.SupervisePass();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  fleet.Shutdown();
  std::fprintf(stderr, "# fleet: drain OK\n");
  return 0;
}

/// `schemr top <host:port>`: polls /statusz and renders a one-screen
/// dashboard (a terminal `top` for a serving schemr process).
int CmdTop(const std::string& target, int argc, char** argv) {
  double interval = 2.0;
  size_t iterations = 0;  // 0 = until interrupted
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval" && i + 1 < argc) {
      interval = std::strtod(argv[++i], nullptr);
    } else if (arg == "--iterations" && i + 1 < argc) {
      iterations = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }
  const size_t colon = target.rfind(':');
  const std::string host =
      colon == std::string::npos || colon == 0 ? std::string("127.0.0.1")
                                               : target.substr(0, colon);
  const int port = static_cast<int>(std::strtol(
      colon == std::string::npos ? target.c_str()
                                 : target.c_str() + colon + 1,
      nullptr, 10));
  if (port <= 0) {
    std::fprintf(stderr, "schemr top: expected <host:port>, got '%s'\n",
                 target.c_str());
    return 2;
  }
  std::signal(SIGINT, OnInterrupt);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (size_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (g_interrupted) break;
    auto body = HttpGet(host, port, "/statusz");
    if (!body.ok()) return Fail(body.status(), "fetching /statusz");
    auto parsed = ParseBenchJson(*body);
    if (!parsed.ok()) return Fail(parsed.status(), "parsing /statusz");
    auto get = [&parsed](const char* key) {
      auto it = parsed->find(key);
      return it == parsed->end() ? 0.0 : it->second;
    };
    if (tty) std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home
    std::printf("schemr @ %s:%d  up %.0fs  %s%s\n", host.c_str(), port,
                get("uptime_seconds"),
                get("serving") != 0.0 ? "SERVING" : "DOWN",
                get("admission.draining") != 0.0 ? " (draining)" : "");
    std::printf(
        "corpus   v%-6.0f docs %-8.0f terms %-8.0f\n",
        get("corpus.snapshot_version"), get("corpus.index_docs"),
        get("corpus.index_terms"));
    std::printf(
        "executor %0.f/%0.f queued, %.0f running on %.0f workers%s\n",
        get("executor.queue_depth"), get("executor.queue_capacity"),
        get("executor.running"), get("executor.workers"),
        get("executor.wedged") != 0.0 ? "  WEDGED" : "");
    std::printf(
        "cache    %.0f/%.0f entries, hit ratio %.2f\n",
        get("result_cache.entries"), get("result_cache.capacity"),
        get("result_cache.hit_ratio"));
    std::printf(
        "sigs     %.0f schemas, %.0f prefilter-rejected, %.0f builds"
        " (%.1f ms total)\n",
        get("signatures.catalog_schemas"),
        get("signatures.prefilter_rejected_total"),
        get("signatures.build_count"),
        get("signatures.build_seconds_total") * 1e3);
    std::printf(
        "terms    %.0f in dictionary, pair memo %.0f fills / %.0f lookups\n",
        get("signatures.dictionary_terms"),
        get("signatures.pair_memo_fills_total"),
        get("signatures.pair_memo_lookups_total"));
    std::printf(
        "traces   %.0f offered, %.0f sampled, %.0f retained (1/%0.f)\n",
        get("traces.offered"), get("traces.sampled"), get("traces.retained"),
        get("traces.sample_every_n"));
    if (get("http.port") != 0.0) {
      std::printf(
          "http     :%.0f  %.0f conns (%.0f active), %.0f shed, %.0f"
          " timeouts, %.0f/%.0f B in/out%s\n",
          get("http.port"), get("http.connections"), get("http.active"),
          get("http.shed"), get("http.timeouts"), get("http.bytes_read"),
          get("http.bytes_written"),
          get("http.draining") != 0.0 ? "  DRAINING" : "");
    }
    if (get("pool.backends") != 0.0) {
      std::printf("pool     %.0f backends (%.0f routable), %.0f failovers\n",
                  get("pool.backends"), get("pool.routable"),
                  get("coord.failovers"));
      std::printf(
          "fleet    %.0f scraped  %.0f reqs  %.1f qps  p50 %.2f  p95 %.2f"
          "  p99 %.2f ms\n",
          get("fleet.replicas_scraped"), get("fleet.requests"),
          get("fleet.qps"), get("fleet.p50_ms"), get("fleet.p95_ms"),
          get("fleet.p99_ms"));
      for (int r = 0; r < static_cast<int>(get("pool.backends")); ++r) {
        const std::string prefix = "replica" + std::to_string(r);
        auto field = [&](const char* name) {
          return get((prefix + "." + name).c_str());
        };
        std::printf(
            "%-8s :%-6.0f %s%s %.0f in-flight, %.0f reqs, %.0f failures\n",
            prefix.c_str(), field("search_port"),
            field("routable") != 0.0 ? "routable" : "out",
            field("draining") != 0.0 ? " (draining)" : "",
            field("in_flight"), field("requests"), field("failures"));
      }
    }
    std::printf("%-8s %10s %10s %10s %10s %10s\n", "window", "qps", "p50_ms",
                "p99_ms", "err/s", "shed/s");
    for (const char* window : {"window_1m", "window_5m", "window_15m"}) {
      const std::string prefix(window);
      auto field = [&](const char* name) {
        return get((prefix + "." + name).c_str());
      };
      std::printf("%-8s %10.1f %10.2f %10.2f %10.2f %10.2f\n", window,
                  field("qps"), field("p50_ms"), field("p99_ms"),
                  field("errors_per_second"), field("shed_per_second"));
    }
    std::fflush(stdout);
    if (iterations != 0 && i + 1 == iterations) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(interval * 1e3)));
  }
  return 0;
}

/// Extracts and unescapes the JSON string value for `"key": "..."` from
/// one /tracez trace line. This targets the emitter's own fixed dialect
/// (one trace object per line, AppendJsonEscaped strings), not general
/// JSON.
bool ExtractTraceField(const std::string& line, const std::string& key,
                       std::string* value) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  value->clear();
  for (size_t i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c == '\\' && i + 1 < line.size()) {
      const char escaped = line[++i];
      switch (escaped) {
        case 'n':
          value->push_back('\n');
          break;
        case 'r':
          value->push_back('\r');
          break;
        case 't':
          value->push_back('\t');
          break;
        case 'u':
          if (i + 4 < line.size()) {
            value->push_back(static_cast<char>(std::strtoul(
                line.substr(i + 1, 4).c_str(), nullptr, 16)));
            i += 4;
          }
          break;
        default:
          value->push_back(escaped);
          break;
      }
      continue;
    }
    value->push_back(c);
  }
  return false;  // unterminated string: treat as no match
}

/// Prints every /tracez record at host:port joinable to request `id`
/// (exact at the coordinator, hop-suffixed at replicas). Returns the
/// match count, or -1 when the endpoint is unreachable — a dead replica
/// degrades the timeline, it does not abort it.
int PrintTracezMatches(const std::string& who, const std::string& host,
                       int port, const std::string& id) {
  auto body = HttpGet(host, port, "/tracez", 2.0);
  if (!body.ok()) {
    std::printf("%-12s unreachable: %s\n", who.c_str(),
                body.status().ToString().c_str());
    return -1;
  }
  int matches = 0;
  std::stringstream lines(*body);
  std::string line;
  while (std::getline(lines, line)) {
    std::string recorded;
    if (!ExtractTraceField(line, "request_id", &recorded)) continue;
    if (!RequestIdMatches(id, recorded)) continue;
    std::string outcome;
    std::string spans;
    (void)ExtractTraceField(line, "outcome", &outcome);
    (void)ExtractTraceField(line, "spans", &spans);
    std::printf("%-12s id=%s outcome=%s\n", who.c_str(), recorded.c_str(),
                outcome.c_str());
    std::stringstream span_lines(spans);
    std::string span;
    while (std::getline(span_lines, span)) {
      std::printf("    %s\n", span.c_str());
    }
    ++matches;
  }
  return matches;
}

/// `schemr trace <host:port> <request-id>`: stitches one request's
/// cross-process story — the coordinator's hop journal plus every
/// replica trace carrying a hop-suffixed form of the id — into a single
/// timeline. Replicas are discovered through the coordinator's /statusz
/// (replicaN.introspection_port); pointing this at a plain `schemr
/// serve` process simply searches that process's own /tracez.
int CmdTrace(const std::string& target, int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string id = argv[0];
  const size_t colon = target.rfind(':');
  const std::string host =
      colon == std::string::npos || colon == 0 ? std::string("127.0.0.1")
                                               : target.substr(0, colon);
  const int port = static_cast<int>(std::strtol(
      colon == std::string::npos ? target.c_str()
                                 : target.c_str() + colon + 1,
      nullptr, 10));
  if (port <= 0) {
    std::fprintf(stderr, "schemr trace: expected <host:port>, got '%s'\n",
                 target.c_str());
    return 2;
  }
  if (!IsValidRequestId(id)) {
    std::fprintf(stderr, "schemr trace: '%s' is not a request id\n",
                 id.c_str());
    return 2;
  }
  int found = 0;
  const int coordinator_matches =
      PrintTracezMatches("coordinator", host, port, id);
  if (coordinator_matches > 0) found += coordinator_matches;
  auto statusz = HttpGet(host, port, "/statusz", 2.0);
  if (statusz.ok()) {
    if (auto parsed = ParseBenchJson(*statusz); parsed.ok()) {
      const auto backends = parsed->find("pool.backends");
      const int n =
          backends == parsed->end() ? 0 : static_cast<int>(backends->second);
      for (int r = 0; r < n; ++r) {
        const std::string name = "replica" + std::to_string(r);
        const auto it = parsed->find(name + ".introspection_port");
        const int replica_port =
            it == parsed->end() ? 0 : static_cast<int>(it->second);
        if (replica_port <= 0) {
          std::printf("%-12s no introspection port published\n",
                      name.c_str());
          continue;
        }
        const int matches = PrintTracezMatches(name, host, replica_port, id);
        if (matches > 0) found += matches;
      }
    }
  }
  if (found == 0) {
    std::fprintf(stderr,
                 "schemr trace: no records for id %s (retention rings are "
                 "bounded; old requests age out)\n",
                 id.c_str());
    return 1;
  }
  return 0;
}

Result<std::string> ReadFileOrStdin(const std::string& path) {
  if (path == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  return ReadFile(path);
}

/// `schemr checkmetrics <file|->`: Prometheus exposition conformance
/// check for CI (no scraper dependency in the container).
int CmdCheckMetrics(const std::string& path) {
  auto text = ReadFileOrStdin(path);
  if (!text.ok()) return Fail(text.status(), "reading exposition text");
  Status checked = CheckPrometheusText(*text);
  if (!checked.ok()) return Fail(checked, "checking exposition text");
  size_t families = 0;
  size_t pos = 0;
  while ((pos = text->find("# TYPE ", pos)) != std::string::npos) {
    ++families;
    pos += 7;
  }
  if (families == 0) {
    std::fprintf(stderr, "schemr checkmetrics: no metric families\n");
    return 1;
  }
  std::printf("ok: %zu metric families\n", families);
  return 0;
}

/// `schemr checkjson <file|-> [--require key]...`: flat-JSON validation
/// (the /statusz contract) for CI.
int CmdCheckJson(const std::string& path, int argc, char** argv) {
  auto text = ReadFileOrStdin(path);
  if (!text.ok()) return Fail(text.status(), "reading JSON");
  auto parsed = ParseBenchJson(*text);
  if (!parsed.ok()) return Fail(parsed.status(), "parsing JSON");
  if (parsed->empty()) {
    std::fprintf(stderr, "schemr checkjson: no numeric fields\n");
    return 1;
  }
  int rc = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--require" && i + 1 < argc) {
      const std::string key = argv[++i];
      if (parsed->count(key) == 0) {
        std::fprintf(stderr, "schemr checkjson: missing required key %s\n",
                     key.c_str());
        rc = 1;
      }
    }
  }
  if (rc == 0) std::printf("ok: %zu numeric fields\n", parsed->size());
  return rc;
}

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  // Library warnings surface in the `stats` output too.
  InstallMetricsLogSink();
  std::string command = argv[1];
  if (command == "replay") return CmdReplay(argc - 2, argv + 2);
  std::string repo_dir = argv[2];
  if (command == "audit") return CmdAudit(repo_dir, argc - 3, argv + 3);
  if (command == "serve") return CmdServe(repo_dir, argc - 3, argv + 3);
  if (command == "fleet") return CmdFleet(repo_dir, argc - 3, argv + 3);
  if (command == "top") return CmdTop(argv[2], argc - 3, argv + 3);
  if (command == "trace") return CmdTrace(argv[2], argc - 3, argv + 3);
  if (command == "checkmetrics") return CmdCheckMetrics(argv[2]);
  if (command == "checkjson") return CmdCheckJson(argv[2], argc - 3, argv + 3);
  auto repo = SchemaRepository::Open(repo_dir);
  if (!repo.ok()) return Fail(repo.status(), "opening repository");
  SchemaRepository* r = repo->get();
  int rest_argc = argc - 3;
  char** rest = argv + 3;

  if (command == "import") return CmdImport(r, rest_argc, rest);
  if (command == "list") return CmdList(r);
  if (command == "show") return CmdShow(r, rest_argc, rest);
  if (command == "index") return CmdIndex(std::move(*repo), repo_dir);
  if (command == "search") {
    return CmdSearch(std::move(*repo), repo_dir, rest_argc, rest);
  }
  if (command == "stats") {
    return CmdStats(std::move(*repo), repo_dir, rest_argc, rest);
  }
  if (command == "viz") return CmdViz(r, rest_argc, rest);
  if (command == "export") return CmdExport(r, rest_argc, rest);
  if (command == "comment") return CmdComment(r, rest_argc, rest);
  if (command == "rate") return CmdRate(r, rest_argc, rest);
  if (command == "comments") return CmdComments(r, rest_argc, rest);
  if (command == "seed") {
    return CmdSeed(std::move(*repo), repo_dir, rest_argc, rest);
  }
  return Usage();
}

}  // namespace
}  // namespace schemr

int main(int argc, char** argv) { return schemr::Run(argc, argv); }
