// Workload inputs for the end-to-end benchmark.
//
// Everything a run sends -- the corpus, the distinct search requests, the
// order they are sent in, and the DDL uploads -- is generated here from
// (workload, seed) alone, written to disk once by `perfbench prepare`, and
// read back by the serving process. The program under test only ever
// receives these generated inputs.

#ifndef SCHEMR_PERFBENCH_INPUTS_H_
#define SCHEMR_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/schema_generator.h"
#include "util/status.h"

namespace schemr::perfbench {

/// The shape of one workload; see README.md for why each exists.
struct WorkloadSpec {
  const char* name;
  size_t corpus_size;
  /// Distinct keyword-only requests (the query generator's noisy terms).
  size_t keyword_requests;
  /// Distinct search-by-example requests: keywords plus a DDL fragment of
  /// 1-3 related tables cut from a held-out schema.
  size_t example_requests;
  /// > 0: requests are drawn with this Zipf exponent over the distinct
  /// requests (repeats let the result cache work). 0: the distinct
  /// requests are shuffled once and cycled in that fixed order.
  double zipf_exponent;
  /// Leading entries of the request order sent untimed, to bring the
  /// result, entity-graph and page caches to steady state.
  size_t warmup_requests;
  /// DDL uploads of held-out schemas.
  size_t uploads;
  /// > 0: during the measured window one upload arrives with every this
  /// many searches sent, whether or not the writer is done with the last
  /// one. 0: the workload is read-only; the traced run ingests the uploads
  /// closed-loop after its windows to time the ingest layers.
  size_t searches_per_upload;
};

/// The workload table; null when `name` is unknown.
const WorkloadSpec* FindWorkload(std::string_view name);

struct SearchItem {
  std::string keywords;
  /// DDL text; empty for keyword-only requests.
  std::string fragment;
  /// Tables in `fragment` (0 for keyword-only requests).
  uint32_t fragment_tables = 0;
};

struct Upload {
  std::string name;
  std::string ddl;
};

/// Everything one run sends, apart from the corpus itself.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  uint64_t corpus_size = 0;
  std::vector<SearchItem> searches;  ///< distinct requests
  std::vector<uint32_t> order;       ///< send order: indices into searches
  uint32_t warmup = 0;               ///< leading order entries sent untimed
  std::vector<Upload> uploads;
  uint32_t searches_per_upload = 0;
  /// Hash of the corpus and of everything above (see Fingerprint).
  uint64_t fingerprint = 0;
};

/// The corpus of a workload. It is the same for every run seed (the
/// seed draws the traffic), so each workload's repository is written
/// once per build.
std::vector<GeneratedSchema> GenerateWorkloadCorpus(const WorkloadSpec& spec);

/// The traffic of a workload at a seed (fingerprint left 0).
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed);

/// FNV-1a over each corpus schema's name, description and WriteDdl text,
/// then over the serialized inputs: a change to the generator or to the
/// DDL writer changes it.
uint64_t Fingerprint(const std::vector<GeneratedSchema>& corpus,
                     const Inputs& inputs);

Status WriteInputs(const std::string& path, const Inputs& inputs);
Result<Inputs> ReadInputs(const std::string& path);

}  // namespace schemr::perfbench

#endif  // SCHEMR_PERFBENCH_INPUTS_H_
