// Shared plumbing for the experiment benches: the paper's cluster presets,
// strategy line-up, result formatting, and CSV artifact output.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "ps/cluster.hpp"

namespace prophet::bench {

// Machine-tracked perf ledger: a two-level {section -> {metric -> value}}
// JSON document. Benches (scale, fault_recovery, multijob) update their own
// sections and preserve everyone else's; the scale and fault ratchets read
// committed baselines back.
class BenchJson {
 public:
  // Loads `path` if it exists (tolerant of missing/empty files).
  explicit BenchJson(std::string path);

  void set(const std::string& section, const std::string& key, double value);
  // Returns NaN when the metric is absent.
  [[nodiscard]] double get(const std::string& section, const std::string& key) const;
  // Section names in document (sorted) order — lets the scale ratchet walk a
  // baseline file without hard-coding its cell list.
  [[nodiscard]] std::vector<std::string> section_names() const;
  // Drops a whole section (used before rewriting it wholesale).
  void clear_section(const std::string& section);

  void save() const;

 private:
  std::string path_;
  std::map<std::string, std::map<std::string, double>> sections_;
};

// Directory (created on demand) where every bench drops its CSV artifacts.
std::string artifact_dir();
// Opens `<artifact_dir>/<name>.csv`.
CsvWriter make_csv(const std::string& name, std::vector<std::string> header);

// Prints the standard experiment banner.
void banner(const std::string& experiment, const std::string& description);

// Paper-style cluster preset (Sec. 5.1): 1 PS + `workers` g3.8xlarge-class
// workers. The PS NIC keeps 10 Gbps while worker NICs vary, as in Table 2.
ps::ClusterConfig paper_cluster(const dnn::ModelSpec& model, int batch,
                                std::size_t workers, Bandwidth worker_bw,
                                ps::StrategyConfig strategy,
                                std::size_t iterations = 40);

// The four contenders, paper names attached. ByteScheduler runs with its
// Bayesian credit auto-tuner unless `bs_autotune` is false.
struct Contender {
  std::string label;
  ps::StrategyConfig strategy;
};
std::vector<Contender> all_contenders(bool bs_autotune = true);

// Runs `config` and returns the per-worker mean training rate (samples/s)
// over the post-warmup window.
double measure_rate(const ps::ClusterConfig& config);

// Run a batch of configs in parallel (each simulation is single-threaded).
std::vector<ps::ClusterResult> run_all(const std::vector<ps::ClusterConfig>& configs);

}  // namespace prophet::bench
