// Shared pieces of quecc_bench: the four named workloads, seeded
// stream generation, exact quantiles, and the correctness gate every run
// passes through.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "storage/database.hpp"
#include "txn/batch.hpp"
#include "workload/workload.hpp"

namespace qbench {

using namespace quecc;

/// One named workload: the engine configuration it runs under, how its
/// transactions arrive, and how much work one measured round holds.
struct workload_spec {
  std::string name;
  bool open_loop = false;
  /// Closed loop: batches per round. Open loop: a round posts
  /// round_batches * cfg.batch_size transactions.
  std::uint32_t round_batches = 100;
  double offered_tps = 0;  ///< open loop: fixed Poisson arrival rate
  common::config cfg;      ///< log_dir is filled in per run
  std::function<std::unique_ptr<wl::workload>()> make;

  std::uint64_t round_txns() const {
    return static_cast<std::uint64_t>(round_batches) * cfg.batch_size;
  }
};

/// nullptr when `name` is not a workload of the benchmark.
const workload_spec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Batches of the given sizes drawn from one stream seeded with `seed`.
/// The same seed and sizes give the same transactions, whatever the
/// batching: the generator sees one make_txn call per transaction.
std::vector<txn::batch> make_batches(wl::workload& w, std::uint64_t seed,
                                     const std::vector<std::uint32_t>& sizes);
/// `n` batches of `size`.
std::vector<std::uint32_t> uniform_sizes(std::uint32_t n, std::uint32_t size);

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (0 for an empty sample).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// A failed correctness check: the run reports no metrics.
struct check_failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What a serial replay of the seeded stream produced.
struct oracle {
  std::uint64_t hash = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  double seconds = 0;  ///< serial engine time over the stream
};

/// Load a fresh database and replay `round_txns()` transactions of the
/// seeded stream through the "serial" engine.
oracle run_oracle(const workload_spec& spec, std::uint64_t seed);

/// Throw check_failure unless the final state and outcome counts of a run
/// over the same stream equal the oracle's (and, for TPC-C, the database
/// passes the consistency check).
void verify(const char* what, const oracle& o, std::uint64_t hash,
            std::uint64_t committed, std::uint64_t aborted,
            const wl::workload& w, const storage::database& db);

/// Fresh, empty directory under `run_dir` for one durable run's command
/// log; removed with the object.
class log_dir {
 public:
  explicit log_dir(const std::string& run_dir);
  ~log_dir();
  log_dir(const log_dir&) = delete;
  log_dir& operator=(const log_dir&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace qbench
