#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <unistd.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "protocols/iface.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace qbench {

namespace {

// Engine geometry shared by every workload: 2 planners x 2 executors on a
// 4-core host. Every other field keeps its default unless a workload
// names it, so a change to a default shows up in the numbers.
common::config base_config(common::exec_model model, common::isolation iso,
                           bool durable) {
  common::config c;
  c.planner_threads = 2;
  c.executor_threads = 2;
  c.partitions = 4;
  c.execution = model;
  c.iso = iso;
  c.durable = durable;
  return c;
}

std::vector<workload_spec> build_specs() {
  using common::exec_model;
  using common::isolation;
  std::vector<workload_spec> v;

  // The paper's headline (Table 2 row 3): every batch queues on the same
  // ten district rows; the work sits in the planner, the executor and the
  // hash index.
  workload_spec tpcc;
  tpcc.name = "tpcc-1wh";
  tpcc.cfg = base_config(exec_model::conservative, isolation::serializable,
                         false);
  tpcc.make = [] {
    wl::tpcc_config c;
    c.warehouses = 1;
    c.partitions = 4;
    return std::make_unique<wl::tpcc>(c);
  };
  v.push_back(std::move(tpcc));

  // Speculative recovery and the command log: cascades run on the one
  // epilogue worker, which sets the drain-to-drain period.
  workload_spec spec;
  spec.name = "ycsb-spec-durable";
  spec.cfg = base_config(exec_model::speculative, isolation::read_committed,
                         true);
  spec.make = [] {
    wl::ycsb_config c;
    c.table_size = 1u << 20;
    c.ops_per_txn = 10;
    c.read_ratio = 0.5;
    c.rmw = true;
    c.zipf_theta = 0.9;
    c.abort_ratio = 0.02;
    c.partitions = 4;
    return std::make_unique<wl::ycsb>(c);
  };
  v.push_back(std::move(spec));

  // The ordered index: O(log n) point lookups, 64-key range walks and the
  // fan-out of scans over every partition, on data larger than the LLC.
  workload_spec scan;
  scan.name = "ycsb-scan-ordered";
  scan.cfg = base_config(exec_model::conservative, isolation::serializable,
                         false);
  scan.round_batches = 60;
  scan.make = [] {
    wl::ycsb_config c;
    c.table_size = 1u << 22;
    c.ops_per_txn = 10;
    c.read_ratio = 0.8;
    c.zipf_theta = 0.6;
    c.scan_ratio = 0.05;
    c.scan_len = 64;
    c.partitions = 4;
    c.index = storage::index_kind::ordered;
    return std::make_unique<wl::ycsb>(c);
  };
  v.push_back(std::move(scan));

  // The client path: Poisson arrivals at a fixed rate through the session
  // and the size-or-deadline batch former, acknowledged once durable.
  workload_spec open;
  open.name = "ycsb-open-durable";
  open.open_loop = true;
  open.offered_tps = 30000;
  open.round_batches = 60;
  open.cfg = base_config(exec_model::conservative, isolation::serializable,
                         true);
  open.make = [] {
    wl::ycsb_config c;
    c.table_size = 1u << 20;
    c.ops_per_txn = 10;
    c.read_ratio = 0.5;
    c.rmw = true;
    c.zipf_theta = 0.6;
    c.partitions = 4;
    return std::make_unique<wl::ycsb>(c);
  };
  v.push_back(std::move(open));
  return v;
}

const std::vector<workload_spec>& specs() {
  static const std::vector<workload_spec> s = build_specs();
  return s;
}

}  // namespace

const workload_spec* find_workload(const std::string& name) {
  for (const auto& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const auto& s : specs()) out.push_back(s.name);
  return out;
}

std::vector<txn::batch> make_batches(wl::workload& w, std::uint64_t seed,
                                     const std::vector<std::uint32_t>& sizes) {
  common::rng r(seed);
  std::vector<txn::batch> out;
  out.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out.push_back(w.make_batch(r, sizes[i], static_cast<std::uint32_t>(i)));
  }
  return out;
}

std::vector<std::uint32_t> uniform_sizes(std::uint32_t n, std::uint32_t size) {
  return std::vector<std::uint32_t>(n, size);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

oracle run_oracle(const workload_spec& spec, std::uint64_t seed) {
  auto w = spec.make();
  storage::database db;
  w->load(db);
  common::config cfg = spec.cfg;
  cfg.durable = false;
  auto eng = proto::make_engine("serial", db, cfg);
  auto batches = make_batches(
      *w, seed, uniform_sizes(spec.round_batches, spec.cfg.batch_size));
  common::run_metrics m;
  common::stopwatch sw;
  for (auto& b : batches) eng->run_batch(b, m);
  oracle o;
  o.seconds = sw.seconds();
  o.committed = m.committed;
  o.aborted = m.aborted;
  o.hash = db.state_hash();
  if (const auto* t = dynamic_cast<const wl::tpcc*>(w.get())) {
    std::string why;
    if (!t->check_consistency(db, &why)) {
      throw check_failure("serial oracle fails the TPC-C consistency check: " +
                          why);
    }
  }
  return o;
}

void verify(const char* what, const oracle& o, std::uint64_t hash,
            std::uint64_t committed, std::uint64_t aborted,
            const wl::workload& w, const storage::database& db) {
  const std::string who(what);
  if (hash != o.hash) {
    throw check_failure(who + ": state hash differs from the serial replay");
  }
  if (aborted != o.aborted || committed != o.committed) {
    throw check_failure(who + ": " + std::to_string(committed) +
                        " committed / " + std::to_string(aborted) +
                        " user aborts, serial replay has " +
                        std::to_string(o.committed) + " / " +
                        std::to_string(o.aborted));
  }
  if (const auto* t = dynamic_cast<const wl::tpcc*>(&w)) {
    std::string why;
    if (!t->check_consistency(db, &why)) {
      throw check_failure(who + ": TPC-C consistency check failed: " + why);
    }
  }
}

log_dir::log_dir(const std::string& run_dir) {
  static std::atomic<unsigned> counter{0};
  path_ = (std::filesystem::path(run_dir) /
           ("log-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1))))
              .string();
  std::filesystem::remove_all(path_);
}

log_dir::~log_dir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace qbench
