// Traced lockstep replay: one batch at a time through the layers' public
// calls, each call timed from here, so the program under test is unchanged.
//
//   log::encode_batch + log_writer::append        (durable only)
//   planner::plan                                  on P worker threads
//   executor::begin_batch / run_conflict_queues /
//     run_read_queues                              on E worker threads
//   core::batch_epilogue                           on the calling thread
//   log::encode_commit + append + wait_durable     (durable only)
//
// With tracing on, every call records a span (name, start, end, batch id,
// parent). The spans stay in memory until the replay ends; the caller then
// derives per-layer self times from them and may write them out as
// Chrome-trace JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/engine.hpp"
#include "core/spec_manager.hpp"
#include "log/log_writer.hpp"
#include "storage/database.hpp"
#include "storage/dual_version.hpp"
#include "txn/batch.hpp"

namespace qbench {

using namespace quecc;

struct span {
  const char* name = "";
  const char* parent = "";  ///< name of the enclosing span ("" = root)
  std::uint64_t start = 0;  ///< common::now_nanos
  std::uint64_t end = 0;
  std::uint32_t batch = 0;
  std::uint32_t tid = 0;  ///< 0 = calling thread, 1.. = worker threads
};

/// Per-batch counts taken between the phases (not timings: these repeat
/// exactly for a given seed).
struct batch_counts {
  std::uint64_t txns = 0;
  std::uint64_t planned_frags = 0;
  std::uint64_t queued_entries = 0;  ///< conflict + read queue entries
  std::uint64_t queue_len_max = 0;   ///< longest single conflict queue
  double exec_load_imbalance = 0;    ///< max / mean entries per executor
  std::uint64_t codec_bytes = 0;     ///< batch + commit payload bytes
};

class lockstep {
 public:
  /// `db` must be loaded and outlive the replay. `wal` is non-null for
  /// durable workloads.
  lockstep(storage::database& db, const common::config& cfg,
           log::log_writer* wal, bool traced);
  ~lockstep();
  lockstep(const lockstep&) = delete;
  lockstep& operator=(const lockstep&) = delete;

  void run(txn::batch& b, common::run_metrics& m);

  /// Every recorded span, calling thread first. Call after the last run().
  std::vector<span> spans() const;
  const std::vector<batch_counts>& counts() const noexcept { return counts_; }

 private:
  enum class phase : std::uint8_t { plan, exec, stop };
  void worker_main(std::uint32_t i);
  void dispatch(phase p);
  void record(std::uint32_t tid, const char* name, const char* parent,
              std::uint64_t start, std::uint64_t end);
  std::uint64_t now() const noexcept {
    return traced_ ? common::now_nanos() : 0;
  }

  storage::database& db_;
  common::config cfg_;
  log::log_writer* wal_;
  const bool traced_;
  std::unique_ptr<storage::dual_version_store> committed_;
  core::spec_manager spec_;
  core::pipeline pipe_;

  // Batch currently replayed and its slot; written by the calling thread
  // before dispatch(), read by the workers after they observe gen_.
  txn::batch* batch_ = nullptr;
  core::batch_slot* slot_ = nullptr;
  std::uint64_t batch_start_ = 0;
  std::uint64_t stream_pos_ = 0;
  std::uint64_t replayed_ = 0;

  phase phase_ = phase::plan;
  std::atomic<std::uint32_t> gen_{0};
  std::atomic<std::uint32_t> pending_{0};
  std::vector<std::thread> workers_;
  std::vector<std::vector<span>> spans_;  ///< [tid], single writer each

  std::vector<batch_counts> counts_;
};

/// Chrome trace-event JSON ({"traceEvents":[...]}), one complete event per
/// span, timestamps in microseconds from the first span.
void write_chrome_trace(std::ostream& os, const std::vector<span>& spans);

}  // namespace qbench
