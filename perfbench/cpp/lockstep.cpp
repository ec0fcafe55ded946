#include "lockstep.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "log/plan_codec.hpp"

namespace qbench {

lockstep::lockstep(storage::database& db, const common::config& cfg,
                   log::log_writer* wal, bool traced)
    : db_(db), cfg_(cfg), wal_(wal), traced_(traced), spec_(db) {
  if (cfg_.iso == common::isolation::read_committed) {
    committed_ = std::make_unique<storage::dual_version_store>(db_);
  }
  // Same configuration as the engine (pipeline_depth included), so the
  // planners defer index resolution exactly as they do in the engine.
  pipe_.build(cfg_, db_, committed_.get());
  const std::uint32_t n =
      std::max<std::uint32_t>(cfg_.planner_threads, cfg_.executor_threads);
  spans_.resize(n + 1);
  workers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

lockstep::~lockstep() {
  dispatch(phase::stop);
  for (auto& t : workers_) t.join();
}

void lockstep::record(std::uint32_t tid, const char* name, const char* parent,
                      std::uint64_t start, std::uint64_t end) {
  if (traced_) {
    spans_[tid].push_back({name, parent, start, end, batch_->id(), tid});
  }
}

void lockstep::dispatch(phase p) {
  phase_ = p;
  pending_.store(static_cast<std::uint32_t>(workers_.size()),
                 std::memory_order_relaxed);
  gen_.fetch_add(1, std::memory_order_release);
  gen_.notify_all();
  if (p == phase::stop) return;
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire)) {
    pending_.wait(left, std::memory_order_acquire);
  }
}

void lockstep::worker_main(std::uint32_t i) {
  std::uint32_t seen = 0;
  for (;;) {
    gen_.wait(seen, std::memory_order_acquire);
    seen = gen_.load(std::memory_order_acquire);
    if (phase_ == phase::stop) return;
    if (phase_ == phase::plan && i < cfg_.planner_threads) {
      const std::uint64_t t0 = now();
      pipe_.planners[i].plan(*batch_, slot_->plan_outs[i]);
      record(i + 1, "plan.worker", "plan", t0, now());
    } else if (phase_ == phase::exec && i < cfg_.executor_threads) {
      const std::uint64_t t0 = now();
      core::executor& ex = *pipe_.executors[i];
      ex.begin_batch(batch_start_);
      ex.run_conflict_queues(slot_->exec_queues[i]);
      if (!slot_->read_queues.empty()) {
        ex.run_read_queues(slot_->read_queues, slot_->read_cursor);
      }
      record(i + 1, "exec.worker", "exec", t0, now());
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void lockstep::run(txn::batch& b, common::run_metrics& m) {
  batch_ = &b;
  slot_ = pipe_.slots[replayed_++ % pipe_.slots.size()].get();
  batch_counts c;
  c.txns = b.size();
  batch_start_ = common::now_nanos();
  const std::uint64_t b0 = now();

  // Batch (command) record before planning, as the engine's submit does.
  std::vector<std::byte> payload;
  if (wal_ != nullptr) {
    const std::uint64_t t0 = now();
    log::encode_batch(b, payload);
    const std::uint64_t t1 = now();
    wal_->append(log::record_type::batch, payload);
    record(0, "log.encode_batch", "batch", t0, t1);
    record(0, "log.append_batch", "batch", t1, now());
    c.codec_bytes += payload.size();
  }

  std::uint64_t t0 = now();
  dispatch(phase::plan);
  record(0, "plan", "batch", t0, now());

  const std::size_t execs = cfg_.executor_threads;
  std::vector<std::uint64_t> load(execs, 0);
  for (const auto& po : slot_->plan_outs) {
    c.planned_frags += po.planned_frags;
    for (std::size_t e = 0; e < execs; ++e) {
      load[e] += po.conflict[e].size();
      c.queue_len_max = std::max<std::uint64_t>(c.queue_len_max,
                                                po.conflict[e].size());
    }
    for (const auto& q : po.reads) c.queued_entries += q.size();
  }
  std::uint64_t total = 0, most = 0;
  for (const std::uint64_t l : load) {
    total += l;
    most = std::max(most, l);
  }
  c.queued_entries += total;
  c.exec_load_imbalance =
      total > 0 ? static_cast<double>(most) * static_cast<double>(execs) /
                      static_cast<double>(total)
                : 1.0;

  t0 = now();
  // The engine resolves read-queue rids at the pre-execution quiescent
  // point when planning ran ahead (depth >= 2); charge it to exec.
  if (cfg_.pipeline_depth > 1) slot_->resolve_read_queues(db_);
  slot_->read_cursor.store(0, std::memory_order_relaxed);
  dispatch(phase::exec);
  record(0, "exec", "batch", t0, now());

  t0 = now();
  core::batch_epilogue(db_, cfg_, b, pipe_.executors, spec_, committed_.get(),
                       m);
  record(0, "epilogue", "batch", t0, now());

  if (wal_ != nullptr) {
    log::commit_info ci;
    ci.batch_id = b.id();
    ci.txn_count = static_cast<std::uint32_t>(b.size());
    for (const auto& t : b) {
      if (t->aborted()) {
        ++ci.aborted;
      } else {
        ++ci.committed;
      }
    }
    stream_pos_ += b.size();
    ci.stream_pos = stream_pos_;
    payload.clear();
    t0 = now();
    log::encode_commit(ci, payload);
    const std::uint64_t t1 = now();
    const std::uint64_t lsn = wal_->append(log::record_type::commit, payload);
    const std::uint64_t t2 = now();
    wal_->wait_durable(lsn);
    record(0, "log.encode_commit", "batch", t0, t1);
    record(0, "log.append_commit", "batch", t1, t2);
    record(0, "log.wait_durable", "batch", t2, now());
    c.codec_bytes += payload.size();
  }
  record(0, "batch", "", b0, now());
  counts_.push_back(c);
  m.batches += 1;
}

std::vector<span> lockstep::spans() const {
  std::vector<span> out;
  for (const auto& v : spans_) out.insert(out.end(), v.begin(), v.end());
  return out;
}

void write_chrome_trace(std::ostream& os, const std::vector<span>& spans) {
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& s : spans) origin = std::min(origin, s.start);
  os << "{\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"quecc\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%" PRIu32
                  ",\"args\":{\"batch\":%" PRIu32 ",\"parent\":\"%s\"}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, s.tid, s.batch,
                  s.parent);
    os << buf;
  }
  os << "\n]}\n";
}

}  // namespace qbench
