// quecc_bench: runs the quecc engine over one named workload and
// prints its metrics as one JSON object on the last line of stdout.
//
//   quecc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--run-dir <dir>] [--git-sha <sha>]
//
// --trace 0 measures the end-to-end metrics with tracing off: the run
// repeats rounds (fresh load + engine, the same seeded stream) until the
// rounds' measured time reaches --seconds, and reports medians over
// rounds. --trace 1 prices each layer: one untraced engine round for the
// registry deltas and stage utilisation, then a traced lockstep replay of
// the same stream (see lockstep.hpp), an untraced one for the tracing
// overhead, and storage probes with the workload's own keys.
//
// Every run first replays the stream through the serial engine. A final
// state hash, user-abort count or TPC-C consistency check that differs
// from it exits with status 3 and prints no metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "lockstep.hpp"
#include "obs/metrics.hpp"
#include "protocols/iface.hpp"
#include "protocols/session.hpp"

#ifndef QBENCH_BUILD_TYPE
#define QBENCH_BUILD_TYPE "unknown"
#endif

namespace qbench {
namespace {

/// Seed kept out of every run made while choosing the workloads; later
/// performance claims must also hold on it.
constexpr std::uint64_t kHeldOutSeed = 7919;
/// An open-loop round whose generator posted later than this at p99 is
/// invalid: its latency would include generator stalls.
constexpr double kMaxGenLagP99Ms = 1.0;
/// Traced lockstep: share of the batch spans that the layer spans beneath
/// them may leave uncovered (thread hand-offs between phases).
constexpr double kMaxUnattributed = 0.10;
/// Wall-clock guard: stop starting new rounds after this long.
constexpr double kMaxRunSeconds = 120.0;

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Forwarding engine that timestamps each batch from submit_batch to its
/// acknowledgement: drain_batch, or sync_durable for a durable engine.
class timed_engine final : public proto::engine {
 public:
  timed_engine(proto::engine& inner, bool durable)
      : inner_(inner), durable_(durable) {}

  const char* name() const noexcept override { return inner_.name(); }
  void run_batch(txn::batch& b, common::run_metrics& m) override {
    submit_batch(b, m);
    while (drain_batch()) {
    }
    sync_durable();
  }
  void submit_batch(txn::batch& b, common::run_metrics& m) override {
    const std::uint64_t t = common::now_nanos();
    submit_ns.push_back(t);
    sizes.push_back(static_cast<std::uint32_t>(b.size()));
    inflight_.push_back(t);
    inner_.submit_batch(b, m);
  }
  bool drain_batch() override {
    if (!inner_.drain_batch()) return false;
    drained_.push_back(inflight_.front());
    inflight_.pop_front();
    if (!durable_) ack();
    return true;
  }
  void sync_durable() override {
    inner_.sync_durable();
    if (durable_) ack();
  }
  std::uint32_t pipeline_depth() const noexcept override {
    return inner_.pipeline_depth();
  }

  // Per batch, in submission order.
  std::vector<std::uint64_t> submit_ns;
  std::vector<std::uint64_t> ack_ns;
  std::vector<std::uint32_t> sizes;

 private:
  void ack() {
    const std::uint64_t t = common::now_nanos();
    ack_ns.insert(ack_ns.end(), drained_.size(), t);
    drained_.clear();
  }
  proto::engine& inner_;
  const bool durable_;
  std::deque<std::uint64_t> inflight_;
  std::vector<std::uint64_t> drained_;
};

using counter_map = std::map<std::string, std::uint64_t>;

counter_map scrape_counters() {
  counter_map out;
  for (const auto& [k, v] : obs::snapshot_metrics().counters) out[k] = v;
  return out;
}

counter_map delta(const counter_map& before, const counter_map& after) {
  counter_map out;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    out[k] = v - (it == before.end() ? 0 : it->second);
  }
  return out;
}

std::uint64_t get(const counter_map& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

/// One measured round: fresh load + engine, the whole seeded stream.
struct round_result {
  double setup_s = 0;
  double wall_s = 0;  ///< closed: first submit -> last ack; open: first
                      ///< scheduled arrival -> last ack
  common::run_metrics m;
  counter_map counters;            ///< registry delta over the round
  std::vector<double> batch_ms;    ///< submit -> ack, per batch
  std::vector<double> e2e_ms;      ///< arrival -> ack, per txn
  std::vector<std::uint32_t> sizes;  ///< batch sizes as submitted
  // Open loop only.
  std::vector<double> queue_ms;  ///< arrival -> batch handed to the engine
  std::vector<double> post_us;   ///< session::post call time
  std::vector<double> lag_ms;    ///< how late the generator posted
  bool valid = true;

  double tps() const {
    return wall_s > 0 ? static_cast<double>(m.committed) / wall_s : 0;
  }
};

void closed_loop(proto::engine& eng, std::vector<txn::batch>& batches,
                 bool durable, common::run_metrics& m) {
  const std::size_t depth = std::max<std::uint32_t>(1, eng.pipeline_depth());
  std::size_t next = 0, drained = 0;
  while (drained < batches.size()) {
    if (next < batches.size() && next - drained < depth) {
      eng.submit_batch(batches[next++], m);
    } else {
      eng.drain_batch();
      if (durable) eng.sync_durable();
      ++drained;
    }
  }
}

/// Poisson arrivals at spec.offered_tps through a proto::session; each
/// transaction carries its scheduled arrival time, so a late post counts
/// as latency.
void open_loop(const workload_spec& spec, std::uint64_t seed,
               wl::workload& w, timed_engine& eng, round_result& r) {
  common::rng gen(seed);
  std::vector<std::unique_ptr<txn::txn_desc>> stream;
  stream.reserve(spec.round_txns());
  for (std::uint64_t i = 0; i < spec.round_txns(); ++i) {
    stream.push_back(w.make_txn(gen));
  }
  common::rng arrivals(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::uint64_t> arrival(stream.size());
  r.post_us.reserve(stream.size());
  r.lag_ms.reserve(stream.size());
  std::uint64_t last_commit = 0;
  {
    proto::session s(eng, spec.cfg);
    std::uint64_t next = common::now_nanos();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      next += static_cast<std::uint64_t>(
          -std::log1p(-arrivals.next_double()) / spec.offered_tps * 1e9);
      arrival[i] = next;
      // Spin, not sleep: arrivals are ~33 us apart, below the timer slack,
      // and a sleeping generator on a VM posts up to milliseconds late.
      while (common::now_nanos() < next) {
      }
      const std::uint64_t p0 = common::now_nanos();
      if (!s.post(std::move(stream[i]), next)) {
        throw check_failure("the session rejected a generated transaction");
      }
      const std::uint64_t p1 = common::now_nanos();
      r.lag_ms.push_back(ms(p0 > next ? p0 - next : 0));
      r.post_us.push_back(static_cast<double>(p1 - p0) / 1e3);
    }
    s.close();
    r.m = s.metrics();
    last_commit = s.last_commit_nanos();
  }
  r.wall_s = static_cast<double>(last_commit - arrival.front()) / 1e9;
  // Admission order is arrival order, so batch k holds the next sizes[k]
  // transactions of the stream.
  r.e2e_ms.reserve(arrival.size());
  r.queue_ms.reserve(arrival.size());
  std::size_t i = 0;
  for (std::size_t k = 0; k < eng.sizes.size(); ++k) {
    for (std::uint32_t j = 0; j < eng.sizes[k]; ++j, ++i) {
      r.e2e_ms.push_back(ms(eng.ack_ns[k] - arrival[i]));
      r.queue_ms.push_back(
          ms(eng.submit_ns[k] > arrival[i] ? eng.submit_ns[k] - arrival[i]
                                           : 0));
    }
  }
  r.valid = quantile(r.lag_ms, 0.99) <= kMaxGenLagP99Ms;
}

round_result run_round(const workload_spec& spec, std::uint64_t seed,
                       const std::string& run_dir, const oracle& o) {
  round_result r;
  const log_dir dir(run_dir);
  common::config cfg = spec.cfg;
  if (cfg.durable) cfg.log_dir = dir.path();

  common::stopwatch setup;
  auto w = spec.make();
  auto db = std::make_unique<storage::database>();
  w->load(*db);
  auto eng = proto::make_engine("quecc", *db, cfg);
  r.setup_s = setup.seconds();

  timed_engine te(*eng, cfg.durable);
  const counter_map before = scrape_counters();
  if (spec.open_loop) {
    open_loop(spec, seed, *w, te, r);
  } else {
    auto batches = make_batches(
        *w, seed, uniform_sizes(spec.round_batches, cfg.batch_size));
    closed_loop(te, batches, cfg.durable, r.m);
    r.wall_s = static_cast<double>(te.ack_ns.back() - te.submit_ns.front()) /
               1e9;
  }
  eng.reset();  // joins the workers and flushes the log
  r.counters = delta(before, scrape_counters());
  for (std::size_t k = 0; k < te.sizes.size(); ++k) {
    r.batch_ms.push_back(ms(te.ack_ns[k] - te.submit_ns[k]));
  }
  // On a closed loop every transaction waits exactly its batch's submit ->
  // ack time, and batches are equal-sized.
  if (!spec.open_loop) r.e2e_ms = r.batch_ms;
  r.sizes = te.sizes;

  verify("quecc engine", o, db->state_hash(), r.m.committed, r.m.aborted, *w,
         *db);
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct metric {
  std::string name;
  double value;
  const char* unit;
};

struct outcome {
  std::vector<metric> metrics;
  std::uint64_t attempted = 0;
  std::uint32_t rounds = 0;
  std::uint32_t invalid_rounds = 0;
};

outcome measure(const workload_spec& spec, std::uint64_t seed,
                double seconds, const std::string& run_dir, const oracle& o,
                const common::stopwatch& since_start) {
  outcome out;
  std::vector<round_result> valid;
  std::vector<double> setups;
  double measured = 0;
  while (since_start.seconds() < kMaxRunSeconds &&
         (valid.size() < 3 || measured < seconds)) {
    round_result r = run_round(spec, seed, run_dir, o);
    ++out.rounds;
    setups.push_back(r.setup_s);
    out.attempted += spec.round_txns();
    if (out.rounds == 1) {
      // Warm-up: its set-up counts, its timings do not (first-touch page
      // faults and cold code paths land here).
      std::printf("round 1 (warm-up): %.0f txn/s, setup %.3f s\n", r.tps(),
                  r.setup_s);
      continue;
    }
    if (!r.valid) {
      ++out.invalid_rounds;
      std::printf("round %u invalid: generator lag p99 %.3f ms\n", out.rounds,
                  quantile(r.lag_ms, 0.99));
      continue;
    }
    measured += r.wall_s;
    std::printf("round %u: %.0f txn/s, e2e p50 %.3f p99 %.3f ms, setup "
                "%.3f s, wall %.3f s\n",
                out.rounds, r.tps(), quantile(r.e2e_ms, 0.5),
                quantile(r.e2e_ms, 0.99), r.setup_s, r.wall_s);
    valid.push_back(std::move(r));
  }
  if (valid.empty()) {
    throw check_failure("the open-loop generator fell behind its schedule in "
                        "every round");
  }
  // Medians over rounds: one disturbed round moves none of them.
  auto over_rounds = [&](auto per_round) {
    std::vector<double> v;
    for (const auto& r : valid) v.push_back(per_round(r));
    return median(v);
  };
  std::size_t batches = 0, txns = 0;
  for (const auto& r : valid) {
    batches += r.batch_ms.size();
    txns += r.e2e_ms.size();
  }
  out.metrics = {
      {"throughput_tps", over_rounds([](auto& r) { return r.tps(); }),
       "txn/s"},
      {"batch_p50_ms",
       over_rounds([](auto& r) { return quantile(r.batch_ms, 0.5); }), "ms"},
      {"e2e_p50_ms",
       over_rounds([](auto& r) { return quantile(r.e2e_ms, 0.5); }), "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("samples: %zu batches, %zu transactions over %zu valid rounds\n",
              batches, txns, valid.size());
  return out;
}

struct storage_prices {
  double hash_ns = 0;
  double ordered_ns = 0;
  double scan_ns_per_key = 0;
};

/// Time table::lookup_local and visit_range_in with the keys of the
/// stream's own fragments, on the database the stream ran against.
storage_prices probe_storage(const storage::database& db,
                             const std::vector<txn::batch>& batches,
                             part_id_t parts) {
  struct point {
    const storage::table* t;
    quecc::key_t key;
    quecc::key_t hi;  ///< scans only
    part_id_t part;
  };
  std::vector<point> hash_ops, ordered_ops, scans;
  for (const auto& b : batches) {
    for (const auto& t : b) {
      for (const auto& f : t->frags) {
        const storage::table* tb = &db.at(f.table);
        if (f.kind == txn::op_kind::scan) {
          for (part_id_t p = 0; p < parts; ++p) {
            if (f.part == txn::kAllParts || f.part == p) {
              scans.push_back({tb, f.key, f.key_hi, p});
            }
          }
        } else if (f.kind != txn::op_kind::insert) {
          (tb->index() == storage::index_kind::ordered ? ordered_ops
                                                       : hash_ops)
              .push_back({tb, f.key, 0, f.part});
        }
      }
    }
  }

  auto price_points = [](const std::vector<point>& ops) {
    if (ops.empty()) return 0.0;
    std::vector<double> reps;
    volatile std::uint64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
      std::uint64_t acc = 0;
      common::stopwatch sw;
      for (const auto& op : ops) acc ^= op.t->lookup_local(op.key, op.part);
      reps.push_back(static_cast<double>(sw.nanos()) /
                     static_cast<double>(ops.size()));
      sink = sink ^ acc;
    }
    return median(reps);
  };

  storage_prices out;
  out.hash_ns = price_points(hash_ops);
  out.ordered_ns = price_points(ordered_ops);
  if (!scans.empty()) {
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      std::uint64_t keys = 0;
      common::stopwatch sw;
      for (const auto& sc : scans) {
        sc.t->visit_range_in(
            sc.part, sc.key, sc.hi,
            [](void* ctx, quecc::key_t, storage::row_id_t) {
              ++*static_cast<std::uint64_t*>(ctx);
              return true;
            },
            &keys);
      }
      const std::uint64_t ns = sw.nanos();
      reps.push_back(keys > 0 ? static_cast<double>(ns) /
                                    static_cast<double>(keys)
                              : 0.0);
    }
    out.scan_ns_per_key = median(reps);
  }
  return out;
}

/// Lockstep replay of `sizes`-shaped batches of the seeded stream on a
/// fresh database; checked against the oracle.
struct replay {
  replay(const workload_spec& spec, std::uint64_t seed,
         const std::vector<std::uint32_t>& sizes, bool traced,
         const std::string& run_dir, const oracle& o)
      : w(spec.make()), dir(run_dir) {
    w->load(db);
    if (spec.cfg.durable) {
      wal = std::make_unique<log::log_writer>(
          dir.path(), log::writer_options{spec.cfg.group_commit_micros,
                                          spec.cfg.log_segment_bytes, false});
    }
    ls = std::make_unique<lockstep>(db, spec.cfg, wal.get(), traced);
    batches = make_batches(*w, seed, sizes);
    common::stopwatch sw;
    for (auto& b : batches) ls->run(b, m);
    wall_s = sw.seconds();
    verify(traced ? "traced lockstep" : "untraced lockstep", o,
           db.state_hash(), m.committed, m.aborted, *w, db);
  }

  std::unique_ptr<wl::workload> w;
  storage::database db;
  log_dir dir;  // outlives the writer, which flushes into it on destruction
  std::unique_ptr<log::log_writer> wal;
  std::unique_ptr<lockstep> ls;
  std::vector<txn::batch> batches;
  common::run_metrics m;
  double wall_s = 0;
};

outcome trace_run(const workload_spec& spec, std::uint64_t seed,
                  const std::string& run_dir, const oracle& o) {
  outcome out;
  // A warm-up round first, as in the untraced run.
  run_round(spec, seed, run_dir, o);
  const round_result er = run_round(spec, seed, run_dir, o);
  out.rounds = 2;
  out.invalid_rounds = er.valid ? 0 : 1;
  out.attempted += 2 * spec.round_txns();
  std::printf("engine round: %.0f txn/s over %.3f s\n", er.tps(), er.wall_s);

  // Traced lockstep over the same batch boundaries the engine saw, then an
  // untraced one for the tracing overhead (one database alive at a time).
  std::vector<span> spans;
  std::vector<batch_counts> counts;
  storage_prices sp;
  double traced_s = 0, untraced_s = 0;
  {
    const replay tr(spec, seed, er.sizes, true, run_dir, o);
    spans = tr.ls->spans();
    counts = tr.ls->counts();
    sp = probe_storage(tr.db, tr.batches, spec.cfg.partitions);
    traced_s = tr.wall_s;
  }
  {
    const replay un(spec, seed, er.sizes, false, run_dir, o);
    untraced_s = un.wall_s;
  }
  out.attempted += 2 * spec.round_txns();
  {
    const std::string path =
        (std::filesystem::path(run_dir) /
         ("trace-" + spec.name + "-seed" + std::to_string(seed) + ".json"))
            .string();
    std::ofstream os(path);
    write_chrome_trace(os, spans);
    std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
  }

  // Self times per batch: each layer span's duration, and the part of the
  // batch span no layer span covers.
  const std::size_t nb = counts.size();
  struct per_batch {
    std::uint64_t batch = 0, children = 0, plan_busy = 0, exec_wall = 0,
                  exec_busy = 0, exec_max = 0, epilogue = 0, encode = 0,
                  append = 0, wait = 0;
    std::uint32_t execs = 0;
  };
  std::vector<per_batch> pb(nb);
  for (const span& s : spans) {
    per_batch& p = pb.at(s.batch);
    const std::uint64_t d = s.end - s.start;
    const std::string n = s.name;
    if (n == "batch") {
      p.batch = d;
      continue;
    }
    if (std::strcmp(s.parent, "batch") == 0) p.children += d;
    if (n == "plan.worker") p.plan_busy += d;
    if (n == "exec") p.exec_wall = d;
    if (n == "exec.worker") {
      p.exec_busy += d;
      p.exec_max = std::max(p.exec_max, d);
      ++p.execs;
    }
    if (n == "epilogue") p.epilogue = d;
    if (n == "log.encode_batch" || n == "log.encode_commit") p.encode += d;
    if (n == "log.append_batch" || n == "log.append_commit") p.append += d;
    if (n == "log.wait_durable") p.wait = d;
  }
  double batch_sum = 0, child_sum = 0, plan_busy = 0, exec_wall = 0,
         exec_busy = 0, epilogue = 0, encode = 0, append = 0, straggler = 0,
         imbalance = 0, frags = 0, entries = 0, codec_bytes = 0, txns = 0;
  std::uint64_t queue_max = 0;
  double worst_cover = 1;
  std::vector<double> waits;
  for (std::size_t k = 0; k < nb; ++k) {
    const per_batch& p = pb[k];
    batch_sum += static_cast<double>(p.batch);
    child_sum += static_cast<double>(p.children);
    worst_cover = std::min(worst_cover, static_cast<double>(p.children) /
                                            static_cast<double>(p.batch));
    plan_busy += static_cast<double>(p.plan_busy);
    exec_wall += static_cast<double>(p.exec_wall);
    exec_busy += static_cast<double>(p.exec_busy);
    epilogue += static_cast<double>(p.epilogue);
    encode += static_cast<double>(p.encode);
    append += static_cast<double>(p.append);
    if (spec.cfg.durable) waits.push_back(static_cast<double>(p.wait) / 1e3);
    if (p.exec_max > 0) {
      const double mean = static_cast<double>(p.exec_busy) / p.execs;
      straggler += (static_cast<double>(p.exec_max) - mean) /
                   static_cast<double>(p.exec_max);
    }
    imbalance += counts[k].exec_load_imbalance;
    frags += static_cast<double>(counts[k].planned_frags);
    entries += static_cast<double>(counts[k].queued_entries);
    codec_bytes += static_cast<double>(counts[k].codec_bytes);
    txns += static_cast<double>(counts[k].txns);
    queue_max = std::max(queue_max, counts[k].queue_len_max);
  }
  const double unattributed = 1.0 - child_sum / batch_sum;
  std::printf("reconciliation: layer spans cover %.2f%% of %zu batch spans "
              "(worst batch %.2f%%)\n",
              100.0 * child_sum / batch_sum, nb, 100.0 * worst_cover);
  if (unattributed > kMaxUnattributed) {
    throw check_failure("traced layer spans leave " +
                        std::to_string(unattributed * 100) +
                        "% of the batch spans unaccounted for");
  }

  const double B = static_cast<double>(nb);
  const double eb = static_cast<double>(er.m.batches);
  const double reexec =
      static_cast<double>(get(er.counters, "spec.reexecutions_total"));
  const double formed =
      static_cast<double>(get(er.counters, "admission.batches_formed_total"));
  const double serial_tps = static_cast<double>(o.committed) / o.seconds;
  const double wall = er.wall_s;
  const double P = spec.cfg.planner_threads, E = spec.cfg.executor_threads;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out.metrics = {
      {"plan.busy_ms_per_batch", plan_busy / 1e6 / B, "ms"},
      {"plan.ns_per_frag", per(plan_busy, frags), "ns"},
      {"plan.frags_per_batch", frags / B, "count"},
      {"plan.queue_len_max", static_cast<double>(queue_max), "count"},
      {"plan.exec_load_imbalance", imbalance / B, "ratio"},
      {"exec.wall_ms_per_batch", exec_wall / 1e6 / B, "ms"},
      {"exec.busy_ms_per_batch", exec_busy / 1e6 / B, "ms"},
      {"exec.ns_per_frag", per(exec_busy, entries), "ns"},
      {"exec.straggler_frac", straggler / B, "ratio"},
      {"epilogue.ms_per_batch", epilogue / 1e6 / B, "ms"},
      {"spec.reexec_per_batch", per(reexec, eb), "count"},
      {"spec.cascades_per_batch",
       per(static_cast<double>(get(er.counters, "spec.cascade_aborts_total")),
           eb),
       "count"},
      {"spec.full_redo_batches",
       static_cast<double>(get(er.counters, "spec.full_redo_total")), "count"},
      {"spec.useful_frac",
       per(static_cast<double>(er.m.committed),
           static_cast<double>(spec.round_txns()) + reexec),
       "ratio"},
      {"codec.encode_us_per_batch", encode / 1e3 / B, "us"},
      {"codec.bytes_per_txn", per(codec_bytes, txns), "B"},
      {"log.append_us_per_batch", append / 1e3 / B, "us"},
      {"log.wait_durable_p50_us", quantile(waits, 0.5), "us"},
      {"log.wait_durable_p99_us", quantile(waits, 0.99), "us"},
      {"log.fsyncs_per_batch",
       per(static_cast<double>(get(er.counters, "log.fsyncs_total")), eb),
       "count"},
      {"log.bytes_per_txn",
       per(static_cast<double>(get(er.counters, "log.appended_bytes_total")),
           static_cast<double>(spec.round_txns())),
       "B"},
      {"storage.hash.lookup_ns", sp.hash_ns, "ns"},
      {"storage.ordered.lookup_ns", sp.ordered_ns, "ns"},
      {"storage.ordered.scan_ns_per_key", sp.scan_ns_per_key, "ns"},
      {"admission.txns_per_batch",
       per(static_cast<double>(spec.round_txns()),
           static_cast<double>(er.sizes.size())),
       "count"},
      {"admission.deadline_closed_frac",
       per(static_cast<double>(
               get(er.counters, "admission.deadline_closed_batches_total")),
           formed),
       "ratio"},
      {"admission.queue_p99_ms", quantile(er.queue_ms, 0.99), "ms"},
      {"session.post_p99_us", quantile(er.post_us, 0.99), "us"},
      {"harness.gen_lag_p99_ms", quantile(er.lag_ms, 0.99), "ms"},
      {"harness.batch_p90_ms", quantile(er.batch_ms, 0.9), "ms"},
      {"harness.e2e_p99_ms", quantile(er.e2e_ms, 0.99), "ms"},
      {"engine.plan_util", per(er.m.plan_busy_seconds, wall * P), "ratio"},
      {"engine.exec_util", per(er.m.exec_busy_seconds, wall * E), "ratio"},
      {"engine.epilogue_util", per(er.m.epilogue_busy_seconds, wall), "ratio"},
      {"engine.overlap_frac", per(er.m.pipeline_overlap_seconds, wall),
       "ratio"},
      {"ref.serial_tps", serial_tps, "txn/s"},
      {"ref.quecc_over_serial", per(er.tps(), serial_tps), "ratio"},
      {"trace.overhead_frac", per(traced_s - untraced_s, untraced_s), "ratio"},
      {"trace.unattributed_frac", unattributed, "ratio"},
  };
  return out;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int usage() {
  std::fprintf(stderr,
               "usage: quecc_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--run-dir <dir>] [--git-sha <sha>]\n"
               "workloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) {
  using namespace qbench;
  std::map<std::string, std::string> args = {
      {"--seed", "1"}, {"--seconds", "10"}, {"--trace", "0"},
      {"--run-dir", ".bench_run"}, {"--git-sha", "unknown"}};
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    if (args.count(argv[i]) == 0 && std::strcmp(argv[i], "--workload") != 0) {
      return usage();
    }
    args[argv[i]] = argv[i + 1];
  }
  const workload_spec* spec = find_workload(args["--workload"]);
  if (spec == nullptr) return usage();
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const bool trace = args["--trace"] == "1";
  const std::string run_dir = args["--run-dir"];
  std::filesystem::create_directories(run_dir);

  const common::stopwatch since_start;
  outcome out;
  oracle o;
  try {
    o = run_oracle(*spec, seed);
    std::printf("serial oracle: %" PRIu64 " committed, %" PRIu64
                " user aborts, %.0f txn/s\n",
                o.committed, o.aborted,
                static_cast<double>(o.committed) / o.seconds);
    out = trace ? trace_run(*spec, seed, run_dir, o)
                : measure(*spec, seed, seconds, run_dir, o, since_start);
  } catch (const check_failure& e) {
    std::fprintf(stderr, "CHECK FAILED [%s seed %" PRIu64 "]: %s\n",
                 spec->name.c_str(), seed, e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error [%s seed %" PRIu64 "]: %s\n",
                 spec->name.c_str(), seed, e.what());
    return 1;
  }

  std::printf("stamp {\"workload\":");
  print_json_string(spec->name);
  std::printf(",\"seed\":%" PRIu64 ",\"held_out_seed\":%" PRIu64
              ",\"trace\":%d,\"seconds\":%g,\"nproc\":%ld,\"llc_bytes\":%ld,"
              "\"build_type\":",
              seed, kHeldOutSeed, trace ? 1 : 0, seconds,
              ::sysconf(_SC_NPROCESSORS_ONLN),
              ::sysconf(_SC_LEVEL3_CACHE_SIZE));
  print_json_string(QBENCH_BUILD_TYPE);
  std::printf(",\"compiler\":");
  print_json_string(__VERSION__);
  std::printf(",\"git_sha\":");
  print_json_string(args["--git-sha"]);
  std::printf(",\"offered_tps\":%g,\"rounds\":%u,\"invalid_rounds\":%u,"
              "\"round_txns\":%" PRIu64 ",\"run_s\":%.3f}\n",
              spec->offered_tps, out.rounds, out.invalid_rounds,
              spec->round_txns(), since_start.seconds());
  for (const auto& m : out.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }

  // Nothing failed: verify() accounted every attempted transaction as
  // committed or as a user abort the serial replay also aborts.
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": 0, \"metrics\": {",
              out.attempted);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  return 0;
}
