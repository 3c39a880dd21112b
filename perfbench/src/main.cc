// mppbench: runs one named workload from a seed against mppdb, checks every
// answer against the workload's own plain evaluation, and prints the
// metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also writes the span log).
//
//   mppbench --workload lineitem_scan --seed 1 --seconds 20 --trace 0
//            [--scale 1.0] [--out .bench_out] [--perturb read|write|parts]
//
// --scale shrinks every table (the self-check uses it); --perturb alters
// one expected value so that the run must report correct = false.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  double scale = 1.0;
  std::string out = ".bench_out";
  std::string perturb;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = value == "1";
      } else if (key == "--scale") {
        args->scale = std::stod(value);
      } else if (key == "--out") {
        args->out = value;
      } else if (key == "--perturb") {
        args->perturb = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty() && argc % 2 == 1 && args->scale > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One executed statement of the measured window.
struct Sample {
  uint64_t round;
  Stmt::Kind kind;
  std::string cls;
  double ms;
  double cpu_ms;
  uint64_t must_rows;
  /// A read that scanned a partition written since that partition was last
  /// read.
  bool after_write;
  size_t partitions_scanned;
  size_t leaf_partitions;
  /// The outcome's timings and counters; its rows and plan are dropped so
  /// that kept samples do not grow resident memory.
  double exec_ms;
  std::vector<uint64_t> busy_ns;
  bool planned;
  size_t search_requests;
  size_t plan_nodes;
  mppdb::ExecStats stats;
};

void Perturb(Cell* cell) {
  if (auto* i = std::get_if<int64_t>(cell)) {
    *i += 1;
  } else if (auto* d = std::get_if<double>(cell)) {
    *d = *d * 1.001 + 1;
  } else if (auto* s = std::get_if<std::string>(cell)) {
    *s += "?";
  } else {
    *cell = int64_t{1};
  }
}

class Runner {
 public:
  Runner(Workload* workload, Engine* engine, std::string perturb)
      : workload_(workload), engine_(engine), perturb_(std::move(perturb)) {}

  /// Runs the statements of `round` (only its SELECTs when `reads_only`);
  /// samples are kept when `record`.
  void RunRound(uint64_t round, bool record, bool reads_only = false) {
    for (const Stmt& stmt : workload_->Round(round)) {
      if (!reads_only || !IsWrite(stmt)) RunOne(stmt, round, record);
    }
  }

  uint64_t next_stmt_id() const { return next_id_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  void AddError(std::string e) { errors_.push_back(std::move(e)); }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  void RunOne(const Stmt& stmt, uint64_t round, bool record) {
    const uint64_t id = next_id_++;
    ++attempted_;
    Engine::Outcome outcome = engine_->Run(stmt, id);
    if (!outcome.result.ok()) {
      ++failed_;
      if (failed_ <= 5) {
        std::cerr << "statement failed (" << stmt.cls << "): "
                  << outcome.result.status().ToString() << "\n  " << stmt.sql.substr(0, 300)
                  << "\n";
      }
      return;
    }
    Expectation expected = workload_->Apply(stmt);
    MaybePerturb(stmt, &expected);
    const mppdb::QueryResult& result = *outcome.result;
    auto fail = [&](const std::string& what) {
      errors_.push_back(stmt.cls + ": " + what + "\n  " + stmt.sql.substr(0, 300));
    };
    if (std::string diff = CompareAnswers(expected.answer, ToAnswer(result.rows));
        !diff.empty()) {
      fail("wrong answer: " + diff);
    }
    const PartSet scanned = engine_->ToPartSet(result.stats);
    bool after_write = false;
    size_t scanned_count = 0, leaves = 0;
    for (const std::string& table : stmt.tables) {
      const std::set<int> empty;
      auto find = [&](const PartSet& set) -> const std::set<int>& {
        auto it = set.find(table);
        return it == set.end() ? empty : it->second;
      };
      const std::set<int>& got = find(scanned);
      const std::set<int>& must = find(expected.must);
      if (!std::includes(got.begin(), got.end(), must.begin(), must.end())) {
        fail(table + ": scanned " + std::to_string(got.size()) +
             " partitions, missing some of the " + std::to_string(must.size()) +
             " that hold qualifying rows");
      }
      if (expected.exact && find(*expected.exact) != got) {
        fail(table + ": scanned " + std::to_string(got.size()) + " partitions, expected " +
             "exactly the " + std::to_string(find(*expected.exact).size()) +
             " whose bounds meet the partition-key range");
      }
      for (int part : got) after_write |= dirty_[table].erase(part) > 0;
      for (int part : find(expected.written)) dirty_[table].insert(part);
      scanned_count += got.size();
      leaves += engine_->LeafCount(table);
    }
    if (record) {
      samples_.push_back({round, stmt.kind, stmt.cls, outcome.ms, outcome.cpu_ms,
                          expected.must_rows,
                          after_write && !IsWrite(stmt), scanned_count, leaves,
                          outcome.exec_ms, std::move(outcome.busy_ns), outcome.planned,
                          outcome.search_requests, outcome.plan_nodes, result.stats});
    }
  }

  void MaybePerturb(const Stmt& stmt, Expectation* e) {
    if (perturb_.empty() || perturbed_) return;
    if (perturb_ == "read" && !IsWrite(stmt) && !e->answer.empty() &&
        !e->answer[0].empty()) {
      Perturb(&e->answer[0][0]);
    } else if (perturb_ == "write" && IsWrite(stmt)) {
      Perturb(&e->answer[0][0]);
    } else if (perturb_ == "parts" && !IsWrite(stmt) && !stmt.tables.empty()) {
      // A partition the statement cannot have scanned.
      e->must[stmt.tables[0]].insert(-1);
    } else {
      return;
    }
    perturbed_ = true;
  }

  Workload* workload_;
  Engine* engine_;
  std::string perturb_;
  bool perturbed_ = false;
  uint64_t next_id_ = 1;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<Sample> samples_;
  /// Partitions written since they were last read, per table.
  std::map<std::string, std::set<int>> dirty_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

std::vector<double> Times(const std::vector<Sample>& samples,
                          const std::function<bool(const Sample&)>& keep) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (keep(s)) out.push_back(s.ms);
  }
  return out;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: mppbench --workload lineitem_scan|tpcds_adhoc|dml_mix --seed N "
                 "--seconds S --trace 0|1 [--scale F] [--out DIR] "
                 "[--perturb read|write|parts]\n";
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "lineitem_scan") {
    workload = MakeLineitemScan(args.seed, args.scale);
  } else if (args.workload == "tpcds_adhoc") {
    workload = MakeTpcdsAdhoc(args.seed, args.scale);
  } else if (args.workload == "dml_mix") {
    workload = MakeDmlMix(args.seed, args.scale);
  } else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }

  // --- Set-up: model, then DDL + load + indexes, then the SELECTs of one
  // warm-up round so lazy read structures (column images, synopses) are
  // built. All of it counts in setup_s and resident_bytes_per_row, so work
  // moved from load time to first use shows. The warm-up leaves writes out:
  // their transient memory is measured over the window instead.
  workload->Generate();
  const uint64_t rss_before = ResidentBytes();
  Engine engine(args.trace, args.out);
  if (mppdb::Status st = workload->Setup(&engine); !st.ok()) {
    std::cerr << "setup failed: " << st.ToString() << "\n";
    return 1;
  }
  engine.IndexPartitions(workload->Tables());
  Runner runner(workload.get(), &engine, args.perturb);
  runner.RunRound(0, /*record=*/false, /*reads_only=*/true);
  const double setup_s = SecondsSince(process_start);
  const uint64_t rss_setup = ResidentBytes();

  // --- Measured window: whole rounds until the run length is reached.
  const mppdb::PlanCache::Stats cache_before = engine.db().plan_cache().stats();
  const uint64_t first_stmt = runner.next_stmt_id();
  const Clock::time_point window_start = Clock::now();
  uint64_t rounds = 0;
  while (rounds == 0 || SecondsSince(window_start) < args.seconds) {
    runner.RunRound(++rounds, /*record=*/true);
  }
  const double window_s = SecondsSince(window_start);
  const uint64_t last_stmt = runner.next_stmt_id() - 1;
  const uint64_t rss_end = ResidentBytes();
  const mppdb::PlanCache::Stats cache_after = engine.db().plan_cache().stats();

  for (std::string& e : workload->FinalChecks(&engine)) runner.AddError(std::move(e));
  const bool correct = runner.errors().empty();
  for (size_t i = 0; i < runner.errors().size() && i < 10; ++i) {
    std::cerr << "CHECK FAILED: " << runner.errors()[i] << "\n";
  }

  const std::vector<Sample>& samples = runner.samples();
  const auto is_read = [](const Sample& s) { return s.kind == Stmt::Kind::kSelect; };
  const auto is_write = [](const Sample& s) { return s.kind != Stmt::Kind::kSelect; };
  const std::vector<double> reads = Times(samples, is_read);
  const std::vector<double> writes = Times(samples, is_write);

  // Every round runs the same statement templates, so each timing metric is
  // taken per round and reported as the median over rounds: a statement
  // that a burst of outside load slowed moves its round only, and a median
  // over statements of very different cost cannot fall into the gap
  // between two templates.
  struct RoundSums {
    double reads = 0, read_ms = 0, read_cpu_ms = 0;
    double writes = 0, write_ms = 0, write_cpu_ms = 0;
    double must_rows = 0;
  };
  std::map<uint64_t, RoundSums> by_round;
  for (const Sample& s : samples) {
    RoundSums& r = by_round[s.round];
    if (is_read(s)) {
      r.reads += 1, r.read_ms += s.ms, r.read_cpu_ms += s.cpu_ms;
    } else {
      r.writes += 1, r.write_ms += s.ms, r.write_cpu_ms += s.cpu_ms;
    }
    r.must_rows += static_cast<double>(s.must_rows);
  }
  std::vector<double> query_cpu_ms, write_cpu_ms, statements_per_cpu_s, rows_per_cpu_s;
  std::vector<double> query_wall_ms, write_wall_ms, statements_per_s;
  for (const auto& [round, r] : by_round) {
    const double cpu_ms = r.read_cpu_ms + r.write_cpu_ms;
    if (r.reads > 0) {
      query_cpu_ms.push_back(r.read_cpu_ms / r.reads);
      query_wall_ms.push_back(r.read_ms / r.reads);
    }
    if (r.writes > 0) {
      write_cpu_ms.push_back(r.write_cpu_ms / r.writes);
      write_wall_ms.push_back(r.write_ms / r.writes);
    }
    statements_per_cpu_s.push_back(Ratio((r.reads + r.writes) * 1000, cpu_ms));
    rows_per_cpu_s.push_back(Ratio(r.must_rows * 1000, cpu_ms));
    statements_per_s.push_back(Ratio((r.reads + r.writes) * 1000, r.read_ms + r.write_ms));
  }
  const double rows = static_cast<double>(workload->RowsLoaded());

  std::printf("# %s seed=%llu rounds=%llu window_s=%.3f statements=%zu reads=%zu writes=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(rounds), window_s, samples.size(), reads.size(),
              writes.size());
  // Wall-clock figures, as comments: on a shared host they follow the other
  // tenants' load (see README), so they are not bounded.
  std::printf("# wall: query_ms=%.4f write_ms=%.4f statements_per_s=%.2f (medians over rounds)\n",
              Median(query_wall_ms), Median(write_wall_ms), Median(statements_per_s));
  std::printf("# wall: query_p99_ms=%.4f (n=%zu) write_p99_ms=%.4f (n=%zu)\n",
              Percentile(reads, 0.99), reads.size(), Percentile(writes, 0.99), writes.size());

  std::map<std::string, std::vector<const Sample*>> by_class;
  for (const Sample& s : samples) by_class[s.cls].push_back(&s);
  for (const auto& [cls, members] : by_class) {
    std::vector<double> ms, cpu_ms;
    double parts = 0, tuples = 0;
    for (const Sample* s : members) {
      ms.push_back(s->ms);
      cpu_ms.push_back(s->cpu_ms);
      parts += static_cast<double>(s->partitions_scanned);
      tuples += static_cast<double>(s->stats.tuples_scanned);
    }
    const double n = static_cast<double>(members.size());
    std::printf("# class %-22s n=%-6zu median_ms=%-10.4f median_cpu_ms=%-10.4f parts=%-8.2f "
                "tuples=%.0f\n",
                cls.c_str(), members.size(), Median(ms), Median(cpu_ms), parts / n, tuples / n);
  }

  const std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"resident_bytes_per_row",
       Ratio(static_cast<double>(rss_setup) - static_cast<double>(rss_before), rows), "B/row"},
      {"query_cpu_ms", Median(query_cpu_ms), "ms"},
      {"write_cpu_ms", Median(write_cpu_ms), "ms"},
      {"statements_per_cpu_s", Median(statements_per_cpu_s), "1/s"},
      {"rows_per_cpu_s", Median(rows_per_cpu_s), "rows/s"},
  };
  std::vector<Metric> metrics = end_to_end;
  if (args.trace) {
    // A traced run reports its end-to-end figures as comments only: the
    // difference from an untraced run of the same seed is the tracing
    // overhead.
    for (const Metric& m : end_to_end) {
      std::printf("# traced %-33s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const std::string written = engine.WriteSpans(args.workload + "-seed" +
                                                  std::to_string(args.seed));
    std::printf("# spans: %s\n", written.empty() ? "(not written)" : written.c_str());

    auto span_median_us = [&](const char* name) {
      std::vector<double> v;
      for (int64_t ns : engine.SpanDurations(name, first_stmt, last_stmt)) {
        v.push_back(static_cast<double>(ns) / 1000);
      }
      return Median(v);
    };
    double planned = 0, requests = 0, nodes = 0, exec_ms_total = 0, tuples = 0;
    double busy_ns = 0, idle_ns = 0, on_scheduler = 0, moved = 0;
    double jf_probed = 0, jf_rejected = 0, chunks = 0, skipped = 0, encoded = 0;
    double index_rows = 0, scanned = 0, leaves = 0, reads_n = 0;
    std::vector<double> exec_ms, raw_ms, worker_busy(Engine::kWorkers, 0);
    std::map<Stmt::Kind, std::vector<double>> by_kind;
    for (const Sample& s : samples) {
      const Sample& o = s;
      const mppdb::ExecStats& st = s.stats;
      if (o.planned) {
        ++planned;
        requests += static_cast<double>(o.search_requests);
        nodes += static_cast<double>(o.plan_nodes);
      }
      exec_ms.push_back(o.exec_ms);
      exec_ms_total += o.exec_ms;
      tuples += static_cast<double>(st.tuples_scanned);
      if (!o.busy_ns.empty()) {
        ++on_scheduler;
        double busy = 0;
        for (size_t w = 0; w < o.busy_ns.size(); ++w) {
          busy += static_cast<double>(o.busy_ns[w]);
          worker_busy[w] += static_cast<double>(o.busy_ns[w]);
        }
        busy_ns += busy;
        idle_ns += std::max(0.0, Engine::kWorkers * o.exec_ms * 1e6 - busy);
      }
      moved += static_cast<double>(st.rows_moved);
      jf_probed += static_cast<double>(st.joinfilter_probed);
      jf_rejected += static_cast<double>(st.joinfilter_rows_rejected);
      chunks += static_cast<double>(st.chunks_total);
      skipped += static_cast<double>(st.chunks_skipped);
      encoded += static_cast<double>(st.encoded_bytes_scanned);
      index_rows += static_cast<double>(st.index_rows_read);
      if (s.after_write) raw_ms.push_back(s.ms);
      if (s.kind == Stmt::Kind::kSelect) {
        ++reads_n;
        scanned += static_cast<double>(s.partitions_scanned);
        leaves += static_cast<double>(s.leaf_partitions);
      }
      by_kind[s.kind].push_back(s.ms);
    }
    const double n = static_cast<double>(samples.size());
    const double busy_mean =
        std::accumulate(worker_busy.begin(), worker_busy.end(), 0.0) / Engine::kWorkers;
    const double busy_max = *std::max_element(worker_busy.begin(), worker_busy.end());
    const double lookups =
        static_cast<double>((cache_after.hits - cache_before.hits) +
                            (cache_after.misses - cache_before.misses));
    metrics = {
        {"sql.parse_us", span_median_us("sql.parse"), "us"},
        {"sql.bind_us", span_median_us("sql.bind"), "us"},
        {"sql.normalize_us", span_median_us("sql.normalize"), "us"},
        {"optimizer.plan_us", span_median_us("optimizer.plan"), "us"},
        {"optimizer.search_requests", Ratio(requests, planned), "count"},
        {"optimizer.plan_nodes", Ratio(nodes, planned), "count"},
        {"plan_cache.hit_ratio",
         Ratio(static_cast<double>(cache_after.hits - cache_before.hits), lookups), "ratio"},
        {"exec.execute_ms", Median(exec_ms), "ms"},
        {"exec.ns_per_row", Ratio(exec_ms_total * 1e6, tuples), "ns/row"},
        {"exec.worker_busy_ms", Ratio(busy_ns / 1e6, on_scheduler), "ms"},
        {"exec.worker_idle_ms", Ratio(idle_ns / 1e6, on_scheduler), "ms"},
        {"exec.busy_max_over_mean", Ratio(busy_max, busy_mean), "ratio"},
        {"exec.rows_moved", Ratio(moved, n), "rows"},
        {"runtime.partitions_scanned", Ratio(scanned, reads_n), "count"},
        {"runtime.partitions_scanned_ratio", Ratio(scanned, leaves), "ratio"},
        {"runtime.joinfilter_reject_ratio", Ratio(jf_rejected, jf_probed), "ratio"},
        {"storage.load_rows_per_s",
         Ratio(static_cast<double>(engine.load_rows()), engine.load_seconds()), "rows/s"},
        {"storage.chunks_skipped_ratio", Ratio(skipped, chunks), "ratio"},
        {"storage.encoded_bytes_per_row", Ratio(encoded, tuples), "B/row"},
        {"storage.index_rows_read", Ratio(index_rows, n), "rows"},
        {"storage.read_after_write_ms", Median(raw_ms), "ms"},
        {"storage.resident_growth_bytes_per_row",
         Ratio(static_cast<double>(rss_end) - static_cast<double>(rss_setup), rows), "B/row"},
        // Means, not medians: a kind mixes statements of very different cost
        // (by key through a full scan, by a pruned date range) in equal
        // numbers, and a median would fall in the gap between them.
        {"dml.insert_ms", Mean(by_kind[Stmt::Kind::kInsert]), "ms"},
        {"dml.update_ms", Mean(by_kind[Stmt::Kind::kUpdate]), "ms"},
        {"dml.delete_ms", Mean(by_kind[Stmt::Kind::kDelete]), "ms"},
    };
  }
  for (const Metric& m : metrics) {
    std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", Json(correct, runner.attempted(), runner.failed(), metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
