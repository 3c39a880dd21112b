// Shared pieces of the mppdb benchmark: the benchmark's own input generator
// and calendar, answer comparison, the statement record every workload
// produces, and the Engine wrapper that runs statements untraced (one
// Database::Execute call, as a user would) or traced (the same work split
// into the layer calls, each timed from outside the program).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "db/database.h"

namespace perfbench {

/// splitmix64. The benchmark owns its generator so that an edit to the
/// engine's own generators or workload code cannot move its inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform integer in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Independent stream `stream` of seed `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Days since 1970-01-01 in the proleptic Gregorian calendar (the engine's
/// DATE representation).
int32_t DaysFromCivil(int year, int month, int day);
void CivilFromDays(int32_t days, int* year, int* month, int* day);
/// SQL literal DATE 'YYYY-MM-DD'.
std::string DateLiteral(int32_t days);
/// First day of the month `months` after year/month 1.
int32_t MonthStart(int first_year, int months);

/// One result cell, reduced to what the checks compare.
using Cell = std::variant<std::monostate, int64_t, double, std::string>;
using AnswerRow = std::vector<Cell>;
using Answer = std::vector<AnswerRow>;

Answer ToAnswer(const std::vector<mppdb::Row>& rows);

/// SQL sum() over `n` rows: NULL when no row qualified.
inline Cell SumCell(int64_t n, int64_t sum) { return n == 0 ? Cell() : Cell(sum); }
inline Cell SumCell(int64_t n, long double sum) {
  return n == 0 ? Cell() : Cell(static_cast<double>(sum));
}

/// Relative tolerance for float sums: the engine and the plain evaluation
/// add in different orders.
inline constexpr double kFloatTolerance = 1e-9;

/// "" when the answers agree (as multisets of rows: integers and strings
/// exactly, doubles within kFloatTolerance), otherwise a description.
std::string CompareAnswers(Answer expected, Answer actual);

/// Table name -> leaf partition indices (bound order; 0 for an
/// unpartitioned table).
using PartSet = std::map<std::string, std::set<int>>;

struct Stmt {
  enum class Kind { kSelect, kInsert, kUpdate, kDelete };
  Kind kind = Kind::kSelect;
  /// Template class, e.g. "range_revenue".
  std::string cls;
  std::string sql;
  /// Partitioned tables the statement references (Fig. 16 denominator).
  std::vector<std::string> tables;
  bool use_plan_cache = false;
  /// The literals the SQL was built from, for the workload's own evaluation.
  std::vector<int64_t> args;
};

bool IsWrite(const Stmt& stmt);
const char* KindName(Stmt::Kind kind);

/// What the plain evaluation of a statement over the benchmark's own model
/// says the engine must produce.
struct Expectation {
  /// Rows for a SELECT; one row holding the affected-row count for DML.
  Answer answer;
  /// Partitions that hold a row the statement reads (qualifying rows): every
  /// correct plan scans at least these.
  PartSet must;
  /// Set when the statement restricts the partition key by constants only:
  /// the engine must scan exactly these partitions.
  std::optional<PartSet> exact;
  /// Rows stored in the `must` partitions (all referenced tables).
  uint64_t must_rows = 0;
  /// Partitions a write changed.
  PartSet written;
};

/// Executes statements against one Database built for speed: 4 segments, 4
/// workers, parallel vectorized execution. Owns the span log of a traced run.
class Engine {
 public:
  static constexpr int kSegments = 4;
  static constexpr int kWorkers = 4;

  Engine(bool traced, std::string out_dir);
  ~Engine();

  mppdb::Database& db() { return *db_; }

  /// Database::Load, timed (and traced as a span).
  mppdb::Status Load(const std::string& table, const std::vector<mppdb::Row>& rows);
  /// DDL through SQL; fails loudly.
  mppdb::Status Ddl(const std::string& sql);

  struct Outcome {
    mppdb::Result<mppdb::QueryResult> result{mppdb::Status::Internal("not run")};
    /// Wall time of the statement as the client sees it.
    double ms = 0;
    /// CPU time of the whole process (client thread and every worker) over
    /// the same call. The kernel leaves out time the hypervisor stole from
    /// the virtual CPUs, so this is the engine's own cost, which other
    /// tenants of a shared host move far less than they move wall time.
    double cpu_ms = 0;
    /// Traced runs only: time in plan execution (the whole cached-path call
    /// for plan-cache statements), and worker busy time on the benchmark's
    /// scheduler, summed over workers.
    double exec_ms = 0;
    std::vector<uint64_t> busy_ns;
    bool planned = false;
    size_t search_requests = 0;
    size_t plan_nodes = 0;
  };
  Outcome Run(const Stmt& stmt, uint64_t stmt_id);

  /// Total time inside Database::Load and rows loaded through it.
  double load_seconds() const { return load_seconds_; }
  uint64_t load_rows() const { return load_rows_; }

  /// Leaf index of every storage unit of `table` (built after setup).
  void IndexPartitions(const std::vector<std::string>& tables);
  PartSet ToPartSet(const mppdb::ExecStats& stats) const;
  size_t LeafCount(const std::string& table) const;

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  ///< index into spans, -1 for a root
    uint64_t stmt;
  };
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ns) of every span named `name` whose statement id is in
  /// [first_stmt, last_stmt].
  std::vector<int64_t> SpanDurations(const char* name, uint64_t first_stmt,
                                     uint64_t last_stmt) const;
  /// Writes the span log as JSON lines; returns the path or "" on failure.
  std::string WriteSpans(const std::string& tag) const;

 private:
  int64_t NowNs() const;
  int OpenSpan(const char* name, int parent, uint64_t stmt);
  void CloseSpan(int index);
  Outcome RunTraced(const Stmt& stmt, uint64_t stmt_id);

  bool traced_;
  std::string out_dir_;
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<mppdb::Database> db_;
  /// Traced runs hand this scheduler to each executor so that worker busy
  /// time can be read per statement.
  std::unique_ptr<mppdb::MorselScheduler> scheduler_;
  double load_seconds_ = 0;
  uint64_t load_rows_ = 0;
  std::map<mppdb::Oid, std::pair<std::string, int>> unit_index_;
  std::map<std::string, size_t> leaf_counts_;
  std::vector<Span> spans_;
  /// Template class of each traced statement, by statement id.
  std::map<uint64_t, std::string> labels_;
};

/// Resident set size of this process in bytes.
uint64_t ResidentBytes();

/// CPU time consumed so far by every thread of this process, in ms.
double ProcessCpuMs();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
