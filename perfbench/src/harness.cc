#include "harness.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "optimizer/cascades/cascades_optimizer.h"
#include "sql/binder.h"
#include "sql/normalizer.h"
#include "sql/parser.h"

namespace perfbench {

using mppdb::Datum;
using mppdb::Status;
using mppdb::TypeId;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001b3ULL + stream);
  return rng.Next();
}

// Howard Hinnant's days_from_civil / civil_from_days.
int32_t DaysFromCivil(int year, int month, int day) {
  const int y = year - (month <= 2 ? 1 : 0);
  const int era = (y >= 0 ? y : y - 399) / 400;
  const int yoe = y - era * 400;
  const int mp = (month + 9) % 12;
  const int doy = (153 * mp + 2) / 5 + day - 1;
  const int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

void CivilFromDays(int32_t days, int* year, int* month, int* day) {
  const int z = days + 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const int doe = z - era * 146097;
  const int yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int mp = (5 * doy + 2) / 153;
  *day = doy - (153 * mp + 2) / 5 + 1;
  *month = mp < 10 ? mp + 3 : mp - 9;
  *year = yoe + era * 400 + (*month <= 2 ? 1 : 0);
}

std::string DateLiteral(int32_t days) {
  int y = 0, m = 0, d = 0;
  CivilFromDays(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "DATE '%04d-%02d-%02d'", y, m, d);
  return buf;
}

int32_t MonthStart(int first_year, int months) {
  return DaysFromCivil(first_year + months / 12, months % 12 + 1, 1);
}

Answer ToAnswer(const std::vector<mppdb::Row>& rows) {
  Answer out;
  out.reserve(rows.size());
  for (const mppdb::Row& row : rows) {
    AnswerRow cells;
    cells.reserve(row.size());
    for (const Datum& d : row) {
      if (d.is_null()) {
        cells.emplace_back(std::monostate{});
      } else if (d.type() == TypeId::kDouble) {
        cells.emplace_back(d.AsDouble());
      } else if (d.type() == TypeId::kString) {
        cells.emplace_back(d.string_value());
      } else {
        cells.emplace_back(d.AsInt64());
      }
    }
    out.push_back(std::move(cells));
  }
  return out;
}

namespace {

std::string CellText(const Cell& c) {
  if (std::holds_alternative<std::monostate>(c)) return "NULL";
  if (const auto* i = std::get_if<int64_t>(&c)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&c)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
    return buf;
  }
  return "'" + std::get<std::string>(c) + "'";
}

std::string RowText(const AnswerRow& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += CellText(row[i]);
  }
  return out + ")";
}

// Orders rows by their exact cells (doubles last, since they may differ
// within tolerance); every grouped statement groups on exact columns.
bool ExactLess(const AnswerRow& a, const AnswerRow& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (std::holds_alternative<double>(a[i]) || std::holds_alternative<double>(b[i])) {
      continue;
    }
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return a.size() < b.size();
}

bool CellsMatch(const Cell& expected, const Cell& actual) {
  const auto* e = std::get_if<double>(&expected);
  const auto* a = std::get_if<double>(&actual);
  if (e != nullptr && a != nullptr) {
    const double scale = std::max({1.0, std::fabs(*e), std::fabs(*a)});
    return std::fabs(*e - *a) <= kFloatTolerance * scale;
  }
  return expected == actual;
}

}  // namespace

std::string CompareAnswers(Answer expected, Answer actual) {
  if (expected.size() != actual.size()) {
    return "expected " + std::to_string(expected.size()) + " rows, got " +
           std::to_string(actual.size()) +
           (expected.empty() ? "" : "; first expected " + RowText(expected[0])) +
           (actual.empty() ? "" : "; first got " + RowText(actual[0]));
  }
  std::stable_sort(expected.begin(), expected.end(), ExactLess);
  std::stable_sort(actual.begin(), actual.end(), ExactLess);
  for (size_t r = 0; r < expected.size(); ++r) {
    bool same = expected[r].size() == actual[r].size();
    for (size_t c = 0; same && c < expected[r].size(); ++c) {
      same = CellsMatch(expected[r][c], actual[r][c]);
    }
    if (!same) {
      return "row " + std::to_string(r) + ": expected " + RowText(expected[r]) +
             ", got " + RowText(actual[r]);
    }
  }
  return "";
}

bool IsWrite(const Stmt& stmt) { return stmt.kind != Stmt::Kind::kSelect; }

const char* KindName(Stmt::Kind kind) {
  switch (kind) {
    case Stmt::Kind::kSelect:
      return "select";
    case Stmt::Kind::kInsert:
      return "insert";
    case Stmt::Kind::kUpdate:
      return "update";
    case Stmt::Kind::kDelete:
      return "delete";
  }
  return "?";
}

namespace {

// Sets an Executor::Options field only where the field exists, so the
// benchmark keeps compiling, and keeps asking for the same configuration,
// after toggles such as `vectorized` or `morsels` are deleted.
template <typename Options>
Options FastOptions(int workers) {
  Options o{};
  if constexpr (requires { o.parallel; }) o.parallel = true;
  if constexpr (requires { o.vectorized; }) o.vectorized = true;
  if constexpr (requires { o.morsels; }) o.morsels = true;
  if constexpr (requires { o.max_workers; }) o.max_workers = workers;
  return o;
}

size_t CountPlanNodes(const mppdb::PhysPtr& node) {
  size_t n = 1;
  for (const mppdb::PhysPtr& child : node->children()) {
    if (child != nullptr) n += CountPlanNodes(child);
  }
  return n;
}

mppdb::QueryOptions ToQueryOptions(const Stmt& stmt) {
  mppdb::QueryOptions options;
  options.use_plan_cache = stmt.use_plan_cache;
  return options;
}

}  // namespace

Engine::Engine(bool traced, std::string out_dir)
    : traced_(traced),
      out_dir_(std::move(out_dir)),
      epoch_(std::chrono::steady_clock::now()),
      db_(std::make_unique<mppdb::Database>(
          kSegments, FastOptions<mppdb::Executor::Options>(kWorkers))) {
  std::filesystem::create_directories(out_dir_);
  if (traced_) scheduler_ = std::make_unique<mppdb::MorselScheduler>(kWorkers);
}

Engine::~Engine() = default;

int64_t Engine::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Engine::OpenSpan(const char* name, int parent, uint64_t stmt) {
  spans_.push_back({name, NowNs(), 0, parent, stmt});
  return static_cast<int>(spans_.size()) - 1;
}

void Engine::CloseSpan(int index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }

Status Engine::Load(const std::string& table, const std::vector<mppdb::Row>& rows) {
  const int span = traced_ ? OpenSpan("db.load", -1, 0) : -1;
  const auto start = std::chrono::steady_clock::now();
  Status status = db_->Load(table, rows);
  load_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (span >= 0) CloseSpan(span);
  if (status.ok()) load_rows_ += rows.size();
  return status;
}

Status Engine::Ddl(const std::string& sql) { return db_->Execute(sql).status(); }

Engine::Outcome Engine::Run(const Stmt& stmt, uint64_t stmt_id) {
  if (traced_) return RunTraced(stmt, stmt_id);
  Outcome out;
  const mppdb::QueryOptions options = ToQueryOptions(stmt);
  const double cpu_start = ProcessCpuMs();
  const auto start = std::chrono::steady_clock::now();
  out.result = db_->Execute(stmt.sql, options);
  out.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start)
               .count();
  out.cpu_ms = ProcessCpuMs() - cpu_start;
  return out;
}

// The same work as Database::Execute, one layer call at a time: the plan-cache
// path when the statement asks for it, otherwise parse, bind, Cascades
// search and execution on an executor wired to the benchmark's scheduler.
// The single client means no statement runs beside another, so the direct
// catalog and storage access needs no lock.
Engine::Outcome Engine::RunTraced(const Stmt& stmt, uint64_t stmt_id) {
  Outcome out;
  const mppdb::QueryOptions options = ToQueryOptions(stmt);
  const double cpu_start = ProcessCpuMs();
  const int root = OpenSpan("statement", -1, stmt_id);
  labels_[stmt_id] = stmt.cls;
  auto finish = [&] {
    CloseSpan(root);
    out.cpu_ms = ProcessCpuMs() - cpu_start;
    const Span& s = spans_[static_cast<size_t>(root)];
    out.ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    return std::move(out);
  };

  // Every statement is normalized: its template text labels the spans, and
  // for plan-cache statements it is the first call Database::Execute makes.
  int span = OpenSpan("sql.normalize", root, stmt_id);
  mppdb::Result<mppdb::NormalizedSql> normalized = mppdb::NormalizeSql(stmt.sql);
  CloseSpan(span);
  if (stmt.use_plan_cache && normalized.ok() && normalized->cacheable) {
    span = OpenSpan("db.execute_cached", root, stmt_id);
    out.result = db_->Execute(stmt.sql, options);
    CloseSpan(span);
    const Span& s = spans_[static_cast<size_t>(span)];
    out.exec_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    return finish();
  }

  span = OpenSpan("sql.parse", root, stmt_id);
  mppdb::Result<mppdb::sql_ast::Statement> parsed = mppdb::ParseStatement(stmt.sql);
  CloseSpan(span);
  if (!parsed.ok()) {
    out.result = parsed.status();
    return finish();
  }
  span = OpenSpan("sql.bind", root, stmt_id);
  mppdb::Binder binder(&db_->catalog());
  mppdb::Result<mppdb::BoundStatement> bound = binder.Bind(*parsed);
  CloseSpan(span);
  if (!bound.ok()) {
    out.result = bound.status();
    return finish();
  }
  span = OpenSpan("optimizer.plan", root, stmt_id);
  mppdb::CascadesOptimizer optimizer(&db_->catalog(), &db_->storage());
  mppdb::Result<mppdb::PhysPtr> plan = optimizer.Plan(*bound);
  CloseSpan(span);
  if (!plan.ok()) {
    out.result = plan.status();
    return finish();
  }
  out.planned = true;
  out.search_requests = optimizer.last_request_count();
  out.plan_nodes = CountPlanNodes(*plan);

  span = OpenSpan("exec.execute", root, stmt_id);
  mppdb::Executor executor(&db_->catalog(), &db_->storage(), db_->exec_options());
  executor.SetScheduler(scheduler_.get());
  const std::vector<uint64_t> busy_before = scheduler_->BusyNanos();
  mppdb::Result<std::vector<mppdb::Row>> rows = executor.Execute(*plan);
  const std::vector<uint64_t> busy_after = scheduler_->BusyNanos();
  CloseSpan(span);
  const Span& s = spans_[static_cast<size_t>(span)];
  out.exec_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  for (size_t w = 0; w < busy_after.size(); ++w) {
    out.busy_ns.push_back(busy_after[w] - busy_before[w]);
  }
  if (!rows.ok()) {
    out.result = rows.status();
    return finish();
  }
  mppdb::QueryResult result;
  result.rows = std::move(rows).value();
  result.columns = bound->output_names;
  result.plan = *plan;
  result.stats = executor.stats();
  out.result = std::move(result);
  return finish();
}

void Engine::IndexPartitions(const std::vector<std::string>& tables) {
  for (const std::string& name : tables) {
    const mppdb::TableDescriptor* desc = db_->catalog().FindTable(name);
    if (desc == nullptr) continue;
    if (desc->IsPartitioned()) {
      const auto& leaves = desc->partition_scheme->Leaves();
      for (size_t i = 0; i < leaves.size(); ++i) {
        unit_index_[leaves[i].oid] = {name, static_cast<int>(i)};
      }
      leaf_counts_[name] = leaves.size();
    } else {
      unit_index_[desc->oid] = {name, 0};
      leaf_counts_[name] = 1;
    }
  }
}

PartSet Engine::ToPartSet(const mppdb::ExecStats& stats) const {
  PartSet out;
  for (const auto& [table, units] : stats.partitions_scanned) {
    for (mppdb::Oid unit : units) {
      auto it = unit_index_.find(unit);
      if (it != unit_index_.end()) out[it->second.first].insert(it->second.second);
    }
  }
  return out;
}

size_t Engine::LeafCount(const std::string& table) const {
  auto it = leaf_counts_.find(table);
  return it == leaf_counts_.end() ? 0 : it->second;
}

std::vector<int64_t> Engine::SpanDurations(const char* name, uint64_t first_stmt,
                                           uint64_t last_stmt) const {
  std::vector<int64_t> out;
  const std::string wanted = name;
  for (const Span& s : spans_) {
    if (s.stmt >= first_stmt && s.stmt <= last_stmt && wanted == s.name) {
      out.push_back(s.end_ns - s.start_ns);
    }
  }
  return out;
}

std::string Engine::WriteSpans(const std::string& tag) const {
  const std::string path = out_dir_ + "/spans-" + tag + ".jsonl";
  std::ofstream file(path);
  if (!file) return "";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    file << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
         << ",\"stmt\":" << s.stmt;
    auto label = labels_.find(s.stmt);
    if (s.parent < 0 && label != labels_.end()) file << ",\"cls\":\"" << label->second << "\"";
    file << "}\n";
  }
  return file ? path : "";
}

uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace perfbench
