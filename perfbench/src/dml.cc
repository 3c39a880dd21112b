// dml_mix: writes beside reads on the same storage and executor. Every
// statement goes through the plan cache, as a serving client would send it,
// so reads pay the lazy synopsis, index and column-image rebuilds that the
// writes before them leave behind.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>

#include "workload.h"

namespace perfbench {
namespace {

using mppdb::Datum;
using mppdb::TypeId;

constexpr int kFirstYear = 2010;
constexpr int kMonths = 24;
/// The older half of the months is column-oriented.
constexpr int kColumnMonths = 12;
constexpr size_t kEvents = 300000;
constexpr int kAccounts = 20000;
constexpr int kTiers = 8;
/// Status of rows inserted by a round; the round's range delete removes
/// them again, so the table keeps its size.
constexpr int64_t kPendingStatus = 9;
constexpr int kInsertRows = 16;

struct Event {
  int64_t id, account;
  int32_t day;
  int64_t amount, status;
};
struct Account {
  int64_t id, tier, bonus;
};

int MonthOf(int32_t day) {
  int y = 0, m = 0, d = 0;
  CivilFromDays(day, &y, &m, &d);
  return (y - kFirstYear) * 12 + (m - 1);
}

std::string PartitionName(int month) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "m%02d", month);
  return buf;
}

class DmlMix : public Workload {
 public:
  DmlMix(uint64_t seed, double scale)
      : seed_(seed),
        rows_(std::max<size_t>(1000, static_cast<size_t>(static_cast<double>(kEvents) * scale))) {}

  void Generate() override {
    Rng rng(StreamSeed(seed_, 3));
    first_day_ = MonthStart(kFirstYear, 0);
    end_day_ = MonthStart(kFirstYear, kMonths);
    for (int64_t a = 1; a <= kAccounts; ++a) {
      accounts_.push_back({a, rng.Range(1, kTiers), rng.Range(1, 50)});
    }
    month_rows_.assign(kMonths, 0);
    for (size_t i = 0; i < rows_; ++i) {
      Event e{static_cast<int64_t>(i) + 1, rng.Range(1, kAccounts), RandomDay(&rng),
              rng.Range(1, 10000), rng.Range(0, 4)};
      ++month_rows_[MonthOf(e.day)];
      events_.push_back(e);
    }
    next_id_ = static_cast<int64_t>(rows_) + 1;
  }

  mppdb::Status Setup(Engine* engine) override {
    std::vector<mppdb::PartitionBound> bounds;
    for (int m = 0; m < kMonths; ++m) {
      bounds.push_back(mppdb::PartitionBound::Range(Datum::Date(MonthStart(kFirstYear, m)),
                                                    Datum::Date(MonthStart(kFirstYear, m + 1)),
                                                    PartitionName(m)));
    }
    mppdb::Database& db = engine->db();
    mppdb::Status st =
        db.CreatePartitionedTable("events",
                                  mppdb::Schema({{"e_id", TypeId::kInt64},
                                                 {"e_account", TypeId::kInt64},
                                                 {"e_day", TypeId::kDate},
                                                 {"e_amount", TypeId::kInt64},
                                                 {"e_status", TypeId::kInt64}}),
                                  mppdb::TableDistribution::kHashed, {0},
                                  {{2, mppdb::PartitionMethod::kRange}}, {bounds})
            .status();
    if (!st.ok()) return st;
    st = db.CreateTable("accounts",
                        mppdb::Schema({{"a_id", TypeId::kInt64},
                                       {"a_tier", TypeId::kInt64},
                                       {"a_bonus", TypeId::kInt64}}),
                        mppdb::TableDistribution::kHashed, {0})
             .status();
    if (!st.ok()) return st;
    for (int m = 0; m < kColumnMonths && st.ok(); ++m) {
      st = engine->Ddl("ALTER TABLE events SET PARTITION " + PartitionName(m) +
                       " WITH (orientation = column)");
    }
    std::vector<mppdb::Row> batch;
    for (size_t i = 0; i < events_.size() && st.ok(); ++i) {
      const Event& e = events_[i];
      batch.push_back({Datum::Int64(e.id), Datum::Int64(e.account), Datum::Date(e.day),
                       Datum::Int64(e.amount), Datum::Int64(e.status)});
      if (batch.size() == kLoadBatchRows || i + 1 == events_.size()) {
        st = engine->Load("events", batch);
        batch.clear();
      }
    }
    for (const Account& a : accounts_) {
      batch.push_back({Datum::Int64(a.id), Datum::Int64(a.tier), Datum::Int64(a.bonus)});
    }
    if (st.ok()) st = engine->Load("accounts", batch);
    if (st.ok()) st = engine->Ddl("CREATE INDEX ON events (e_account)");
    // Indexes build lazily at first use; one uncached seek builds them for
    // every partition here, as part of set-up.
    if (st.ok()) st = db.Execute("SELECT count(*) FROM events WHERE e_account = 1").status();
    return st;
  }

  std::vector<std::string> Tables() const override { return {"events", "accounts"}; }
  uint64_t RowsLoaded() const override { return rows_ + accounts_.size(); }

  std::vector<Stmt> Round(uint64_t round) override {
    Rng rng(StreamSeed(seed_, 3000 + round));
    std::vector<Stmt> out;
    auto add = [&](Stmt::Kind kind, const char* cls, std::string sql,
                   std::vector<int64_t> args) {
      Stmt s;
      s.kind = kind;
      s.cls = cls;
      s.sql = std::move(sql);
      s.tables = {"events"};
      s.args = std::move(args);
      s.use_plan_cache = true;
      out.push_back(std::move(s));
    };
    auto str = [](int64_t v) { return std::to_string(v); };
    auto any_id = [&] { return rng.Range(1, static_cast<int64_t>(rows_)); };
    auto point_account = [&] {
      const int64_t account = rng.Range(1, kAccounts);
      add(Stmt::Kind::kSelect, "point_account",
          "SELECT e_id, e_amount, e_status FROM events WHERE e_account = " + str(account),
          {account});
    };
    auto point_id = [&] {
      const int64_t id = any_id();
      add(Stmt::Kind::kSelect, "point_id",
          "SELECT e_account, e_amount, e_status FROM events WHERE e_id = " + str(id), {id});
    };
    auto range_sum = [&] {
      const int32_t lo = RandomDay(&rng);
      const int32_t hi = lo + static_cast<int32_t>(rng.Range(7, 60));
      add(Stmt::Kind::kSelect, "range_sum",
          "SELECT count(*), sum(e_amount) FROM events WHERE e_day >= " + DateLiteral(lo) +
              " AND e_day < " + DateLiteral(hi),
          {lo, hi});
    };
    // This round's inserts land in [pending, pending + 2) and are deleted
    // by the last statement of the round.
    const int32_t pending = first_day_ + static_cast<int32_t>(rng.Uniform(end_day_ - first_day_ - 2));
    {
      // The inserted rows travel in Stmt::args, five integers per row, so
      // the model applies exactly what the SQL sent.
      std::string values;
      std::vector<int64_t> args;
      for (int j = 0; j < kInsertRows; ++j) {
        const std::vector<int64_t> row = {next_id_ + j, rng.Range(1, kAccounts),
                                          pending + static_cast<int64_t>(rng.Uniform(2)),
                                          rng.Range(1, 10000), kPendingStatus};
        values += (j > 0 ? ", (" : "(") + str(row[0]) + ", " + str(row[1]) + ", " +
                  DateLiteral(static_cast<int32_t>(row[2])) + ", " + str(row[3]) + ", " +
                  str(row[4]) + ")";
        args.insert(args.end(), row.begin(), row.end());
      }
      add(Stmt::Kind::kInsert, "insert", "INSERT INTO events VALUES " + values, std::move(args));
    }
    // Seven reads: three pruned date ranges, two point reads by the
    // distribution key and two by the indexed account column, so the median
    // read falls among the point-by-id reads. Six writes: the median falls
    // among the three that are pruned to one or two days.
    point_account();
    range_sum();
    {
      const int64_t id = any_id(), delta = rng.Range(1, 100);
      add(Stmt::Kind::kUpdate, "update_key",
          "UPDATE events SET e_amount = e_amount + " + str(delta) + " WHERE e_id = " + str(id),
          {id, delta});
    }
    point_id();
    {
      const int32_t lo = RandomDay(&rng);
      const int32_t hi = lo + static_cast<int32_t>(rng.Range(7, 60));
      add(Stmt::Kind::kSelect, "range_group",
          "SELECT e_status, count(*), sum(e_amount) FROM events WHERE e_day >= " +
              DateLiteral(lo) + " AND e_day < " + DateLiteral(hi) + " GROUP BY e_status",
          {lo, hi});
    }
    {
      const int32_t day = RandomDay(&rng);
      const int64_t status = rng.Range(0, 4);
      add(Stmt::Kind::kUpdate, "update_range",
          "UPDATE events SET e_status = " + str(status) + " WHERE e_day = " + DateLiteral(day) +
              " AND e_status < 5",
          {day, status});
    }
    point_account();
    {
      const int32_t day = RandomDay(&rng);
      const int64_t tier = rng.Range(1, kTiers);
      add(Stmt::Kind::kUpdate, "update_from",
          "UPDATE events SET e_amount = e_amount + accounts.a_bonus FROM accounts "
          "WHERE events.e_account = accounts.a_id AND accounts.a_tier = " + str(tier) +
              " AND events.e_day = " + DateLiteral(day),
          {day, tier});
    }
    range_sum();
    point_id();
    {
      const int64_t id = any_id();
      add(Stmt::Kind::kDelete, "delete_key", "DELETE FROM events WHERE e_id = " + str(id),
          {id});
    }
    add(Stmt::Kind::kDelete, "delete_range",
        "DELETE FROM events WHERE e_day >= " + DateLiteral(pending) + " AND e_day < " +
            DateLiteral(pending + 2) + " AND e_status = " + str(kPendingStatus),
        {pending});
    next_id_ += kInsertRows;
    return out;
  }

  Expectation Apply(const Stmt& stmt) override {
    Expectation e;
    const std::vector<int64_t>& a = stmt.args;
    const std::string& cls = stmt.cls;
    if (cls == "insert") {
      for (size_t i = 0; i + 5 <= a.size(); i += 5) {
        const Event ev{a[i], a[i + 1], static_cast<int32_t>(a[i + 2]), a[i + 3], a[i + 4]};
        ++month_rows_[MonthOf(ev.day)];
        e.written["events"].insert(MonthOf(ev.day));
        events_.push_back(ev);
      }
      inserted_ += a.size() / 5;
      e.answer = {{Cell(static_cast<int64_t>(a.size() / 5))}};
      e.exact = PartSet{};
      return e;
    }
    std::function<bool(const Event&)> match;
    std::optional<std::pair<int32_t, int32_t>> key_range;  // static e_day range
    if (cls == "point_account") {
      match = [&](const Event& ev) { return ev.account == a[0]; };
    } else if (cls == "point_id" || cls == "update_key" || cls == "delete_key") {
      match = [&](const Event& ev) { return ev.id == a[0]; };
    } else if (cls == "range_sum" || cls == "range_group") {
      match = [&](const Event& ev) { return ev.day >= a[0] && ev.day < a[1]; };
      key_range = {static_cast<int32_t>(a[0]), static_cast<int32_t>(a[1])};
    } else if (cls == "update_range") {
      match = [&](const Event& ev) { return ev.day == a[0] && ev.status < 5; };
      key_range = {static_cast<int32_t>(a[0]), static_cast<int32_t>(a[0]) + 1};
    } else if (cls == "update_from") {
      match = [&](const Event& ev) {
        return ev.day == a[0] && accounts_[ev.account - 1].tier == a[1];
      };
      key_range = {static_cast<int32_t>(a[0]), static_cast<int32_t>(a[0]) + 1};
    } else if (cls == "delete_range") {
      match = [&](const Event& ev) {
        return ev.day >= a[0] && ev.day < a[0] + 2 && ev.status == kPendingStatus;
      };
      key_range = {static_cast<int32_t>(a[0]), static_cast<int32_t>(a[0]) + 2};
    }

    std::set<int>& must = e.must["events"];
    int64_t n = 0, amount = 0;
    std::map<int64_t, std::pair<int64_t, int64_t>> by_status;
    for (Event& ev : events_) {
      if (!match(ev)) continue;
      must.insert(MonthOf(ev.day));
      ++n;
      amount += ev.amount;
      if (cls == "point_account") {
        e.answer.push_back({Cell(ev.id), Cell(ev.amount), Cell(ev.status)});
      } else if (cls == "point_id") {
        e.answer.push_back({Cell(ev.account), Cell(ev.amount), Cell(ev.status)});
      } else if (cls == "range_group") {
        ++by_status[ev.status].first;
        by_status[ev.status].second += ev.amount;
      } else if (cls == "update_key") {
        ev.amount += a[1];
      } else if (cls == "update_range") {
        ev.status = a[1];
      } else if (cls == "update_from") {
        ev.amount += accounts_[ev.account - 1].bonus;
      }
    }
    for (int m : must) e.must_rows += month_rows_[m];
    if (cls == "range_sum") {
      e.answer = {{Cell(n), SumCell(n, amount)}};
    } else if (cls == "range_group") {
      for (const auto& [status, g] : by_status) {
        e.answer.push_back({Cell(status), Cell(g.first), Cell(g.second)});
      }
    } else if (IsWrite(stmt)) {
      e.answer = {{Cell(n)}};
      e.written = e.must;
    }
    if (stmt.kind == Stmt::Kind::kDelete) {
      std::erase_if(events_, [&](const Event& ev) {
        if (!match(ev)) return false;
        --month_rows_[MonthOf(ev.day)];
        ++deleted_;
        return true;
      });
    }
    if (key_range) {
      std::set<int> exact;
      for (int m = 0; m < kMonths; ++m) {
        if (MonthStart(kFirstYear, m + 1) > key_range->first &&
            MonthStart(kFirstYear, m) < key_range->second) {
          exact.insert(m);
        }
      }
      e.exact = PartSet{{"events", exact}};
    }
    return e;
  }

  std::vector<std::string> FinalChecks(Engine* engine) override {
    std::vector<std::string> errors;
    const int64_t expected = static_cast<int64_t>(rows_ + inserted_ - deleted_);
    if (expected != static_cast<int64_t>(events_.size())) {
      errors.push_back("model size differs from loaded + inserted - deleted");
    }
    mppdb::Result<mppdb::QueryResult> r = engine->db().Execute("SELECT count(*) FROM events");
    if (!r.ok()) {
      errors.push_back("final count: " + r.status().ToString());
    } else if (std::string diff = CompareAnswers({{Cell(expected)}}, ToAnswer(r->rows));
               !diff.empty()) {
      errors.push_back("final count(*) = loaded + inserted - deleted: " + diff);
    }
    return errors;
  }

 private:
  int32_t RandomDay(Rng* rng) const {
    return first_day_ + static_cast<int32_t>(rng->Uniform(end_day_ - first_day_));
  }

  uint64_t seed_;
  size_t rows_;
  int32_t first_day_ = 0;
  int32_t end_day_ = 0;
  int64_t next_id_ = 0;
  size_t inserted_ = 0;
  size_t deleted_ = 0;
  std::vector<Event> events_;
  std::vector<Account> accounts_;
  std::vector<uint64_t> month_rows_;
};

}  // namespace

std::unique_ptr<Workload> MakeDmlMix(uint64_t seed, double scale) {
  return std::make_unique<DmlMix>(seed, scale);
}

}  // namespace perfbench
