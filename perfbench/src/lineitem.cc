// lineitem_scan: scans of a large partitioned fact table. Per-row work in
// the executor, the storage scan and the scheduler dominates; planning is a
// tiny share of each statement.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "workload.h"

namespace perfbench {
namespace {

using mppdb::Datum;

constexpr int kFirstYear = 1992;
constexpr int kMonths = 84;
/// The oldest months are column-oriented; the recent ones, which take the
/// trickle of new rows, stay row-oriented.
constexpr int kColumnMonths = 60;
constexpr size_t kRows = 1000000;
constexpr int kSuppliers = 1000;
/// Each round appends two batches of rows to the newest month, then updates
/// and deletes them again, so the table keeps its size.
constexpr int kIngestRows = 10;
constexpr int64_t kIngestKeyBase = 1000000000;

struct Line {
  int64_t orderkey;
  int64_t suppkey;
  int32_t shipdate;
  int64_t quantity;
  double price;
  double discount;
};

int MonthOf(int32_t day) {
  int y = 0, m = 0, d = 0;
  CivilFromDays(day, &y, &m, &d);
  return (y - kFirstYear) * 12 + (m - 1);
}

std::string PartitionName(int month) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "m%04d_%02d", kFirstYear + month / 12, month % 12 + 1);
  return buf;
}

std::string Cents(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld", static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

Answer Int(int64_t v) { return {{Cell(v)}}; }

/// The predicate of a generated statement; it travels in Stmt::args.
struct Pred {
  int64_t ship_lo = INT32_MIN;  // l_shipdate in [ship_lo, ship_hi)
  int64_t ship_hi = INT32_MAX;
  int64_t max_quantity = 0;        // l_quantity < x
  int64_t min_discount_x1000 = 0;  // l_discount > x / 1000
  int64_t key_lo = 0;              // l_orderkey in [key_lo, key_hi)
  int64_t key_hi = 0;
  int64_t having = 0;  // HAVING sum(l_quantity) > x

  std::vector<int64_t> Args() const {
    return {ship_lo, ship_hi, max_quantity, min_discount_x1000, key_lo, key_hi, having};
  }
  static Pred FromArgs(const std::vector<int64_t>& a) {
    return {a[0], a[1], a[2], a[3], a[4], a[5], a[6]};
  }
  bool Matches(const Line& l) const {
    if (l.shipdate < ship_lo || l.shipdate >= ship_hi) return false;
    if (max_quantity > 0 && l.quantity >= max_quantity) return false;
    if (min_discount_x1000 > 0 && l.discount * 1000 <= min_discount_x1000) return false;
    if (key_hi > 0 && (l.orderkey < key_lo || l.orderkey >= key_hi)) return false;
    return true;
  }
};

class LineitemScan : public Workload {
 public:
  LineitemScan(uint64_t seed, double scale)
      : seed_(seed), rows_(static_cast<size_t>(static_cast<double>(kRows) * scale)) {}

  void Generate() override {
    Rng rng(StreamSeed(seed_, 1));
    // Rows per month grow linearly: the newest month holds ~4x the oldest.
    std::vector<size_t> per_month(kMonths);
    double weight_sum = 0;
    for (int m = 0; m < kMonths; ++m) weight_sum += m + 28;
    size_t assigned = 0;
    for (int m = 0; m < kMonths; ++m) {
      per_month[m] = static_cast<size_t>(static_cast<double>(rows_) * (m + 28) / weight_sum);
      assigned += per_month[m];
    }
    per_month[kMonths - 1] += rows_ - assigned;
    lines_.reserve(rows_);
    for (int m = 0; m < kMonths; ++m) {
      const int32_t lo = MonthStart(kFirstYear, m);
      const int32_t hi = MonthStart(kFirstYear, m + 1);
      for (size_t i = 0; i < per_month[m]; ++i) {
        // About four lines per order, shipped in unrelated months, so a
        // GROUP BY l_orderkey over a few months has nearly one group per row.
        const int64_t orderkey = rng.Range(1, static_cast<int64_t>(rows_ / 4) + 1);
        lines_.push_back(
            RandomLine(&rng, orderkey, lo + static_cast<int32_t>(rng.Uniform(hi - lo))));
      }
    }
    month_rows_.assign(kMonths, 0);
    for (const Line& l : lines_) ++month_rows_[MonthOf(l.shipdate)];
  }

  mppdb::Status Setup(Engine* engine) override {
    mppdb::Schema schema({{"l_orderkey", mppdb::TypeId::kInt64},
                          {"l_suppkey", mppdb::TypeId::kInt64},
                          {"l_shipdate", mppdb::TypeId::kDate},
                          {"l_quantity", mppdb::TypeId::kInt64},
                          {"l_extendedprice", mppdb::TypeId::kDouble},
                          {"l_discount", mppdb::TypeId::kDouble}});
    std::vector<mppdb::PartitionBound> bounds;
    for (int m = 0; m < kMonths; ++m) {
      bounds.push_back(mppdb::PartitionBound::Range(
          Datum::Date(MonthStart(kFirstYear, m)), Datum::Date(MonthStart(kFirstYear, m + 1)),
          PartitionName(m)));
    }
    mppdb::Result<mppdb::Oid> created = engine->db().CreatePartitionedTable(
        "lineitem", schema, mppdb::TableDistribution::kHashed, {0},
        {{2, mppdb::PartitionMethod::kRange}}, {bounds});
    if (!created.ok()) return created.status();
    for (int m = 0; m < kColumnMonths; ++m) {
      mppdb::Status st = engine->Ddl("ALTER TABLE lineitem SET PARTITION " +
                                     PartitionName(m) + " WITH (orientation = column)");
      if (!st.ok()) return st;
    }
    std::vector<mppdb::Row> batch;
    batch.reserve(kLoadBatchRows);
    for (size_t i = 0; i < lines_.size(); ++i) {
      batch.push_back(ToRow(lines_[i]));
      if (batch.size() == kLoadBatchRows || i + 1 == lines_.size()) {
        mppdb::Status st = engine->Load("lineitem", batch);
        if (!st.ok()) return st;
        batch.clear();
      }
    }
    return mppdb::Status::OK();
  }

  std::vector<std::string> Tables() const override { return {"lineitem"}; }
  uint64_t RowsLoaded() const override { return rows_; }

  std::vector<Stmt> Round(uint64_t round) override {
    Rng rng(StreamSeed(seed_, 1000 + round));
    const std::string newest = DateLiteral(MonthStart(kFirstYear, kMonths - 1));
    std::vector<Stmt> out;
    auto add = [&](Stmt::Kind kind, const char* cls, std::string sql, Pred pred = {}) {
      Stmt s;
      s.kind = kind;
      s.cls = cls;
      s.sql = std::move(sql);
      s.tables = {"lineitem"};
      s.args = pred.Args();
      out.push_back(std::move(s));
    };
    auto range_revenue = [&] {
      const int32_t first = MonthStart(kFirstYear, 0);
      const int32_t last = MonthStart(kFirstYear, kMonths);
      const int32_t lo = first + static_cast<int32_t>(rng.Uniform(last - first - 100));
      const int32_t hi = lo + static_cast<int32_t>(rng.Range(20, 92));
      add(Stmt::Kind::kSelect, "range_revenue",
          "SELECT count(*), sum(l_extendedprice * (1 - l_discount)) FROM lineitem "
          "WHERE l_shipdate >= " + DateLiteral(lo) + " AND l_shipdate < " + DateLiteral(hi),
          {.ship_lo = lo, .ship_hi = hi});
    };
    auto quantity_filter = [&] {
      const int64_t q = rng.Range(8, 14);
      add(Stmt::Kind::kSelect, "filtered_sum",
          "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity < " +
              std::to_string(q),
          {.max_quantity = q});
    };
    // Batch b of this round holds orderkeys [KeyLo(b), KeyLo(b) + kIngestRows).
    auto key_lo = [&](int batch) {
      return kIngestKeyBase + (static_cast<int64_t>(round) * 2 + batch) * kIngestRows;
    };
    auto keys = [&](int batch) {
      return " AND l_orderkey >= " + std::to_string(key_lo(batch)) + " AND l_orderkey < " +
             std::to_string(key_lo(batch) + kIngestRows);
    };
    auto ingested = [&](int batch) {
      return Pred{.ship_lo = MonthStart(kFirstYear, kMonths - 1),
                  .key_lo = key_lo(batch),
                  .key_hi = key_lo(batch) + kIngestRows};
    };
    // The inserted rows travel in Stmt::args, six integers per row, so the
    // model applies exactly what the SQL sent.
    auto ingest = [&](int batch) {
      std::string values;
      std::vector<int64_t> args;
      for (int j = 0; j < kIngestRows; ++j) {
        const Line l = RandomLine(&rng, key_lo(batch) + j,
                                  MonthStart(kFirstYear, kMonths - 1) +
                                      static_cast<int32_t>(rng.Uniform(31)));
        const int64_t price_cents = std::llround(l.price * 100);
        const int64_t discount_pct = std::llround(l.discount * 100);
        values += (j > 0 ? ", (" : "(") + std::to_string(l.orderkey) + ", " +
                  std::to_string(l.suppkey) + ", " + DateLiteral(l.shipdate) + ", " +
                  std::to_string(l.quantity) + ", " + Cents(price_cents) + ", " +
                  Cents(discount_pct) + ")";
        args.insert(args.end(), {l.orderkey, l.suppkey, l.shipdate, l.quantity, price_cents,
                                 discount_pct});
      }
      add(Stmt::Kind::kInsert, "ingest_insert", "INSERT INTO lineitem VALUES " + values);
      out.back().args = std::move(args);
    };

    // Ten reads: three cheap pruned ranges, four mid-cost scans (filtered
    // sums and the high-cardinality GROUP BY) and three full-table
    // aggregates.
    ingest(0);
    add(Stmt::Kind::kSelect, "full_agg",
        "SELECT count(*), sum(l_quantity), sum(l_extendedprice) FROM lineitem");
    range_revenue();
    quantity_filter();
    ingest(1);
    range_revenue();
    add(Stmt::Kind::kSelect, "group_1000",
        "SELECT l_suppkey, count(*), sum(l_quantity) FROM lineitem GROUP BY l_suppkey");
    {
      // l_discount > 0.0d5, a literal halfway between two stored discounts.
      const int64_t d = rng.Range(4, 6);
      add(Stmt::Kind::kSelect, "filtered_sum",
          "SELECT count(*), sum(l_quantity) FROM lineitem WHERE l_discount > 0.0" +
              std::to_string(d) + "5",
          {.min_discount_x1000 = d * 10 + 5});
    }
    add(Stmt::Kind::kUpdate, "ingest_update",
        "UPDATE lineitem SET l_discount = 0.04 WHERE l_shipdate >= " + newest + keys(0),
        ingested(0));
    {
      const int month = static_cast<int>(rng.Range(kMonths - 36, kMonths - 6));
      const Pred pred{.ship_lo = MonthStart(kFirstYear, month),
                      .ship_hi = MonthStart(kFirstYear, month + 6),
                      .having = rng.Range(98, 102)};
      add(Stmt::Kind::kSelect, "high_card_group",
          "SELECT l_orderkey, sum(l_quantity) FROM lineitem WHERE l_shipdate >= " +
              DateLiteral(static_cast<int32_t>(pred.ship_lo)) + " AND l_shipdate < " +
              DateLiteral(static_cast<int32_t>(pred.ship_hi)) +
              " GROUP BY l_orderkey HAVING sum(l_quantity) > " + std::to_string(pred.having),
          pred);
    }
    range_revenue();
    add(Stmt::Kind::kUpdate, "ingest_update",
        "UPDATE lineitem SET l_discount = 0.04 WHERE l_shipdate >= " + newest + keys(1),
        ingested(1));
    add(Stmt::Kind::kSelect, "full_agg_minmax",
        "SELECT count(*), min(l_shipdate), max(l_shipdate), sum(l_quantity) FROM lineitem");
    quantity_filter();
    add(Stmt::Kind::kDelete, "ingest_delete",
        "DELETE FROM lineitem WHERE l_shipdate >= " + newest + keys(0), ingested(0));
    add(Stmt::Kind::kDelete, "ingest_delete",
        "DELETE FROM lineitem WHERE l_shipdate >= " + newest + keys(1), ingested(1));
    return out;
  }

  Expectation Apply(const Stmt& stmt) override {
    Expectation e;
    if (stmt.cls == "ingest_insert") return ApplyInsert(stmt);
    const Pred pred = Pred::FromArgs(stmt.args);
    std::vector<bool> touched(kMonths, false);
    auto visit = [&](auto&& fn) {
      for (size_t i = 0; i < lines_.size(); ++i) {
        const Line& l = lines_[i];
        if (!pred.Matches(l)) continue;
        touched[MonthOf(l.shipdate)] = true;
        fn(i, l);
      }
    };
    if (stmt.cls == "full_agg") {
      int64_t n = 0, qty = 0;
      long double price = 0;
      visit([&](size_t, const Line& l) { ++n, qty += l.quantity, price += l.price; });
      e.answer = {{Cell(n), SumCell(n, qty), SumCell(n, price)}};
    } else if (stmt.cls == "full_agg_minmax") {
      int64_t n = 0, qty = 0;
      int32_t lo = INT32_MAX, hi = INT32_MIN;
      visit([&](size_t, const Line& l) {
        ++n, qty += l.quantity, lo = std::min(lo, l.shipdate), hi = std::max(hi, l.shipdate);
      });
      e.answer = {{Cell(n), n == 0 ? Cell() : Cell(int64_t{lo}), n == 0 ? Cell() : Cell(int64_t{hi}),
                    SumCell(n, qty)}};
    } else if (stmt.cls == "range_revenue") {
      int64_t n = 0;
      long double revenue = 0;
      visit([&](size_t, const Line& l) { ++n, revenue += l.price * (1 - l.discount); });
      e.answer = {{Cell(n), SumCell(n, revenue)}};
    } else if (stmt.cls == "filtered_sum" && pred.max_quantity > 0) {
      int64_t n = 0;
      long double price = 0;
      visit([&](size_t, const Line& l) { ++n, price += l.price; });
      e.answer = {{Cell(n), SumCell(n, price)}};
    } else if (stmt.cls == "filtered_sum") {
      int64_t n = 0, qty = 0;
      visit([&](size_t, const Line& l) { ++n, qty += l.quantity; });
      e.answer = {{Cell(n), SumCell(n, qty)}};
    } else if (stmt.cls == "group_1000") {
      std::vector<std::pair<int64_t, int64_t>> groups(kSuppliers + 1, {0, 0});
      visit([&](size_t, const Line& l) {
        ++groups[l.suppkey].first;
        groups[l.suppkey].second += l.quantity;
      });
      for (int s = 1; s <= kSuppliers; ++s) {
        if (groups[s].first > 0) {
          e.answer.push_back({Cell(int64_t{s}), Cell(groups[s].first), Cell(groups[s].second)});
        }
      }
    } else if (stmt.cls == "high_card_group") {
      std::map<int64_t, int64_t> sums;
      visit([&](size_t, const Line& l) { sums[l.orderkey] += l.quantity; });
      for (const auto& [key, qty] : sums) {
        if (qty > pred.having) e.answer.push_back({Cell(key), Cell(qty)});
      }
    } else if (stmt.cls == "ingest_update") {
      int64_t n = 0;
      visit([&](size_t i, const Line&) { ++n, lines_[i].discount = 0.04; });
      e.answer = Int(n);
    } else if (stmt.cls == "ingest_delete") {
      int64_t n = 0;
      visit([&](size_t, const Line&) { ++n; });
      e.answer = Int(n);
    }
    std::set<int>& must = e.must["lineitem"];
    for (int m = 0; m < kMonths; ++m) {
      if (touched[m]) {
        must.insert(m);
        e.must_rows += month_rows_[m];
      }
    }
    if (IsWrite(stmt)) e.written["lineitem"] = must;
    if (stmt.cls == "ingest_delete") {
      auto doomed = std::stable_partition(lines_.begin(), lines_.end(),
                                          [&](const Line& l) { return !pred.Matches(l); });
      for (auto it = doomed; it != lines_.end(); ++it) --month_rows_[MonthOf(it->shipdate)];
      lines_.erase(doomed, lines_.end());
    }
    if (pred.ship_lo > INT32_MIN) {
      std::set<int> exact;
      for (int m = 0; m < kMonths; ++m) {
        if (MonthStart(kFirstYear, m + 1) > pred.ship_lo &&
            MonthStart(kFirstYear, m) < pred.ship_hi) {
          exact.insert(m);
        }
      }
      e.exact = PartSet{{"lineitem", exact}};
    }
    return e;
  }

  std::vector<std::string> FinalChecks(Engine* engine) override {
    std::vector<std::string> errors;
    mppdb::Result<mppdb::QueryResult> r = engine->db().Execute("SELECT count(*) FROM lineitem");
    if (!r.ok()) {
      errors.push_back("final count: " + r.status().ToString());
    } else if (std::string diff = CompareAnswers(
                   Int(static_cast<int64_t>(lines_.size())), ToAnswer(r->rows));
               !diff.empty()) {
      errors.push_back("final count(*) = loaded + inserted - deleted: " + diff);
    }
    return errors;
  }

 private:
  static Line RandomLine(Rng* rng, int64_t orderkey, int32_t shipdate) {
    Line l;
    l.orderkey = orderkey;
    l.suppkey = rng->Range(1, kSuppliers);
    l.shipdate = shipdate;
    l.quantity = rng->Range(1, 50);
    l.price = static_cast<double>(rng->Range(90000, 10490000)) / 100.0;
    l.discount = static_cast<double>(rng->Range(0, 10)) / 100.0;
    return l;
  }

  static mppdb::Row ToRow(const Line& l) {
    return {Datum::Int64(l.orderkey), Datum::Int64(l.suppkey), Datum::Date(l.shipdate),
            Datum::Int64(l.quantity), Datum::Double(l.price), Datum::Double(l.discount)};
  }

  Expectation ApplyInsert(const Stmt& stmt) {
    Expectation e;
    const std::vector<int64_t>& a = stmt.args;
    for (size_t i = 0; i + 6 <= a.size(); i += 6) {
      const Line l{a[i], a[i + 1], static_cast<int32_t>(a[i + 2]), a[i + 3],
                   static_cast<double>(a[i + 4]) / 100.0, static_cast<double>(a[i + 5]) / 100.0};
      ++month_rows_[MonthOf(l.shipdate)];
      e.written["lineitem"].insert(MonthOf(l.shipdate));
      lines_.push_back(l);
    }
    e.answer = Int(static_cast<int64_t>(a.size() / 6));
    e.exact = PartSet{};
    return e;
  }

  uint64_t seed_;
  size_t rows_;
  std::vector<Line> lines_;
  std::vector<uint64_t> month_rows_;
};

}  // namespace

std::unique_ptr<Workload> MakeLineitemScan(uint64_t seed, double scale) {
  return std::make_unique<LineitemScan>(seed, scale);
}

}  // namespace perfbench
