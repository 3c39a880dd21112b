// tpcds_adhoc: many short ad hoc queries over a star schema with many
// monthly and weekly partitions. Every statement is planned afresh, so
// per-statement costs dominate: parse, bind, the Cascades search,
// PartitionSelector placement, and per-partition and Motion set-up.
#include <algorithm>
#include <cstdio>
#include <map>

#include "workload.h"

namespace perfbench {
namespace {

using mppdb::Datum;
using mppdb::TypeId;

constexpr int kFirstYear = 2000;
constexpr int kYears = 3;
constexpr int kMonths = kYears * 12;
constexpr size_t kStoreSales = 48000;
constexpr size_t kWebSales = 24000;
constexpr size_t kStoreReturns = 8000;
constexpr int kItems = 600;
constexpr int kCustomers = 2000;
constexpr int kStores = 12;
/// Returns each round inserts, updates and deletes again.
constexpr int kRoundReturns = 4;
constexpr int64_t kMarkerCustomerBase = 1000000;

const char* const kCategories[] = {"Books", "Children", "Electronics", "Home", "Jewelry",
                                   "Men", "Music", "Shoes", "Sports", "Women"};
const char* const kStates[] = {"CA", "GA", "IL", "NY", "OH", "TN", "TX", "WA"};

struct DateDim {
  int64_t sk;
  int64_t year, moy, dom, qoy;
};
struct Item {
  int64_t sk;
  std::string category;
  double price;
};
struct Customer {
  int64_t sk;
  std::string state;
  int64_t birth_year;
};
struct StoreSale {
  int64_t date, item, customer, store, quantity;
  double price;
};
struct WebSale {
  int64_t date, item, customer, quantity;
  double price;
};
struct StoreReturn {
  int64_t date, item, customer;
  double amount;
  int64_t quantity;
};

std::string Money(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld", static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

double FromCents(int64_t cents) { return static_cast<double>(cents) / 100.0; }

class TpcdsAdhoc : public Workload {
 public:
  TpcdsAdhoc(uint64_t seed, double scale) : seed_(seed), scale_(scale) {}

  void Generate() override {
    Rng rng(StreamSeed(seed_, 2));
    first_day_ = DaysFromCivil(kFirstYear, 1, 1);
    end_day_ = DaysFromCivil(kFirstYear + kYears, 1, 1);
    for (int32_t day = first_day_; day < end_day_; ++day) {
      int y = 0, m = 0, d = 0;
      CivilFromDays(day, &y, &m, &d);
      dates_.push_back({day, y, m, d, (m - 1) / 3 + 1});
    }
    for (int i = 1; i <= kItems; ++i) {
      items_.push_back({i, kCategories[rng.Uniform(10)], FromCents(rng.Range(100, 30000))});
    }
    for (int i = 1; i <= kCustomers; ++i) {
      customers_.push_back({i, kStates[rng.Uniform(8)], rng.Range(1930, 2000)});
    }
    auto day = [&] { return static_cast<int64_t>(first_day_ + rng.Uniform(end_day_ - first_day_)); };
    for (size_t i = 0; i < Scaled(kStoreSales); ++i) {
      store_sales_.push_back({day(), rng.Range(1, kItems), rng.Range(1, kCustomers),
                              rng.Range(1, kStores), rng.Range(1, 100),
                              FromCents(rng.Range(100, 20000))});
    }
    for (size_t i = 0; i < Scaled(kWebSales); ++i) {
      web_sales_.push_back({day(), rng.Range(1, kItems), rng.Range(1, kCustomers),
                            rng.Range(1, 100), FromCents(rng.Range(100, 20000))});
    }
    for (size_t i = 0; i < Scaled(kStoreReturns); ++i) {
      store_returns_.push_back({day(), rng.Range(1, kItems), rng.Range(1, kCustomers),
                                FromCents(rng.Range(100, 10000)), rng.Range(1, 10)});
    }
  }

  mppdb::Status Setup(Engine* engine) override {
    mppdb::Database& db = engine->db();
    auto dim = [&](const std::string& name, std::vector<mppdb::Column> cols) {
      return db.CreateTable(name, mppdb::Schema(std::move(cols)),
                            mppdb::TableDistribution::kHashed, {0})
          .status();
    };
    auto fact = [&](const std::string& name, std::vector<mppdb::Column> cols,
                    std::vector<mppdb::PartitionBound> bounds) {
      return db.CreatePartitionedTable(name, mppdb::Schema(std::move(cols)),
                                       mppdb::TableDistribution::kHashed, {1},
                                       {{0, mppdb::PartitionMethod::kRange}}, {bounds})
          .status();
    };
    std::vector<mppdb::Status> ddl = {
        dim("date_dim", {{"d_date_sk", TypeId::kInt64}, {"d_year", TypeId::kInt64},
                         {"d_moy", TypeId::kInt64}, {"d_dom", TypeId::kInt64},
                         {"d_qoy", TypeId::kInt64}}),
        dim("item", {{"i_item_sk", TypeId::kInt64}, {"i_category", TypeId::kString},
                     {"i_current_price", TypeId::kDouble}}),
        dim("customer", {{"c_customer_sk", TypeId::kInt64}, {"c_state", TypeId::kString},
                         {"c_birth_year", TypeId::kInt64}}),
        fact("store_sales",
             {{"ss_sold_date_sk", TypeId::kInt64}, {"ss_item_sk", TypeId::kInt64},
              {"ss_customer_sk", TypeId::kInt64}, {"ss_store_sk", TypeId::kInt64},
              {"ss_quantity", TypeId::kInt64}, {"ss_sales_price", TypeId::kDouble}},
             MonthBounds()),
        fact("web_sales",
             {{"ws_sold_date_sk", TypeId::kInt64}, {"ws_item_sk", TypeId::kInt64},
              {"ws_customer_sk", TypeId::kInt64}, {"ws_quantity", TypeId::kInt64},
              {"ws_sales_price", TypeId::kDouble}},
             WeekBounds()),
        fact("store_returns",
             {{"sr_returned_date_sk", TypeId::kInt64}, {"sr_item_sk", TypeId::kInt64},
              {"sr_customer_sk", TypeId::kInt64}, {"sr_return_amt", TypeId::kDouble},
              {"sr_return_quantity", TypeId::kInt64}},
             MonthBounds()),
    };
    for (const mppdb::Status& st : ddl) {
      if (!st.ok()) return st;
    }
    auto load = [&](const std::string& table, const auto& model, auto to_row) {
      std::vector<mppdb::Row> batch;
      for (size_t i = 0; i < model.size(); ++i) {
        batch.push_back(to_row(model[i]));
        if (batch.size() == kLoadBatchRows || i + 1 == model.size()) {
          if (mppdb::Status st = engine->Load(table, batch); !st.ok()) return st;
          batch.clear();
        }
      }
      return mppdb::Status::OK();
    };
    using R = mppdb::Row;
    std::vector<mppdb::Status> loads = {
        load("date_dim", dates_,
             [](const DateDim& d) {
               return R{Datum::Int64(d.sk), Datum::Int64(d.year), Datum::Int64(d.moy),
                        Datum::Int64(d.dom), Datum::Int64(d.qoy)};
             }),
        load("item", items_,
             [](const Item& i) {
               return R{Datum::Int64(i.sk), Datum::String(i.category), Datum::Double(i.price)};
             }),
        load("customer", customers_,
             [](const Customer& c) {
               return R{Datum::Int64(c.sk), Datum::String(c.state),
                        Datum::Int64(c.birth_year)};
             }),
        load("store_sales", store_sales_,
             [](const StoreSale& s) {
               return R{Datum::Int64(s.date),     Datum::Int64(s.item),
                        Datum::Int64(s.customer), Datum::Int64(s.store),
                        Datum::Int64(s.quantity), Datum::Double(s.price)};
             }),
        load("web_sales", web_sales_,
             [](const WebSale& s) {
               return R{Datum::Int64(s.date), Datum::Int64(s.item), Datum::Int64(s.customer),
                        Datum::Int64(s.quantity), Datum::Double(s.price)};
             }),
        load("store_returns", store_returns_,
             [](const StoreReturn& r) {
               return R{Datum::Int64(r.date), Datum::Int64(r.item), Datum::Int64(r.customer),
                        Datum::Double(r.amount), Datum::Int64(r.quantity)};
             }),
    };
    for (const mppdb::Status& st : loads) {
      if (!st.ok()) return st;
    }
    return mppdb::Status::OK();
  }

  std::vector<std::string> Tables() const override {
    return {"store_sales", "web_sales", "store_returns", "date_dim", "item", "customer"};
  }

  uint64_t RowsLoaded() const override {
    return dates_.size() + items_.size() + customers_.size() + Scaled(kStoreSales) +
           Scaled(kWebSales) + Scaled(kStoreReturns);
  }

  std::vector<Stmt> Round(uint64_t round) override {
    Rng rng(StreamSeed(seed_, 2000 + round));
    std::vector<Stmt> out;
    auto add = [&](Stmt::Kind kind, const char* cls, std::string sql,
                   std::vector<std::string> tables, std::vector<int64_t> args) {
      Stmt s;
      s.kind = kind;
      s.cls = cls;
      s.sql = std::move(sql);
      s.tables = std::move(tables);
      s.args = std::move(args);
      out.push_back(std::move(s));
    };
    auto day = [&] {
      return static_cast<int64_t>(first_day_ + rng.Uniform(end_day_ - first_day_));
    };
    auto str = [](int64_t v) { return std::to_string(v); };
    const int64_t year = kFirstYear + static_cast<int64_t>(rng.Uniform(kYears));
    const int64_t marker = kMarkerCustomerBase + static_cast<int64_t>(round);

    {
      // The inserted rows travel in Stmt::args, five integers per row, so
      // the model applies exactly what the SQL sent.
      std::string values;
      std::vector<int64_t> args;
      for (int j = 0; j < kRoundReturns; ++j) {
        const std::vector<int64_t> row = {day(), rng.Range(1, kItems), marker,
                                          rng.Range(100, 10000), rng.Range(1, 10)};
        values += (j > 0 ? ", (" : "(") + str(row[0]) + ", " + str(row[1]) + ", " +
                  str(row[2]) + ", " + Money(row[3]) + ", " + str(row[4]) + ")";
        args.insert(args.end(), row.begin(), row.end());
      }
      add(Stmt::Kind::kInsert, "return_insert", "INSERT INTO store_returns VALUES " + values,
          {"store_returns"}, std::move(args));
    }
    {
      const int64_t lo = first_day_ + static_cast<int64_t>(rng.Uniform(end_day_ - first_day_ - 80));
      const int64_t hi = lo + rng.Range(10, 75);
      add(Stmt::Kind::kSelect, "static_range",
          "SELECT count(*), sum(ss_quantity), sum(ss_sales_price) FROM store_sales "
          "WHERE ss_sold_date_sk BETWEEN " + str(lo) + " AND " + str(hi),
          {"store_sales"}, {lo, hi});
    }
    {
      std::vector<int64_t> days = {day(), day(), day(), day()};
      add(Stmt::Kind::kSelect, "static_inlist",
          "SELECT count(*), sum(ws_quantity) FROM web_sales WHERE ws_sold_date_sk IN (" +
              str(days[0]) + ", " + str(days[1]) + ", " + str(days[2]) + ", " + str(days[3]) +
              ")",
          {"web_sales"}, days);
    }
    {
      const int64_t m1 = rng.Range(1, 10), m2 = m1 + rng.Range(0, 2);
      add(Stmt::Kind::kSelect, "join_dynamic",
          "SELECT count(*), sum(ss.ss_quantity) FROM store_sales ss JOIN date_dim d "
          "ON ss.ss_sold_date_sk = d.d_date_sk WHERE d.d_year = " + str(year) +
              " AND d.d_moy BETWEEN " + str(m1) + " AND " + str(m2),
          {"store_sales"}, {year, m1, m2});
    }
    {
      const int64_t m = rng.Range(1, 12);
      add(Stmt::Kind::kSelect, "in_subquery",
          "SELECT count(*), sum(sr_return_amt) FROM store_returns WHERE sr_returned_date_sk "
          "IN (SELECT d_date_sk FROM date_dim WHERE d_year = " + str(year) +
              " AND d_moy = " + str(m) + ")",
          {"store_returns"}, {year, m});
    }
    add(Stmt::Kind::kUpdate, "return_update",
        "UPDATE store_returns SET sr_return_amt = sr_return_amt + 1.25 WHERE sr_customer_sk = " +
            str(marker),
        {"store_returns"}, {marker});
    {
      const int64_t q = rng.Range(1, 4);
      add(Stmt::Kind::kSelect, "star_item",
          "SELECT i.i_category, count(*), sum(ss.ss_quantity) FROM store_sales ss "
          "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
          "JOIN item i ON ss.ss_item_sk = i.i_item_sk WHERE d.d_year = " + str(year) +
              " AND d.d_qoy = " + str(q) + " GROUP BY i.i_category",
          {"store_sales"}, {year, q});
    }
    {
      const int64_t state = static_cast<int64_t>(rng.Uniform(8));
      const int64_t m = rng.Range(1, 12);
      add(Stmt::Kind::kSelect, "star_customer",
          std::string("SELECT count(*), sum(ws.ws_quantity) FROM web_sales ws "
                      "JOIN date_dim d ON ws.ws_sold_date_sk = d.d_date_sk "
                      "JOIN customer c ON ws.ws_customer_sk = c.c_customer_sk "
                      "WHERE c.c_state = '") +
              kStates[state] + "' AND d.d_year = " + str(year) + " AND d.d_moy = " + str(m),
          {"web_sales"}, {state, year, m});
    }
    {
      const int64_t q = rng.Range(50, 95);
      add(Stmt::Kind::kSelect, "no_pruning_agg",
          "SELECT ss_store_sk, count(*), sum(ss_quantity) FROM store_sales "
          "WHERE ss_quantity > " + str(q) + " GROUP BY ss_store_sk",
          {"store_sales"}, {q});
    }
    {
      const int64_t lo = first_day_ + 61 +
                         static_cast<int64_t>(rng.Uniform(end_day_ - first_day_ - 100));
      const int64_t hi = lo + rng.Range(7, 30);
      add(Stmt::Kind::kSelect, "fact_to_fact",
          "SELECT count(*), sum(ss.ss_quantity) FROM store_returns sr JOIN store_sales ss "
          "ON sr.sr_item_sk = ss.ss_item_sk WHERE sr.sr_returned_date_sk BETWEEN " + str(lo) +
              " AND " + str(hi) + " AND ss.ss_sold_date_sk BETWEEN " + str(lo - 60) +
              " AND " + str(hi),
          {"store_returns", "store_sales"}, {lo, hi});
    }
    {
      const int64_t q = rng.Range(1, 100), s = rng.Range(1, kStores), m = rng.Range(1, 12);
      add(Stmt::Kind::kSelect, "misleading_selectivity",
          "SELECT count(*) FROM store_sales ss JOIN date_dim d "
          "ON ss.ss_sold_date_sk = d.d_date_sk WHERE ss.ss_quantity = " + str(q) +
              " AND ss.ss_store_sk = " + str(s) + " AND d.d_moy = " + str(m),
          {"store_sales"}, {q, s, m});
    }
    {
      const int64_t lo = day(), dom = rng.Range(3, 12);
      add(Stmt::Kind::kSelect, "static_plus_dynamic",
          "SELECT count(*), sum(ws.ws_sales_price) FROM web_sales ws JOIN date_dim d "
          "ON ws.ws_sold_date_sk = d.d_date_sk WHERE ws.ws_sold_date_sk >= " + str(lo) +
              " AND d.d_dom <= " + str(dom),
          {"web_sales"}, {lo, dom});
    }
    add(Stmt::Kind::kDelete, "return_delete",
        "DELETE FROM store_returns WHERE sr_customer_sk = " + str(marker), {"store_returns"},
        {marker});
    return out;
  }

  Expectation Apply(const Stmt& stmt) override {
    Expectation e;
    const std::vector<int64_t>& a = stmt.args;
    const std::string& cls = stmt.cls;
    auto note = [&](const std::string& table, int part) { e.must[table].insert(part); };
    if (cls == "return_insert") {
      for (size_t i = 0; i + 5 <= a.size(); i += 5) {
        store_returns_.push_back({a[i], a[i + 1], a[i + 2], FromCents(a[i + 3]), a[i + 4]});
        e.written["store_returns"].insert(MonthIndex(a[i]));
      }
      e.answer = {{Cell(static_cast<int64_t>(a.size() / 5))}};
      e.exact = PartSet{};
      return e;
    } else if (cls == "return_update" || cls == "return_delete") {
      int64_t n = 0;
      for (StoreReturn& r : store_returns_) {
        if (r.customer != a[0]) continue;
        ++n;
        note("store_returns", MonthIndex(r.date));
        if (cls == "return_update") r.amount = r.amount + 1.25;
      }
      e.written = e.must;
      e.must_rows = MustRows(e.must);
      if (cls == "return_delete") {
        std::erase_if(store_returns_, [&](const StoreReturn& r) { return r.customer == a[0]; });
      }
      e.answer = {{Cell(n)}};
      return e;
    } else if (cls == "static_range") {
      int64_t n = 0, qty = 0;
      long double price = 0;
      for (const StoreSale& s : store_sales_) {
        if (s.date < a[0] || s.date > a[1]) continue;
        ++n, qty += s.quantity, price += s.price;
        note("store_sales", MonthIndex(s.date));
      }
      e.answer = {{Cell(n), SumCell(n, qty), SumCell(n, price)}};
      e.exact = PartSet{{"store_sales", MonthsMeeting(a[0], a[1])}};
    } else if (cls == "static_inlist") {
      int64_t n = 0, qty = 0;
      std::set<int> exact;
      for (int64_t d : a) exact.insert(WeekIndex(d));
      for (const WebSale& s : web_sales_) {
        if (std::find(a.begin(), a.end(), s.date) == a.end()) continue;
        ++n, qty += s.quantity;
        note("web_sales", WeekIndex(s.date));
      }
      e.answer = {{Cell(n), SumCell(n, qty)}};
      e.exact = PartSet{{"web_sales", exact}};
    } else if (cls == "join_dynamic") {
      int64_t n = 0, qty = 0;
      for (const StoreSale& s : store_sales_) {
        const DateDim& d = Date(s.date);
        if (d.year != a[0] || d.moy < a[1] || d.moy > a[2]) continue;
        ++n, qty += s.quantity;
        note("store_sales", MonthIndex(s.date));
        note("date_dim", 0);
      }
      e.answer = {{Cell(n), SumCell(n, qty)}};
    } else if (cls == "in_subquery") {
      int64_t n = 0;
      long double amount = 0;
      for (const StoreReturn& r : store_returns_) {
        const DateDim& d = Date(r.date);
        if (d.year != a[0] || d.moy != a[1]) continue;
        ++n, amount += r.amount;
        note("store_returns", MonthIndex(r.date));
        note("date_dim", 0);
      }
      e.answer = {{Cell(n), SumCell(n, amount)}};
    } else if (cls == "star_item") {
      std::map<std::string, std::pair<int64_t, int64_t>> groups;
      for (const StoreSale& s : store_sales_) {
        const DateDim& d = Date(s.date);
        if (d.year != a[0] || d.qoy != a[1]) continue;
        auto& g = groups[items_[s.item - 1].category];
        ++g.first, g.second += s.quantity;
        note("store_sales", MonthIndex(s.date));
        note("date_dim", 0);
        note("item", 0);
      }
      for (const auto& [category, g] : groups) {
        e.answer.push_back({Cell(category), Cell(g.first), Cell(g.second)});
      }
    } else if (cls == "star_customer") {
      int64_t n = 0, qty = 0;
      for (const WebSale& s : web_sales_) {
        const DateDim& d = Date(s.date);
        if (d.year != a[1] || d.moy != a[2] ||
            customers_[s.customer - 1].state != kStates[a[0]]) {
          continue;
        }
        ++n, qty += s.quantity;
        note("web_sales", WeekIndex(s.date));
        note("date_dim", 0);
        note("customer", 0);
      }
      e.answer = {{Cell(n), SumCell(n, qty)}};
    } else if (cls == "no_pruning_agg") {
      std::map<int64_t, std::pair<int64_t, int64_t>> groups;
      for (const StoreSale& s : store_sales_) {
        if (s.quantity <= a[0]) continue;
        auto& g = groups[s.store];
        ++g.first, g.second += s.quantity;
        note("store_sales", MonthIndex(s.date));
      }
      for (const auto& [store, g] : groups) {
        e.answer.push_back({Cell(store), Cell(g.first), Cell(g.second)});
      }
    } else if (cls == "fact_to_fact") {
      std::map<int64_t, std::vector<const StoreSale*>> sales_by_item;
      for (const StoreSale& s : store_sales_) {
        if (s.date >= a[0] - 60 && s.date <= a[1]) sales_by_item[s.item].push_back(&s);
      }
      int64_t n = 0, qty = 0;
      for (const StoreReturn& r : store_returns_) {
        if (r.date < a[0] || r.date > a[1]) continue;
        auto it = sales_by_item.find(r.item);
        if (it == sales_by_item.end()) continue;
        note("store_returns", MonthIndex(r.date));
        for (const StoreSale* s : it->second) {
          ++n, qty += s->quantity;
          note("store_sales", MonthIndex(s->date));
        }
      }
      e.answer = {{Cell(n), SumCell(n, qty)}};
      e.exact = PartSet{{"store_returns", MonthsMeeting(a[0], a[1])},
                        {"store_sales", MonthsMeeting(a[0] - 60, a[1])}};
    } else if (cls == "misleading_selectivity") {
      int64_t n = 0;
      for (const StoreSale& s : store_sales_) {
        if (s.quantity != a[0] || s.store != a[1] || Date(s.date).moy != a[2]) continue;
        ++n;
        note("store_sales", MonthIndex(s.date));
        note("date_dim", 0);
      }
      e.answer = {{Cell(n)}};
    } else if (cls == "static_plus_dynamic") {
      int64_t n = 0;
      long double price = 0;
      for (const WebSale& s : web_sales_) {
        if (s.date < a[0] || Date(s.date).dom > a[1]) continue;
        ++n, price += s.price;
        note("web_sales", WeekIndex(s.date));
        note("date_dim", 0);
      }
      e.answer = {{Cell(n), SumCell(n, price)}};
    }
    e.must_rows = MustRows(e.must);
    return e;
  }

  std::vector<std::string> FinalChecks(Engine* engine) override {
    // The legacy Planner (the paper's baseline) must give the same answers
    // as the Cascades optimizer on one instance of every read template.
    std::vector<std::string> errors;
    for (const Stmt& stmt : Round(1u << 30)) {
      if (IsWrite(stmt)) continue;
      mppdb::QueryOptions legacy;
      legacy.optimizer = mppdb::OptimizerKind::kLegacyPlanner;
      mppdb::Result<mppdb::QueryResult> planner = engine->db().Execute(stmt.sql, legacy);
      mppdb::Result<mppdb::QueryResult> cascades = engine->db().Execute(stmt.sql);
      if (!planner.ok() || !cascades.ok()) {
        errors.push_back(stmt.cls + ": legacy/cascades run failed: " +
                         (planner.ok() ? cascades.status() : planner.status()).ToString());
        continue;
      }
      const Expectation e = Apply(stmt);
      for (const auto* r : {&planner, &cascades}) {
        if (std::string diff = CompareAnswers(e.answer, ToAnswer((*r)->rows)); !diff.empty()) {
          errors.push_back(stmt.cls + (r == &planner ? " (legacy planner): " : " (cascades): ") +
                           diff);
        }
      }
    }
    mppdb::Result<mppdb::QueryResult> count =
        engine->db().Execute("SELECT count(*) FROM store_returns");
    if (!count.ok() ||
        !CompareAnswers({{Cell(static_cast<int64_t>(store_returns_.size()))}},
                        ToAnswer(count->rows))
             .empty()) {
      errors.push_back("final store_returns count(*) differs from loaded + inserted - deleted");
    }
    return errors;
  }

 private:
  size_t Scaled(size_t rows) const {
    return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(rows) * scale_));
  }

  static std::vector<mppdb::PartitionBound> MonthBounds() {
    std::vector<mppdb::PartitionBound> bounds;
    for (int m = 0; m < kMonths; ++m) {
      char name[16];
      std::snprintf(name, sizeof(name), "m%02d", m);
      bounds.push_back(mppdb::PartitionBound::Range(Datum::Int64(MonthStart(kFirstYear, m)),
                                                    Datum::Int64(MonthStart(kFirstYear, m + 1)),
                                                    name));
    }
    return bounds;
  }

  static std::vector<mppdb::PartitionBound> WeekBounds() {
    std::vector<mppdb::PartitionBound> bounds;
    const int32_t first = DaysFromCivil(kFirstYear, 1, 1);
    const int32_t end = DaysFromCivil(kFirstYear + kYears, 1, 1);
    for (int w = 0; first + 7 * w < end; ++w) {
      char name[16];
      std::snprintf(name, sizeof(name), "w%03d", w);
      bounds.push_back(mppdb::PartitionBound::Range(
          Datum::Int64(first + 7 * w), Datum::Int64(std::min(first + 7 * (w + 1), end)), name));
    }
    return bounds;
  }

  const DateDim& Date(int64_t sk) const { return dates_[static_cast<size_t>(sk - first_day_)]; }
  int MonthIndex(int64_t sk) const {
    const DateDim& d = Date(sk);
    return static_cast<int>((d.year - kFirstYear) * 12 + d.moy - 1);
  }
  int WeekIndex(int64_t sk) const { return static_cast<int>((sk - first_day_) / 7); }

  std::set<int> MonthsMeeting(int64_t lo, int64_t hi) const {
    std::set<int> out;
    for (int m = 0; m < kMonths; ++m) {
      if (MonthStart(kFirstYear, m + 1) > lo && MonthStart(kFirstYear, m) <= hi) out.insert(m);
    }
    return out;
  }

  uint64_t MustRows(const PartSet& must) const {
    uint64_t rows = 0;
    auto count_parts = [&](const auto& model, const std::set<int>& parts, auto part_of) {
      for (const auto& r : model) rows += parts.count(part_of(r.date)) ? 1 : 0;
    };
    for (const auto& [table, parts] : must) {
      if (table == "store_sales") {
        count_parts(store_sales_, parts, [&](int64_t d) { return MonthIndex(d); });
      } else if (table == "web_sales") {
        count_parts(web_sales_, parts, [&](int64_t d) { return WeekIndex(d); });
      } else if (table == "store_returns") {
        count_parts(store_returns_, parts, [&](int64_t d) { return MonthIndex(d); });
      } else if (table == "date_dim") {
        rows += dates_.size();
      } else if (table == "item") {
        rows += items_.size();
      } else if (table == "customer") {
        rows += customers_.size();
      }
    }
    return rows;
  }

  uint64_t seed_;
  double scale_;
  int32_t first_day_ = 0;
  int32_t end_day_ = 0;
  std::vector<DateDim> dates_;
  std::vector<Item> items_;
  std::vector<Customer> customers_;
  std::vector<StoreSale> store_sales_;
  std::vector<WebSale> web_sales_;
  std::vector<StoreReturn> store_returns_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpcdsAdhoc(uint64_t seed, double scale) {
  return std::make_unique<TpcdsAdhoc>(seed, scale);
}

}  // namespace perfbench
