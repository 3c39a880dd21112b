// The interface each benchmark workload implements. A workload keeps its own
// model of the data it loaded (generated from the seed, not by the engine),
// produces rounds of statements, and evaluates each statement over that
// model in plain C++ to say what the engine must return.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the model. Runs before the resident-memory baseline is taken,
  /// so the model's own memory is not charged to the engine.
  virtual void Generate() = 0;
  /// DDL, bulk load through Database::Load in bounded batches, indexes.
  virtual mppdb::Status Setup(Engine* engine) = 0;
  /// Tables whose partitions the checks and metrics name.
  virtual std::vector<std::string> Tables() const = 0;
  virtual uint64_t RowsLoaded() const = 0;

  /// The statements of round `round`. Every round has the same make-up;
  /// only literals drawn from the seed differ.
  virtual std::vector<Stmt> Round(uint64_t round) = 0;
  /// Evaluates `stmt` over the model, and for a write applies it there.
  /// Called once per executed statement, in execution order.
  virtual Expectation Apply(const Stmt& stmt) = 0;

  /// Checks run once after the measured window; returns failure messages.
  virtual std::vector<std::string> FinalChecks(Engine* engine) = 0;
};

/// `scale` multiplies every row count (1.0 = the benchmark's size).
std::unique_ptr<Workload> MakeLineitemScan(uint64_t seed, double scale);
std::unique_ptr<Workload> MakeTpcdsAdhoc(uint64_t seed, double scale);
std::unique_ptr<Workload> MakeDmlMix(uint64_t seed, double scale);

/// Bulk-loads `rows` in batches of at most kLoadBatchRows, so the input held
/// at once stays bounded.
inline constexpr size_t kLoadBatchRows = 50000;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
