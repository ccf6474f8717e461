// The Volcano execution framework (§4.1.3): every physical operator
// implements Open/Next/Close and pulls Batches from its children. Streaming
// operators (Filter, Project, Scan) emit rows as they consume them;
// stop-and-go operators (Aggregate, Sort, TopN, the build side of HashJoin)
// consume their whole input first.

#ifndef VIZQUERY_TDE_EXEC_OPERATORS_H_
#define VIZQUERY_TDE_EXEC_OPERATORS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/result_table.h"
#include "src/common/status.h"
#include "src/tde/exec/batch.h"
#include "src/tde/exec/expression.h"

namespace vizq::tde {

// Execution statistics collected while a plan runs. Fraction timings are
// appended by the parallel workers (Exchange producers, join-build tasks,
// final-merge tasks); on a single-core host they let benches compute the
// modeled parallel makespan that a multi-core host would realize (see
// EXPERIMENTS.md).
//
// A plan may contain several *parallel sections* that run back-to-back
// (scan fractions, then the join-build fan-out, then the final-merge
// fan-out). Each section allocates an id with NewSection() and tags its
// fractions with it, so the modeled critical path is the sum over sections
// of the slowest fraction in that section — not one global max, which
// would undercount sequential sections.
struct ExecStats {
  // What kind of parallel section a fraction belongs to (reporting only).
  static constexpr int kStageScan = 0;   // Exchange producers (scan/probe)
  static constexpr int kStageBuild = 1;  // hash-join build tasks (§4.2.2)
  static constexpr int kStageMerge = 2;  // kFinal aggregate merge tasks

  struct FractionStat {
    double seconds = 0;
    int64_t rows = 0;
    int section = 0;  // NewSection() id; same id = ran concurrently
    int stage = kStageScan;
  };

  std::mutex mu;
  std::vector<FractionStat> fractions;
  int64_t rows_scanned = 0;
  int64_t batches = 0;
  int64_t morsels_claimed = 0;     // row ranges claimed from MorselQueues
  int64_t join_build_morsels = 0;  // build-side morsels hashed in parallel
  int64_t merge_partitions = 0;    // kFinal merge partitions fanned out
  int dop = 1;                     // degree of parallelism of the plan
  bool used_parallel_plan = false;
  bool used_local_global_agg = false;
  bool used_range_partition = false;
  bool used_rle_index = false;
  bool used_streaming_agg = false;
  bool used_morsel_scan = false;
  bool used_encoded_path = false;
  bool used_parallel_build = false;  // partitioned hash-join build ran
  bool used_parallel_merge = false;  // partitioned kFinal merge ran
  // Encoding-aware execution (DESIGN.md §11): rows that crossed the
  // storage→exec boundary without being decoded to flat vectors, and
  // encoded-path candidates that had to fall back to the row path.
  int64_t encoded_rows_undecoded = 0;
  int64_t encoded_fallbacks = 0;
  int64_t encoded_plans = 0;

  // Allocates the id of the next parallel section (thread-safe).
  int NewSection() {
    return next_section_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void AddFraction(double seconds, int64_t rows, int section = 0,
                   int stage = kStageScan) {
    std::lock_guard<std::mutex> lock(mu);
    fractions.push_back(FractionStat{seconds, rows, section, stage});
  }

  // Slowest single fraction across all sections.
  double MaxFractionSeconds() const;
  // Total work across fractions.
  double SumFractionSeconds() const;
  // Modeled critical path of the parallel work: sum over sections of the
  // slowest fraction in that section (sections run back-to-back).
  double CriticalPathSeconds() const;
  // Critical-path contribution of sections with the given stage tag.
  double StageCriticalPathSeconds(int stage) const;

 private:
  std::atomic<int> next_section_{0};
};

// What a scan counts while it runs. Parallel fractions each keep their own
// and add them to ExecStats once (end of stream or Close), so no batch
// takes the stats mutex.
struct ScanCounters {
  int64_t rows_scanned = 0;
  int64_t encoded_rows_undecoded = 0;
  int64_t batches = 0;
  int64_t morsels_claimed = 0;

  // Adds the counts to `stats` (if any) and zeroes them.
  void FlushTo(ExecStats* stats);
};

// Base class of all physical operators.
class Operator {
 public:
  virtual ~Operator() = default;

  // Output schema (valid after construction, before Open).
  virtual const BatchSchema& schema() const = 0;

  virtual Status Open() = 0;

  // Produces the next batch into *batch (overwritten). Returns false at end
  // of stream; a true return may carry an empty batch (callers skip those).
  virtual StatusOr<bool> Next(Batch* batch) = 0;

  virtual Status Close() = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

// One conjunct of an encoded filter, classified by how the encoded path
// evaluates it (classification happens in the optimizer's
// DecideEncodedExec; see DESIGN.md §11).
struct EncodedConjunct {
  enum class Kind : uint8_t {
    kTokenBitmap,  // single dict-string column: eval once per distinct token
    kPerRun,       // single run-encoded fixed-width column: eval once per run
    kPerRow,       // anything else: normal vectorized per-row evaluation
                   // (must only touch flat, non-run-encoded columns)
  };
  ExprPtr expr;           // bound against the filter's child schema
  int column_index = -1;  // the column driving kTokenBitmap / kPerRun
  Kind kind = Kind::kPerRow;
  // kPerRun over an int/date/bool column whose stats range is small: the
  // filter builds a verdict table over [value_min, value_min + value_card)
  // once at Open instead of evaluating the runs of every batch. 0 = none.
  int64_t value_min = 0;
  int64_t value_card = 0;
};

// --- Filter (the TQL Select operator): streaming predicate evaluation ---
class FilterOperator : public Operator {
 public:
  // `predicate` must be bound against child->schema().
  FilterOperator(OperatorPtr child, ExprPtr predicate);

  // Switches to encoded mode: instead of materializing the surviving rows,
  // Next() moves the child batch through with a selection vector attached,
  // evaluating each conjunct once per dictionary token (kTokenBitmap), once
  // per value or RLE run (kPerRun), or per row (kPerRow). The downstream
  // operator must be selection-aware (the planner guarantees this).
  void EnableEncodedFilter(std::vector<EncodedConjunct> conjuncts,
                           ExecStats* stats);

  const BatchSchema& schema() const override { return child_->schema(); }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override { return child_->Close(); }

 private:
  StatusOr<bool> NextEncoded(Batch* batch);

  OperatorPtr child_;
  ExprPtr predicate_;
  bool encoded_ = false;
  std::vector<EncodedConjunct> conjuncts_;
  // Parallel to conjuncts_: verdict tables built at Open for kTokenBitmap
  // entries and table-backed kPerRun entries (empty match otherwise).
  std::vector<VerdictTable> verdicts_;
  ExecStats* stats_ = nullptr;
  // Scratch reused across batches: the child's batch (swapped with the
  // caller's, so both keep their buffers), the live-row mask, the flat
  // verdict-table conjuncts of this batch and the selection being built.
  Batch in_;
  std::vector<uint8_t> live_;
  std::vector<std::pair<const VerdictTable*, const ColumnVector*>> flat_;
  std::vector<int32_t> selection_;
};

// --- Project: computes named expressions over the child ---
class ProjectOperator : public Operator {
 public:
  struct NamedExpr {
    std::string name;
    ExprPtr expr;  // bound against the child schema
  };

  ProjectOperator(OperatorPtr child, std::vector<NamedExpr> exprs);

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override { return child_->Open(); }
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override { return child_->Close(); }

 private:
  OperatorPtr child_;
  std::vector<NamedExpr> exprs_;
  BatchSchema schema_;
};

// Runs `op` to completion and materializes everything into a ResultTable.
StatusOr<ResultTable> CollectToResultTable(Operator* op);

// Runs `op` to completion, appending all batches into one big Batch with
// `schema` layouts. Returns total rows.
StatusOr<int64_t> CollectToBatch(Operator* op, Batch* out);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_OPERATORS_H_
