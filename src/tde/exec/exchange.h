// The Exchange operator (§4.2.1): takes N inputs and produces one output,
// running each input as a producer task — exactly the restricted N-to-1
// form shipped in Tableau 9.0 (no repartitioning, no order preservation;
// §4.2.2 explains the restriction and its consequence: everything above
// the Exchange runs serially).
//
// Producers are kInteractive tasks on the process-wide Scheduler
// (src/common/scheduler.h), not raw threads. Three consequences:
//
//   * cooperative cancellation: a producer blocked on the full output
//     queue wakes on the ExecContext's cancellation/deadline, records the
//     context's typed error and exits — the consumer surfaces
//     kDeadlineExceeded/kAborted, never a silently truncated OK result;
//   * caller-runs (DESIGN.md §10): whenever the consumer has nothing to
//     read it claims one of its producers that no worker has started yet
//     (TaskGroup::RunOne) and runs it inline, buffering that input
//     unbounded, and it waits for a batch only while every producer is
//     already running elsewhere. An Exchange never waits for a free
//     worker, so it drains even with zero available workers, and a
//     producer queued behind other queries' work costs no idle time;
//   * observability: producer wait/run times land in the sched.* metrics
//     and scheduler spans like every other task.
//
// Each producer's wall-clock time and row count are recorded into
// ExecStats; on a single-core host these per-fraction timings let benches
// report the modeled multi-core makespan (max over fractions) alongside
// the measured single-core total.

#ifndef VIZQUERY_TDE_EXEC_EXCHANGE_H_
#define VIZQUERY_TDE_EXEC_EXCHANGE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/scheduler.h"
#include "src/tde/exec/morsel.h"
#include "src/tde/exec/operators.h"

namespace vizq::tde {

class ExchangeOperator : public Operator {
 public:
  // All inputs must share one output schema. `stats` may be null.
  // With `serial_measurement` set, inputs are executed one after another
  // on the consumer thread (buffering their batches) instead of as
  // producer tasks: results are identical, but each fraction's recorded
  // time is contention-free, which is what the modeled-makespan reporting
  // on single-core hosts needs (see bench/bench_util.h).
  // `scheduler` defaults to Scheduler::Global(). Producers are submitted
  // under `priority` — the query's class, threaded in by the translator.
  // `stage` tags this Exchange's fraction timings (probe-side scans vs a
  // build-side Exchange, ExecStats::kStage*).
  ExchangeOperator(std::vector<OperatorPtr> inputs, ExecStats* stats,
                   bool serial_measurement = false,
                   const ExecContext& ctx = ExecContext::Background(),
                   Scheduler* scheduler = nullptr,
                   TaskClass priority = TaskClass::kInteractive,
                   int stage = 0 /* ExecStats::kStageScan */);
  ~ExchangeOperator() override;

  const BatchSchema& schema() const override { return inputs_[0]->schema(); }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override;

  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  // Producers the consumer thread claimed from the scheduler queue and
  // ran itself, summed over every finished Open()..Close() fan-out.
  int64_t stolen() const { return stolen_; }

  // Registers a morsel queue shared by this Exchange's scan inputs. Open()
  // rewinds every registered queue before producers start, so re-opening
  // the operator tree re-scans instead of seeing drained cursors.
  void AddMorselQueue(MorselQueuePtr queue) {
    morsel_queues_.push_back(std::move(queue));
  }

 private:
  // Runs input `input_index` to completion, pushing batches. `bounded`
  // producers respect max_queue_; a producer on the consumer thread runs
  // unbounded (buffering everything) to avoid blocking on itself.
  void ProducerLoop(int input_index, bool bounded);
  void StopProducers();
  Status RunInputsSerially();

  std::vector<OperatorPtr> inputs_;
  ExecStats* stats_;
  ExecContext ctx_;
  Scheduler* scheduler_;
  TaskClass priority_;
  int stage_;
  // Parallel-section id of the current Open()'s producer fan-out.
  int section_ = 0;

  std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<Batch> queue_;
  size_t max_queue_ = 8;
  int live_producers_ = 0;
  bool cancelled_ = false;
  Status first_error_;
  std::unique_ptr<TaskGroup> group_;
  int64_t stolen_ = 0;
  std::vector<MorselQueuePtr> morsel_queues_;
  // The thread that called Open() — the consumer. A producer executing
  // on it (shed or claimed) must run unbounded: the consumer cannot
  // drain its own queue while inside the producer.
  std::thread::id consumer_tid_;
  bool opened_ = false;
  bool serial_measurement_ = false;
  bool serial_done_ = false;
};

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_EXCHANGE_H_
