#include "src/tde/exec/exchange.h"

#include <chrono>

namespace vizq::tde {

ExchangeOperator::ExchangeOperator(std::vector<OperatorPtr> inputs,
                                   ExecStats* stats, bool serial_measurement,
                                   const ExecContext& ctx,
                                   Scheduler* scheduler, TaskClass priority,
                                   int stage)
    : inputs_(std::move(inputs)),
      stats_(stats),
      ctx_(ctx),
      scheduler_(scheduler != nullptr ? scheduler : &Scheduler::Global()),
      priority_(priority),
      stage_(stage),
      serial_measurement_(serial_measurement) {}

ExchangeOperator::~ExchangeOperator() { StopProducers(); }

Status ExchangeOperator::Open() {
  // A re-open without an intervening Close() must not leave the previous
  // producers racing the reset below: stop and join them first.
  StopProducers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.clear();
    cancelled_ = false;
    first_error_ = OkStatus();
    live_producers_ = static_cast<int>(inputs_.size());
    serial_done_ = false;
  }
  // Re-opening re-scans: rewind the shared morsel cursors before any
  // producer starts claiming (a second Open would otherwise silently
  // return zero rows from the drained queues).
  for (const MorselQueuePtr& q : morsel_queues_) q->Reset();
  consumer_tid_ = std::this_thread::get_id();
  // This fan-out is one parallel section of the plan's timeline.
  section_ = stats_ != nullptr ? stats_->NewSection() : 0;
  if (serial_measurement_) {
    opened_ = true;
    return OkStatus();  // inputs run lazily on first Next()
  }
  const int n = static_cast<int>(inputs_.size());
  group_ = std::make_unique<TaskGroup>(scheduler_, priority_, ctx_);
  for (int i = 0; i < n; ++i) {
    group_->Spawn(
        [this, i] {
          // Bounded is a run-time property: a producer the consumer runs
          // itself (claimed through RunOne, or shed by the scheduler)
          // executes on the consumer thread, which cannot drain queue_
          // while inside the producer — respecting max_queue_ there would
          // deadlock against ourselves. It buffers its whole input
          // instead; memory stays bounded by the input's size.
          ProducerLoop(i,
                       /*bounded=*/std::this_thread::get_id() !=
                           consumer_tid_);
        },
        "exchange-producer");
  }
  opened_ = true;
  return OkStatus();
}

Status ExchangeOperator::RunInputsSerially() {
  // Contention-free per-fraction timing: one input at a time, all batches
  // buffered. max_queue_ does not apply in this mode. All Opens run first,
  // untimed: a blocking hash-join build in the first input's Open is
  // accounted by its own kStageBuild fractions (and the build side's
  // serial consume by the wall-minus-fractions remainder), not smeared
  // into that input's probe fraction.
  for (auto& input : inputs_) {
    VIZQ_RETURN_IF_ERROR(input->Open());
  }
  for (size_t i = 0; i < inputs_.size(); ++i) {
    auto started = std::chrono::steady_clock::now();
    Operator* input = inputs_[i].get();
    int64_t rows = 0;
    Batch batch;
    while (true) {
      VIZQ_ASSIGN_OR_RETURN(bool more, input->Next(&batch));
      if (!more) break;
      rows += batch.num_rows;
      queue_.push_back(std::move(batch));
    }
    VIZQ_RETURN_IF_ERROR(input->Close());
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    if (stats_ != nullptr) stats_->AddFraction(seconds, rows, section_, stage_);
  }
  live_producers_ = 0;
  serial_done_ = true;
  return OkStatus();
}

void ExchangeOperator::ProducerLoop(int input_index, bool bounded) {
  auto started = std::chrono::steady_clock::now();
  Operator* input = inputs_[input_index].get();
  int64_t rows = 0;
  Status status;
  bool stopped_before_start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_before_start = cancelled_;
  }
  if (!stopped_before_start) {
    status = input->Open();
    if (status.ok()) {
      Batch batch;
      while (true) {
        StatusOr<bool> more = input->Next(&batch);
        if (!more.ok()) {
          status = more.status();
          break;
        }
        if (!*more) break;
        rows += batch.num_rows;
        std::unique_lock<std::mutex> lock(mu_);
        // The context cannot signal this CV, so a producer blocked on a
        // full queue waits in timed slices and polls it: a cancel or an
        // expired deadline wakes the producer instead of leaving it
        // parked until the consumer drains (which it may never do).
        while (bounded && !cancelled_ && queue_.size() >= max_queue_ &&
               !ctx_.cancelled()) {
          can_push_.wait_for(lock, std::chrono::milliseconds(2));
        }
        if (cancelled_) break;  // consumer-side stop: not an error
        if (Status cont = ctx_.CheckContinue("exchange producer");
            !cont.ok()) {
          // Record the typed error so the consumer surfaces
          // kDeadlineExceeded/kAborted, never a truncated OK stream.
          status = cont;
          break;
        }
        queue_.push_back(std::move(batch));
        can_pop_.notify_one();
      }
      Status close_status = input->Close();
      if (status.ok()) status = close_status;
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    if (stats_ != nullptr) stats_->AddFraction(seconds, rows, section_, stage_);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    --live_producers_;
  }
  can_pop_.notify_all();
}

StatusOr<bool> ExchangeOperator::Next(Batch* batch) {
  if (serial_measurement_) {
    if (!serial_done_) VIZQ_RETURN_IF_ERROR(RunInputsSerially());
    if (queue_.empty()) return false;
    *batch = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!queue_.empty()) {
      *batch = std::move(queue_.front());
      queue_.pop_front();
      can_push_.notify_one();
      return true;
    }
    if (live_producers_ == 0) break;
    VIZQ_RETURN_IF_ERROR(ctx_.CheckContinue("exchange consumer"));
    // Caller-runs: nothing to read, so run one of our own producers that
    // no worker has started yet instead of waiting for a worker.
    lock.unlock();
    const bool ran = group_->RunOne();
    lock.lock();
    if (ran) continue;
    // Every producer is claimed and running elsewhere: wait for a batch.
    // The context cannot signal this CV, so wait in slices and poll it.
    if (queue_.empty() && live_producers_ > 0) {
      can_pop_.wait_for(lock, std::chrono::milliseconds(2));
    }
  }
  if (!first_error_.ok()) return first_error_;
  return false;
}

void ExchangeOperator::StopProducers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
  }
  can_push_.notify_all();
  if (group_ != nullptr) {
    // Producers nobody started yet see cancelled_ and return at once, so
    // the consumer runs them itself rather than wait for a worker.
    group_->RunUntil();
    stolen_ += group_->stolen();
    group_.reset();
  }
}

Status ExchangeOperator::Close() {
  StopProducers();
  std::lock_guard<std::mutex> lock(mu_);
  opened_ = false;
  return first_error_;
}

}  // namespace vizq::tde
