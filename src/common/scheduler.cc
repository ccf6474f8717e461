#include "src/common/scheduler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

namespace vizq {

namespace {

// Set while a worker of some scheduler is running a task; lets Submit
// detect nested spawns (which bypass the class caps, see scheduler.h).
thread_local const Scheduler* tls_worker_of = nullptr;

}  // namespace

const char* TaskClassName(TaskClass c) {
  switch (c) {
    case TaskClass::kInteractive:
      return "interactive";
    case TaskClass::kBatch:
      return "batch";
    case TaskClass::kBackground:
      return "background";
  }
  return "unknown";
}

// Earliest deadline first; deadline-free tasks sort after all deadlined
// ones; ties break FIFO by submit sequence. std::push_heap keeps the
// "best" task at front under this ordering.
bool Scheduler::Worse(const Task& a, const Task& b) {
  auto key = [](const Task& t) {
    return t.has_deadline ? t.deadline
                          : std::chrono::steady_clock::time_point::max();
  };
  auto ka = key(a);
  auto kb = key(b);
  if (ka != kb) return ka > kb;
  return a.seq > b.seq;
}

namespace {

// Metric names are fixed per (prefix, class); intern them once so the hot
// path does no string concatenation.
const std::string& ClassMetricName(const char* prefix, int ci) {
  static std::mutex mu;
  static std::map<std::pair<std::string, int>, std::string>* names =
      new std::map<std::pair<std::string, int>, std::string>();
  std::lock_guard<std::mutex> lock(mu);
  auto key = std::make_pair(std::string(prefix), ci);
  auto it = names->find(key);
  if (it == names->end()) {
    it = names
             ->emplace(key, std::string("sched.") + prefix + "." +
                                TaskClassName(static_cast<TaskClass>(ci)))
             .first;
  }
  return it->second;
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions options) : options_(options) {
  int n = options_.num_threads;
  if (n <= 0) {
    // Oversubscribed on purpose: tasks in this codebase mostly sleep on
    // simulated I/O, so workers spend their time blocked, not computing.
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    n = std::clamp(2 * std::max(hw, 1), 8, 32);
  }
  num_threads_ = n;
  double share = std::clamp(options_.non_interactive_share, 0.0, 1.0);
  max_non_interactive_running_ =
      std::clamp(static_cast<int>(std::lround(n * share)), 1, n);
  max_background_running_ = std::max(1, max_non_interactive_running_ / 2);
  pool_ = std::make_unique<ThreadPool>(n);
  for (int i = 0; i < n; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  pool_->Shutdown();
}

bool Scheduler::OnWorkerThread() const { return tls_worker_of == this; }

Status Scheduler::Submit(TaskClass cls, std::function<void()> fn,
                         const ExecContext& ctx, SubmitOptions opts) {
  const int ci = static_cast<int>(cls);
  Task t;
  t.fn = std::move(fn);
  t.ctx = ctx;
  t.name = std::move(opts.name);
  t.cls = cls;
  t.skip_if_cancelled = opts.skip_if_cancelled;
  t.own_span = opts.own_span;
  t.session_id = opts.session_id;
  t.nested = OnWorkerThread();
  t.enqueued = std::chrono::steady_clock::now();
  if (options_.prioritize && ctx.has_deadline()) {
    t.has_deadline = true;
    t.deadline = ctx.deadline();
  }

  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return FailedPrecondition("scheduler is shut down");
    }
    // Without priorities everything shares one FIFO (queue 0) whose
    // capacity is the sum of the per-class bounds.
    const int qi = options_.prioritize ? ci : 0;
    int64_t capacity;
    if (options_.prioritize) {
      capacity = cls == TaskClass::kInteractive ? options_.max_queued_interactive
                 : cls == TaskClass::kBatch     ? options_.max_queued_batch
                                                : options_.max_queued_background;
    } else {
      capacity = static_cast<int64_t>(options_.max_queued_interactive) +
                 options_.max_queued_batch + options_.max_queued_background;
    }
    std::vector<Task>& q = queues_[qi];
    if (static_cast<int64_t>(q.size()) >= capacity) {
      ++shed_[ci];
      if (GlobalMetricsSink* sink = GetGlobalMetricsSink(); sink != nullptr) {
        sink->Add(ClassMetricName("shed", ci), 1);
      }
      return ResourceExhausted(std::string("scheduler ") +
                               TaskClassName(cls) +
                               " queue is full (admission control)");
    }
    // Per-session fair admission: one session may only occupy a bounded
    // slice of the queues, so a hot session's flood sheds its own work.
    if (t.session_id != 0 && options_.max_queued_per_session > 0) {
      int64_t& queued = session_queued_[t.session_id];
      if (queued >= options_.max_queued_per_session) {
        ++shed_[ci];
        ++session_shed_;
        if (GlobalMetricsSink* sink = GetGlobalMetricsSink();
            sink != nullptr) {
          sink->Add(ClassMetricName("shed", ci), 1);
          static const std::string* kSessionShed =
              new std::string("sched.session_shed");
          sink->Add(*kSessionShed, 1);
        }
        return ResourceExhausted(
            "scheduler per-session queue cap reached for session " +
            std::to_string(t.session_id));
      }
      ++queued;
    }
    t.seq = next_seq_++;
    q.push_back(std::move(t));
    std::push_heap(q.begin(), q.end(), Worse);
    ++submitted_[ci];
    depth = q.size();
  }
  if (GlobalMetricsSink* sink = GetGlobalMetricsSink(); sink != nullptr) {
    sink->Add(ClassMetricName("submitted", ci), 1);
  }
  PublishDepthGauge(cls, depth);
  work_cv_.notify_one();
  return OkStatus();
}

int64_t Scheduler::TotalQueuedLocked() const {
  int64_t total = 0;
  for (const std::vector<Task>& q : queues_) {
    total += static_cast<int64_t>(q.size());
  }
  return total;
}

bool Scheduler::PickTaskLocked(Task* out) {
  auto pop = [&](std::vector<Task>& q) {
    std::pop_heap(q.begin(), q.end(), Worse);
    *out = std::move(q.back());
    q.pop_back();
  };
  // A dequeued task stops counting against its session's queue slice.
  auto release_session = [&] {
    if (out->session_id == 0) return;
    auto it = session_queued_.find(out->session_id);
    if (it != session_queued_.end() && --it->second <= 0) {
      session_queued_.erase(it);
    }
  };

  if (!options_.prioritize) {
    std::vector<Task>& q = queues_[0];
    if (q.empty()) return false;
    pop(q);
    release_session();
    ++dispatches_;
    return true;
  }

  const bool boost =
      options_.starvation_boost_period > 0 &&
      (dispatches_ % options_.starvation_boost_period) ==
          static_cast<uint64_t>(options_.starvation_boost_period) - 1;
  static constexpr TaskClass kHighFirst[] = {
      TaskClass::kInteractive, TaskClass::kBatch, TaskClass::kBackground};
  static constexpr TaskClass kLowFirst[] = {
      TaskClass::kBackground, TaskClass::kBatch, TaskClass::kInteractive};
  for (TaskClass c : boost ? kLowFirst : kHighFirst) {
    std::vector<Task>& q = queues_[static_cast<int>(c)];
    if (q.empty()) continue;
    // Class caps keep reserve workers for interactive arrivals. Nested
    // tasks (spawned from inside a worker) bypass the caps: their parent
    // already holds a slot and may be blocked waiting on them.
    const bool capped =
        c != TaskClass::kInteractive &&
        (running_non_interactive_ >= max_non_interactive_running_ ||
         (c == TaskClass::kBackground &&
          running_background_ >= max_background_running_));
    if (!capped) {
      pop(q);
    } else if (!PopNestedLocked(q, out)) {
      continue;  // capped and no nested task anywhere in the class
    }
    release_session();
    ++dispatches_;
    if (c != TaskClass::kInteractive) {
      ++running_non_interactive_;
      if (c == TaskClass::kBackground) ++running_background_;
    }
    return true;
  }
  return false;
}

bool Scheduler::PopNestedLocked(std::vector<Task>& q, Task* out) {
  // The cap-bypassing nested task may sit anywhere in the heap behind
  // non-nested tasks — a front-only check would skip the class while a
  // capped parent blocks on its buried child (permanent deadlock). Scan
  // for the best nested task by dispatch order; this path only runs when
  // the class is capped, so the O(n) scan + re-heapify is off the common
  // dispatch path.
  int best = -1;
  for (int i = 0; i < static_cast<int>(q.size()); ++i) {
    if (q[i].nested && (best < 0 || Worse(q[best], q[i]))) best = i;
  }
  if (best < 0) return false;
  *out = std::move(q[best]);
  q[best] = std::move(q.back());
  q.pop_back();
  std::make_heap(q.begin(), q.end(), Worse);
  return true;
}

void Scheduler::PublishDepthGauge(TaskClass cls, size_t depth) const {
  GlobalMetricsSink* sink = GetGlobalMetricsSink();
  if (sink == nullptr) return;
  if (options_.prioritize) {
    sink->SetGauge(ClassMetricName("queue_depth", static_cast<int>(cls)),
                   static_cast<double>(depth));
  } else {
    // One undifferentiated FIFO: publishing it under a class name (the
    // shared queue holds every class) would misreport the baseline.
    static const std::string* kShared =
        new std::string("sched.queue_depth.shared");
    sink->SetGauge(*kShared, static_cast<double>(depth));
  }
}

void Scheduler::RunTask(Task task) {
  const int ci = static_cast<int>(task.cls);
  GlobalMetricsSink* sink = GetGlobalMetricsSink();
  auto started = std::chrono::steady_clock::now();
  auto wait = started - task.enqueued;
  if (sink != nullptr) {
    double wait_us = std::chrono::duration<double, std::micro>(wait).count();
    sink->Observe(ClassMetricName("wait_us", ci), wait_us);
  }
  // Charge the queue wait to the owning request's per-class detail phase.
  // Detail phases are additive (a request's tasks wait concurrently on
  // many workers), so this is a plain Add, not a PhaseScope.
  if (PhaseTimeline* tl = task.ctx.timeline()) {
    static constexpr Phase kQueuePhase[] = {
        Phase::kQueueInteractive, Phase::kQueueBatch, Phase::kQueueBackground};
    if (ci >= 0 && ci < 3) {
      tl->Add(kQueuePhase[ci],
              std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                  .count());
    }
  }

  if (task.skip_if_cancelled && task.ctx.cancelled()) {
    if (sink != nullptr) sink->Add(ClassMetricName("skipped_cancelled", ci), 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++skipped_cancelled_[ci];
      ++completed_[ci];
    }
    completed_cv_.notify_all();
    return;
  }

  if (task.own_span) {
    task.fn();
  } else {
    ScopedSpan span(task.ctx.StartSpan(
        "sched:" + (task.name.empty() ? TaskClassName(task.cls) : task.name)));
    task.fn();
  }

  if (sink != nullptr) {
    double run_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - started)
                        .count();
    sink->Observe(ClassMetricName("run_us", ci), run_us);
    sink->Add(ClassMetricName("completed", ci), 1);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_[ci];
  }
  completed_cv_.notify_all();
}

void Scheduler::WorkerLoop() {
  const Scheduler* saved = tls_worker_of;
  tls_worker_of = this;
  while (true) {
    Task task;
    size_t depth = 0;
    TaskClass depth_cls = TaskClass::kInteractive;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this] { return stop_ || TotalQueuedLocked() > 0; });
      if (TotalQueuedLocked() == 0) {
        if (stop_) break;
        continue;
      }
      if (!PickTaskLocked(&task)) {
        // Everything queued is capped; wake when capacity frees (or poll,
        // against missed wakeups).
        work_cv_.wait_for(lock, std::chrono::milliseconds(2));
        continue;
      }
      depth_cls = task.cls;
      depth = queues_[options_.prioritize ? static_cast<int>(task.cls) : 0]
                  .size();
    }
    PublishDepthGauge(depth_cls, depth);
    const TaskClass cls = task.cls;
    RunTask(std::move(task));
    if (options_.prioritize && cls != TaskClass::kInteractive) {
      std::lock_guard<std::mutex> lock(mu_);
      --running_non_interactive_;
      if (cls == TaskClass::kBackground) --running_background_;
    }
    // A completion may unblock a capped class or a Wait()ing joiner.
    work_cv_.notify_one();
  }
  tls_worker_of = saved;
}

int64_t Scheduler::queue_depth(TaskClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int qi = options_.prioritize ? static_cast<int>(cls) : 0;
  return static_cast<int64_t>(queues_[qi].size());
}

int64_t Scheduler::submitted(TaskClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_[static_cast<int>(cls)];
}

int64_t Scheduler::completed(TaskClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_[static_cast<int>(cls)];
}

int64_t Scheduler::shed(TaskClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_[static_cast<int>(cls)];
}

int64_t Scheduler::skipped_cancelled(TaskClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return skipped_cancelled_[static_cast<int>(cls)];
}

int64_t Scheduler::session_shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_shed_;
}

int64_t Scheduler::session_queued(uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = session_queued_.find(session_id);
  return it == session_queued_.end() ? 0 : it->second;
}

bool Scheduler::WaitForCompleted(TaskClass cls, int64_t n,
                                 std::chrono::milliseconds timeout) {
  const int ci = static_cast<int>(cls);
  std::unique_lock<std::mutex> lock(mu_);
  return completed_cv_.wait_for(lock, timeout,
                                [&] { return completed_[ci] >= n; });
}

Scheduler& Scheduler::Global() {
  // Leaked, like obs::GlobalMetrics(): worker threads must stay valid for
  // any static-destruction-order stragglers.
  static Scheduler* global = new Scheduler();
  return *global;
}

// --- TaskGroup ---

TaskGroup::TaskGroup(Scheduler* scheduler, TaskClass cls,
                     const ExecContext& ctx, int max_concurrency,
                     uint64_t session_id)
    : state_(std::make_shared<State>()) {
  state_->scheduler = scheduler;
  state_->cls = cls;
  state_->ctx = ctx;
  state_->max_concurrency = max_concurrency;
  state_->session_id = session_id;
}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Spawn(std::function<void()> fn, std::string name) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->pending.push_back(Pending{std::move(fn), std::move(name)});
    ++state_->outstanding;
    ++state_->spawned;
  }
  Pump(state_, 0);
}

void TaskGroup::RunClaimed(const std::shared_ptr<State>& s,
                           const std::shared_ptr<Submitted>& task) {
  {
    // One span per task, opened by whichever thread claimed it, so a
    // trace's structure does not depend on who ran the task.
    ScopedSpan span(s->ctx.StartSpan(
        "sched:" + (task->name.empty() ? TaskClassName(s->cls) : task->name)));
    task->fn();
  }
  {
    std::lock_guard<std::mutex> lock(s->mu);
    --s->in_flight;
  }
  Pump(s, 1);  // applies this task's completion on its exit path
}

bool TaskGroup::RunOneLocked(const std::shared_ptr<State>& s,
                             std::unique_lock<std::mutex>& lock) {
  while (!s->submitted.empty()) {
    std::shared_ptr<Submitted> task = std::move(s->submitted.front());
    s->submitted.pop_front();
    if (task->claimed.exchange(true, std::memory_order_acq_rel)) continue;
    ++s->stolen;
    lock.unlock();
    RunClaimed(s, task);
    lock.lock();
    return true;
  }
  return false;
}

bool TaskGroup::RunOne() {
  std::unique_lock<std::mutex> lock(state_->mu);
  return RunOneLocked(state_, lock);
}

void TaskGroup::Drain(const std::shared_ptr<State>& s, bool help,
                      const std::function<bool()>& done) {
  std::unique_lock<std::mutex> lock(s->mu);
  while (s->outstanding > 0 && !(done && done())) {
    if (help && RunOneLocked(s, lock)) continue;
    s->done_cv.wait(lock);
  }
}

void TaskGroup::RunUntil(const std::function<bool()>& done) {
  Drain(state_, /*help=*/true, done);
}

void TaskGroup::Pump(const std::shared_ptr<State>& s, int64_t finished) {
  while (true) {
    std::shared_ptr<Submitted> task;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      // Trim wrappers that already dispatched (or were stolen) so the
      // claimable list tracks in-flight work, not group history.
      while (!s->submitted.empty() &&
             s->submitted.front()->claimed.load(std::memory_order_acquire)) {
        s->submitted.pop_front();
      }
      if (s->pending.empty() ||
          (s->max_concurrency > 0 && s->in_flight >= s->max_concurrency)) {
        // Completions are applied (and waiters notified) as this call's
        // last touch of the counters, so Wait() cannot observe
        // outstanding == 0 while a finishing task is mid-bookkeeping.
        s->outstanding -= finished;
        if (finished > 0) s->done_cv.notify_all();
        return;
      }
      task = std::make_shared<Submitted>();
      task->fn = std::move(s->pending.front().fn);
      task->name = std::move(s->pending.front().name);
      s->pending.pop_front();
      ++s->in_flight;
      s->submitted.push_back(task);
      // A new claimable task exists: wake any caller parked in a join.
      s->done_cv.notify_all();
    }
    // The claim flag picks exactly one runner for the task: the
    // dispatched wrapper, a waiter that claimed it, or (on a failed
    // submit) this pumping thread. The wrapper captures the shared state,
    // so a wrapper that loses its claim no-ops safely even after the
    // TaskGroup object itself is gone.
    Status submitted = s->scheduler->Submit(
        s->cls,
        [s, task] {
          if (task->claimed.exchange(true, std::memory_order_acq_rel)) return;
          RunClaimed(s, task);
        },
        s->ctx,
        SubmitOptions{.name = task->name,
                      .session_id = s->session_id,
                      .own_span = true});
    if (!submitted.ok()) {
      // Load shed (admission control) or shutdown: run inline on the
      // spawning/pumping thread — the group never loses work. The
      // completion is deferred into `finished` so it, too, is applied
      // only on the exit path.
      if (!task->claimed.exchange(true, std::memory_order_acq_rel)) {
        task->fn();
        {
          std::lock_guard<std::mutex> lock(s->mu);
          ++s->ran_inline;
          --s->in_flight;
        }
        ++finished;
      }
    }
  }
}

void TaskGroup::Wait() {
  // A worker parked here would hold a worker slot while the group's queued
  // tasks wait for a worker — circular under saturation — so it helps.
  Drain(state_, state_->scheduler->OnWorkerThread(), {});
}

int64_t TaskGroup::spawned() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->spawned;
}

int64_t TaskGroup::ran_inline() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->ran_inline;
}

int64_t TaskGroup::stolen() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stolen;
}

void ForkJoin(Scheduler* scheduler, TaskClass cls, const ExecContext& ctx,
              int n, const std::function<void(int)>& fn,
              const std::string& name, bool serial) {
  if (serial || n <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(scheduler, cls, ctx);
  for (int i = 0; i < n; ++i) {
    group.Spawn([&fn, i] { fn(i); }, name);
  }
  group.RunUntil();
}

}  // namespace vizq
