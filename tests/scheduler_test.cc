// Scheduler tests: priority dispatch order, deadline (EDF) ordering
// inside a class, admission control, shutdown semantics, TaskGroup join /
// concurrency bounding / inline fallback, anti-starvation under sustained
// interactive load, skip-if-cancelled, nested-spawn cap bypass, metrics
// presence, and a mixed-class stress loop meant to run under TSan.
//
// Single-core host note: tasks sleep (simulated I/O) instead of spinning,
// so ordering and starvation assertions hold even when every worker
// timeslices on one CPU.

#include "src/common/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace vizq {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Holds the scheduler's only worker busy until Release(), so tests can
// stage a queue and observe the dispatch order.
class WorkerGate {
 public:
  explicit WorkerGate(Scheduler* sched) {
    Status s = sched->Submit(TaskClass::kInteractive, [this] {
      std::unique_lock<std::mutex> lock(mu_);
      running_ = true;
      running_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    });
    EXPECT_TRUE(s.ok()) << s.ToString();  // ASSERT illegal in a ctor
    std::unique_lock<std::mutex> lock(mu_);
    running_cv_.wait(lock, [this] { return running_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable running_cv_, release_cv_;
  bool running_ = false;
  bool released_ = false;
};

TEST(SchedulerTest, RunsSubmittedTasks) {
  SchedulerOptions opts;
  opts.num_threads = 4;
  Scheduler sched(opts);
  std::atomic<int> ran{0};
  TaskGroup group(&sched, TaskClass::kInteractive);
  for (int i = 0; i < 32; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(group.spawned(), 32);
  // Wait() returns when the last task *body* finishes; the scheduler
  // bumps its completed counter just after. WaitForCompleted blocks on
  // the scheduler's own completion CV — no wall-clock polling.
  const int64_t want = 32 - group.ran_inline();
  EXPECT_TRUE(sched.WaitForCompleted(TaskClass::kInteractive, want,
                                     std::chrono::seconds(10)));
  EXPECT_GE(sched.completed(TaskClass::kInteractive), want);
}

TEST(SchedulerTest, PriorityClassesDispatchHighestFirst) {
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.starvation_boost_period = 0;  // pure priority for this test
  Scheduler sched(opts);
  WorkerGate gate(&sched);

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const char* label) {
    return [&order, &mu, label] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(label);
    };
  };
  // Submitted lowest class first: FIFO would run "background" first,
  // priority dispatch must not.
  ASSERT_TRUE(sched.Submit(TaskClass::kBackground, record("background")).ok());
  ASSERT_TRUE(sched.Submit(TaskClass::kBatch, record("batch")).ok());
  ASSERT_TRUE(sched.Submit(TaskClass::kInteractive, record("interactive")).ok());

  gate.Release();
  TaskGroup drain(&sched, TaskClass::kBackground);
  drain.Spawn([] {});
  drain.Wait();  // background is the lowest class: it runs last

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "interactive");
  EXPECT_EQ(order[1], "batch");
  EXPECT_EQ(order[2], "background");
}

TEST(SchedulerTest, DeadlineOrdersWithinClass) {
  SchedulerOptions opts;
  opts.num_threads = 1;
  Scheduler sched(opts);
  WorkerGate gate(&sched);

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const char* label) {
    return [&order, &mu, label] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(label);
    };
  };
  ExecContext loose = ExecContext::WithDeadlineMs(60000);
  ExecContext tight = ExecContext::WithDeadlineMs(30000);
  // Submit in the order none, loose, tight: EDF must invert it.
  ASSERT_TRUE(sched.Submit(TaskClass::kInteractive, record("none")).ok());
  ASSERT_TRUE(
      sched.Submit(TaskClass::kInteractive, record("loose"), loose).ok());
  ASSERT_TRUE(
      sched.Submit(TaskClass::kInteractive, record("tight"), tight).ok());

  gate.Release();
  TaskGroup drain(&sched, TaskClass::kBackground);
  drain.Spawn([] {});
  drain.Wait();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "tight");
  EXPECT_EQ(order[1], "loose");
  EXPECT_EQ(order[2], "none");  // deadline-free tasks sort after deadlined
}

TEST(SchedulerTest, AdmissionControlShedsWithTypedError) {
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.max_queued_background = 2;
  Scheduler sched(opts);
  WorkerGate gate(&sched);

  EXPECT_TRUE(sched.Submit(TaskClass::kBackground, [] {}).ok());
  EXPECT_TRUE(sched.Submit(TaskClass::kBackground, [] {}).ok());
  Status shed = sched.Submit(TaskClass::kBackground, [] {});
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(sched.shed(TaskClass::kBackground), 1);
  // Other classes are unaffected by the full background queue.
  EXPECT_TRUE(sched.Submit(TaskClass::kInteractive, [] {}).ok());
  gate.Release();
}

TEST(SchedulerTest, SubmitAfterShutdownFailsCleanly) {
  Scheduler sched(SchedulerOptions{.num_threads = 2});
  std::atomic<int> ran{0};
  ASSERT_TRUE(
      sched.Submit(TaskClass::kInteractive, [&ran] { ran.fetch_add(1); }).ok());
  sched.Shutdown();
  EXPECT_EQ(ran.load(), 1);  // Shutdown completes queued work first
  Status late = sched.Submit(TaskClass::kInteractive, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ran.load(), 1);
}

TEST(SchedulerTest, TaskGroupBoundsConcurrency) {
  SchedulerOptions opts;
  opts.num_threads = 8;
  Scheduler sched(opts);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  TaskGroup group(&sched, TaskClass::kBatch, ExecContext::Background(),
                  /*max_concurrency=*/2);
  for (int i = 0; i < 10; ++i) {
    group.Spawn([&] {
      int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      SleepMs(2);
      running.fetch_sub(1);
    });
  }
  group.Wait();
  EXPECT_EQ(group.spawned(), 10);
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST(SchedulerTest, TaskGroupRunsInlineAfterShutdown) {
  Scheduler sched(SchedulerOptions{.num_threads = 1});
  sched.Shutdown();
  std::atomic<int> ran{0};
  TaskGroup group(&sched, TaskClass::kInteractive);
  for (int i = 0; i < 4; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 4);  // work is never lost
  EXPECT_EQ(group.ran_inline(), 4);
}

TEST(SchedulerTest, TaskGroupRunsInlineWhenShed) {
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.max_queued_batch = 1;
  Scheduler sched(opts);
  WorkerGate gate(&sched);

  std::atomic<int> ran{0};
  TaskGroup group(&sched, TaskClass::kBatch);
  for (int i = 0; i < 4; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1); });
  }
  // Queue capacity 1: at least the overflow spawns ran inline already.
  EXPECT_GE(group.ran_inline(), 3);
  gate.Release();
  group.Wait();
  EXPECT_EQ(ran.load(), 4);
}

TEST(SchedulerTest, BackgroundIsNotStarvedByInteractiveFlood) {
  SchedulerOptions opts;
  opts.num_threads = 2;
  opts.starvation_boost_period = 4;
  Scheduler sched(opts);

  constexpr int kInteractive = 120;
  std::atomic<int> interactive_done{0};
  std::atomic<int> interactive_done_when_bg_ran{-1};
  std::mutex mu;
  std::condition_variable cv;
  bool bg_ran = false;

  TaskGroup flood(&sched, TaskClass::kInteractive);
  for (int i = 0; i < kInteractive; ++i) {
    flood.Spawn([&] {
      SleepMs(1);  // simulated I/O: keeps both workers persistently busy
      interactive_done.fetch_add(1);
    });
  }
  ASSERT_TRUE(sched
                  .Submit(TaskClass::kBackground,
                          [&] {
                            interactive_done_when_bg_ran.store(
                                interactive_done.load());
                            std::lock_guard<std::mutex> lock(mu);
                            bg_ran = true;
                            cv.notify_all();
                          })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return bg_ran; });
  }
  flood.Wait();
  // The starvation boost must let the background task through while the
  // interactive flood is still in progress, not after it drains.
  EXPECT_GE(interactive_done_when_bg_ran.load(), 0);
  EXPECT_LT(interactive_done_when_bg_ran.load(), kInteractive);
}

TEST(SchedulerTest, SkipIfCancelledDropsTask) {
  Scheduler sched(SchedulerOptions{.num_threads = 1});
  WorkerGate gate(&sched);

  ExecContext ctx;
  ctx.Cancel();
  std::atomic<int> ran{0};
  SubmitOptions sopts;
  sopts.skip_if_cancelled = true;
  ASSERT_TRUE(sched
                  .Submit(TaskClass::kBackground, [&ran] { ran.fetch_add(1); },
                          ctx, sopts)
                  .ok());
  gate.Release();
  TaskGroup drain(&sched, TaskClass::kBackground);
  drain.Spawn([] {});
  drain.Wait();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(sched.skipped_cancelled(TaskClass::kBackground), 1);
}

TEST(SchedulerTest, NestedSpawnBypassesClassCaps) {
  // Two workers, background cap = 1: the parent occupies the only
  // background slot, so its child could never dispatch on the free
  // worker unless nested tasks bypass the class caps — the parent,
  // blocked in child.Wait(), would deadlock the group.
  SchedulerOptions opts;
  opts.num_threads = 2;
  Scheduler sched(opts);

  std::atomic<bool> child_ran{false};
  TaskGroup parent(&sched, TaskClass::kBackground);
  parent.Spawn([&] {
    TaskGroup child(&sched, TaskClass::kBackground);
    child.Spawn([&] { child_ran.store(true); });
    child.Wait();
  });
  parent.Wait();
  EXPECT_TRUE(child_ran.load());
}

// Regression: the cap bypass must find a nested task anywhere in the
// class queue, not only at the heap front. A non-nested task with an
// earlier sequence number sits at the front of the capped background
// queue; the nested child queued behind it must still dispatch, or its
// parent (holding the only background slot) deadlocks the class.
TEST(SchedulerTest, NestedTaskBehindCappedNonNestedDispatches) {
  SchedulerOptions opts;
  opts.num_threads = 2;  // background cap resolves to 1
  opts.starvation_boost_period = 0;
  Scheduler sched(opts);

  std::mutex mu;
  std::condition_variable cv;
  bool parent_running = false;
  bool decoy_queued = false;
  bool child_done = false;
  bool parent_done = false;
  // The assertion target: the child must dispatch while the parent still
  // holds the background slot — a late run after the parent gives up
  // (freeing the slot) is exactly the deadlock being tested for.
  bool child_ran_while_parent_blocked = false;

  ASSERT_TRUE(
      sched
          .Submit(TaskClass::kBackground,
                  [&] {
                    {
                      std::unique_lock<std::mutex> lock(mu);
                      parent_running = true;
                      cv.notify_all();
                      cv.wait(lock, [&] { return decoy_queued; });
                    }
                    // Submitted from a worker: nested. It lands behind
                    // the decoy in the FIFO heap.
                    Status child =
                        sched.Submit(TaskClass::kBackground, [&] {
                          std::lock_guard<std::mutex> lock(mu);
                          child_done = true;
                          cv.notify_all();
                        });
                    EXPECT_TRUE(child.ok()) << child.ToString();
                    std::unique_lock<std::mutex> lock(mu);
                    child_ran_while_parent_blocked =
                        cv.wait_for(lock, std::chrono::seconds(5),
                                    [&] { return child_done; });
                    parent_done = true;
                    cv.notify_all();
                  })
          .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parent_running; });
  }
  // Non-nested decoy: earlier seq than the child, undispatchable while
  // the parent holds the background slot.
  ASSERT_TRUE(sched.Submit(TaskClass::kBackground, [] {}).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    decoy_queued = true;
    cv.notify_all();
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return parent_done; }));
  EXPECT_TRUE(child_ran_while_parent_blocked);
}

// Regression: Wait() on a scheduler worker must help drain the group
// instead of parking. With a single worker stuck inside the outer task,
// the inner group's tasks are queued with no worker left to dispatch
// them — the waiting worker has to claim and run them itself.
TEST(SchedulerTest, WaitOnWorkerHelpsDrainQueuedGroupTasks) {
  Scheduler sched(SchedulerOptions{.num_threads = 1});
  std::atomic<int> ran{0};
  TaskGroup outer(&sched, TaskClass::kInteractive);
  outer.Spawn([&] {
    TaskGroup inner(&sched, TaskClass::kInteractive);
    for (int i = 0; i < 4; ++i) inner.Spawn([&ran] { ran.fetch_add(1); });
    inner.Wait();
    EXPECT_EQ(inner.stolen(), 4);
  });
  outer.Wait();
  EXPECT_EQ(ran.load(), 4);
}

TEST(SchedulerTest, RunOneRunsQueuedTasksOnTheCaller) {
  Scheduler sched(SchedulerOptions{.num_threads = 1});
  WorkerGate gate(&sched);
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  TaskGroup group(&sched, TaskClass::kInteractive);
  for (int i = 0; i < 3; ++i) {
    group.Spawn([&] {
      std::lock_guard<std::mutex> lock(mu);
      ran_on.push_back(std::this_thread::get_id());
    });
  }
  EXPECT_TRUE(group.RunOne());
  EXPECT_TRUE(group.RunOne());
  EXPECT_TRUE(group.RunOne());
  EXPECT_FALSE(group.RunOne());  // nothing of the group is queued
  EXPECT_EQ(group.stolen(), 3);
  ASSERT_EQ(ran_on.size(), 3u);
  for (std::thread::id id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
  group.Wait();
  gate.Release();
}

// Regression for the circular wait between node cpu slots and workers: a
// thread that is not a worker holds a slot every worker is parked on and
// joins a fan-out of its own. The group's tasks can never get a worker, so
// the join must run them on the joining thread.
TEST(SchedulerTest, JoinerHoldingWhatEveryWorkerWaitsOnCompletes) {
  constexpr int kWorkers = 2;
  // Declared before the scheduler, whose destructor joins the workers
  // still waking up on them.
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool slot_free = false;
  bool joined = false;
  Scheduler sched(SchedulerOptions{.num_threads = kWorkers});
  for (int w = 0; w < kWorkers; ++w) {
    ASSERT_TRUE(sched
                    .Submit(TaskClass::kInteractive,
                            [&] {
                              std::unique_lock<std::mutex> lock(mu);
                              ++parked;
                              cv.notify_all();
                              cv.wait(lock, [&] { return slot_free; });
                            })
                    .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == kWorkers; });
  }
  std::atomic<int> ran{0};
  std::thread holder([&] {
    ForkJoin(&sched, TaskClass::kInteractive, ExecContext::Background(), 4,
             [&ran](int) { ran.fetch_add(1); }, "slot-holder-fanout");
    std::lock_guard<std::mutex> lock(mu);
    joined = true;
    cv.notify_all();
  });
  bool completed;
  {
    std::unique_lock<std::mutex> lock(mu);
    completed =
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return joined; });
    slot_free = true;  // frees the workers either way, so the test ends
  }
  cv.notify_all();
  holder.join();
  EXPECT_TRUE(completed) << "the slot holder parked on its own fan-out";
  EXPECT_EQ(ran.load(), 4);
}

TEST(SchedulerTest, NonPrioritizedModePublishesSharedDepthGauge) {
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.prioritize = false;
  Scheduler sched(opts);
  WorkerGate gate(&sched);
  // The shared queue holds every class; publishing it as "interactive"
  // would misreport the baseline configuration benches compare against.
  ASSERT_TRUE(sched.Submit(TaskClass::kBatch, [] {}).ok());
  obs::MetricsSnapshot snap = metrics.TakeSnapshot();
  EXPECT_TRUE(snap.gauges.count("sched.queue_depth.shared"));
  gate.Release();
}

TEST(SchedulerTest, NonPrioritizedModeIsPureFifo) {
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.prioritize = false;
  Scheduler sched(opts);
  WorkerGate gate(&sched);

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const char* label) {
    return [&order, &mu, label] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(label);
    };
  };
  ASSERT_TRUE(sched.Submit(TaskClass::kBackground, record("first")).ok());
  ASSERT_TRUE(sched.Submit(TaskClass::kInteractive, record("second")).ok());
  gate.Release();
  TaskGroup drain(&sched, TaskClass::kBatch);
  drain.Spawn([] {});
  drain.Wait();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first");  // submission order, class ignored
  EXPECT_EQ(order[1], "second");
}

TEST(SchedulerTest, SchedulerMetricsLandInGlobalRegistry) {
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  int64_t before =
      metrics.TakeSnapshot().counters.count("sched.submitted.interactive") > 0
          ? metrics.TakeSnapshot().counters.at("sched.submitted.interactive")
          : 0;
  Scheduler sched(SchedulerOptions{.num_threads = 2});
  TaskGroup group(&sched, TaskClass::kInteractive);
  for (int i = 0; i < 8; ++i) group.Spawn([] { SleepMs(1); });
  group.Wait();

  obs::MetricsSnapshot snap = metrics.TakeSnapshot();
  ASSERT_TRUE(snap.counters.count("sched.submitted.interactive"));
  EXPECT_GE(snap.counters.at("sched.submitted.interactive"), before + 1);
  bool has_wait = false;
  bool has_run = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "sched.wait_us.interactive") has_wait = true;
    if (h.name == "sched.run_us.interactive") has_run = true;
  }
  EXPECT_TRUE(has_wait);
  EXPECT_TRUE(has_run);
  ASSERT_TRUE(snap.gauges.count("sched.queue_depth.interactive"));
}

// Mixed-class stress: concurrent submitters, task groups, cancellation,
// and an admission-sized queue. No ordering asserts — the point is that
// TSan sees the whole surface racing and the counts still reconcile.
TEST(SchedulerStressTest, MixedClassSubmitCancelJoin) {
  SchedulerOptions opts;
  opts.num_threads = 4;
  opts.max_queued_interactive = 64;
  opts.max_queued_batch = 64;
  opts.max_queued_background = 32;
  opts.starvation_boost_period = 4;
  Scheduler sched(opts);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 50;
  std::atomic<int64_t> executed{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      ExecContext cancellable;
      TaskGroup group(&sched,
                      static_cast<TaskClass>(s % kNumTaskClasses),
                      cancellable);
      for (int i = 0; i < kPerSubmitter; ++i) {
        group.Spawn([&executed] { executed.fetch_add(1); });
        if (i == kPerSubmitter / 2) cancellable.Cancel();
        // Fire-and-forget submissions race with the group's (shed is fine).
        SubmitOptions sopts;
        sopts.skip_if_cancelled = true;
        (void)sched.Submit(
            static_cast<TaskClass>((s + i) % kNumTaskClasses),
            [&executed] { executed.fetch_add(1); }, cancellable, sopts);
      }
      group.Wait();
    });
  }
  for (std::thread& t : submitters) t.join();
  // Every group task executed (groups never lose work).
  EXPECT_GE(executed.load(), kSubmitters * kPerSubmitter);
  sched.Shutdown();
  int64_t completed = 0;
  int64_t skipped = 0;
  for (int c = 0; c < kNumTaskClasses; ++c) {
    completed += sched.completed(static_cast<TaskClass>(c));
    skipped += sched.skipped_cancelled(static_cast<TaskClass>(c));
    EXPECT_EQ(sched.queue_depth(static_cast<TaskClass>(c)), 0);
  }
  EXPECT_GE(completed, skipped);
}

}  // namespace
}  // namespace vizq
