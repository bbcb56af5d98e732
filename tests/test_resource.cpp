#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/des/resource.hpp"

namespace l2s::des {
namespace {

TEST(Resource, ServesFifo) {
  Scheduler s;
  Resource r(s, "cpu");
  std::vector<int> order;
  r.submit(10, [&] { order.push_back(1); });
  r.submit(10, [&] { order.push_back(2); });
  r.submit(10, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Resource, QueueingDelaysLaterJobs) {
  Scheduler s;
  Resource r(s, "disk");
  SimTime first = 0;
  SimTime second = 0;
  r.submit(100, [&] { first = s.now(); });
  r.submit(100, [&] { second = s.now(); });
  s.run();
  EXPECT_EQ(first, 100);
  EXPECT_EQ(second, 200);
}

TEST(Resource, TracksBusyTimeAndJobs) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(30, [] {});
  r.submit(20, [] {});
  s.run();
  EXPECT_EQ(r.busy_time(), 50);
  EXPECT_EQ(r.jobs_completed(), 2u);
}

TEST(Resource, UtilizationFraction) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(25, [] {});
  s.run();
  s.run_until(100);
  EXPECT_DOUBLE_EQ(r.utilization(100), 0.25);
  EXPECT_DOUBLE_EQ(r.utilization(0), 0.0);
}

TEST(Resource, IdleBetweenBursts) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(10, [] {});
  s.run();
  EXPECT_FALSE(r.busy());
  // A job submitted later starts immediately (no phantom queueing).
  s.run_until(100);
  SimTime done_at = 0;
  r.submit(5, [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, 105);
}

TEST(Resource, CompletionMayResubmit) {
  Scheduler s;
  Resource r(s, "x");
  int rounds = 0;
  std::function<void()> again = [&] {
    if (++rounds < 5) r.submit(10, again);
  };
  r.submit(10, again);
  s.run();
  EXPECT_EQ(rounds, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(Resource, ZeroServiceTimeJobs) {
  Scheduler s;
  Resource r(s, "x");
  int done = 0;
  r.submit(0, [&] { ++done; });
  r.submit(0, [&] { ++done; });
  s.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(s.now(), 0);
}

TEST(Resource, NegativeServiceRejected) {
  Scheduler s;
  Resource r(s, "x");
  EXPECT_THROW(r.submit(-1, [] {}), l2s::Error);
}

TEST(Resource, InvalidTypedJobRejected) {
  Scheduler s;
  Resource r(s, "x");
  Job no_fire;
  no_fire.service = 10;
  EXPECT_THROW(r.submit(&no_fire), l2s::Error);
  Job negative;
  negative.service = -1;
  negative.fire = [](Job*) {};
  EXPECT_THROW(r.submit(&negative), l2s::Error);
  EXPECT_FALSE(r.busy());
}

TEST(Resource, ResetStatsKeepsQueue) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(10, [] {});
  s.run();
  r.reset_stats();
  EXPECT_EQ(r.busy_time(), 0);
  EXPECT_EQ(r.jobs_completed(), 0u);
  r.submit(10, [] {});
  s.run();
  EXPECT_EQ(r.busy_time(), 10);
}

TEST(Resource, QueueLengthReflectsWaiters) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(10, [] {});
  r.submit(10, [] {});
  r.submit(10, [] {});
  // One in service, two waiting.
  EXPECT_TRUE(r.busy());
  EXPECT_EQ(r.queue_length(), 2u);
  s.run();
  EXPECT_EQ(r.queue_length(), 0u);
}

TEST(Resource, CompletionEventStaysInline) {
  // The job in service keeps its continuation in the resource, so the
  // completion event captures only `this` and never spills to the arena —
  // whether the job started on an idle server or waited in the queue.
  Scheduler s;
  Resource r(s, "cpu");
  std::vector<int> order;
  const EventArena::Stats before = EventArena::stats();
  r.submit(10, [&order] { order.push_back(1); });  // idle: starts at once
  r.submit(10, [&order] { order.push_back(2); });  // busy: queued
  r.submit(10, [&order] { order.push_back(3); });
  s.run();
  r.submit(5, [&order] { order.push_back(4); });  // idle again
  s.run();
  const EventArena::Stats after = EventArena::stats();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), 35);
  EXPECT_EQ(after.fresh_blocks, before.fresh_blocks);
  EXPECT_EQ(after.reused_blocks, before.reused_blocks);
}

// --- caller-owned jobs ------------------------------------------------------

/// A typed job that logs each run's completion time.
struct LoggedJob : Job {
  Scheduler* sched = nullptr;
  std::vector<SimTime> fired;
};

void log_fire(Job* job) {
  auto* j = static_cast<LoggedJob*>(job);
  j->fired.push_back(j->sched->now());
}

TEST(Resource, RepeatingJobRunsBackToBack) {
  Scheduler s;
  Resource r(s, "cpu");
  std::vector<int> order;
  r.submit(5, [&order] { order.push_back(0); });  // busy: the batch queues
  LoggedJob batch;
  batch.sched = &s;
  batch.service = 10;
  batch.fire = &log_fire;
  batch.repeat = 2;
  r.submit(&batch);
  r.submit(10, [&order] { order.push_back(1); });  // after every run of the batch
  // One job in service, three batch runs and one job waiting.
  EXPECT_EQ(r.queue_length(), 4u);
  s.run_until(15);
  EXPECT_EQ(batch.fired, (std::vector<SimTime>{15}));
  EXPECT_EQ(r.queue_length(), 2u);  // two batch runs left; one is in service
  s.run();
  EXPECT_EQ(batch.fired, (std::vector<SimTime>{15, 25, 35}));
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.now(), 45);
  EXPECT_EQ(r.jobs_completed(), 5u);
  EXPECT_EQ(r.busy_time(), 45);
  EXPECT_EQ(r.queue_length(), 0u);
}

TEST(Resource, CallableJobRecordsAreRecycled) {
  Scheduler s;
  Resource a(s, "a");
  Resource b(s, "b");
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      a.submit(10, [] {});
      b.submit(10, [] {});
    }
    s.run();
  }
  // Both resources draw from the scheduler's one pool: eight at a time.
  EXPECT_EQ(s.job_pool().size(), 8u);
}

// --- differential test against the deque-based resource --------------------

/// The FIFO resource as it was before its jobs became intrusive: a deque of
/// {service, callable} pairs, with the in-service job's callable held in a
/// member. It is the reference model for the differential test below.
class ReferenceResource {
 public:
  explicit ReferenceResource(Scheduler& sched) : sched_(sched) {}

  void submit(SimTime service, EventFn done) {
    if (busy_) {
      queue_.push_back(Job{service, std::move(done)});
    } else {
      start(service, std::move(done));
    }
  }

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_; }
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }
  void reset_stats() {
    busy_time_ = 0;
    jobs_ = 0;
  }

 private:
  struct Job {
    SimTime service;
    EventFn done;
  };

  void start(SimTime service, EventFn done) {
    busy_ = true;
    service_ = service;
    done_ = std::move(done);
    sched_.after(service, [this]() { complete(); });
  }

  void complete() {
    busy_time_ += service_;
    ++jobs_;
    busy_ = false;
    EventFn done = std::move(done_);
    if (!queue_.empty()) {
      Job next = std::move(queue_.front());
      queue_.pop_front();
      start(next.service, std::move(next.done));
    }
    done();
  }

  Scheduler& sched_;
  std::deque<Job> queue_;
  bool busy_ = false;
  SimTime service_ = 0;
  EventFn done_;
  SimTime busy_time_ = 0;
  std::uint64_t jobs_ = 0;
};

/// One side of the differential run: a resource fed by two seeded arrival
/// streams and by fires that resubmit to it. Both sides draw from equally
/// seeded streams, so they stay in step exactly as long as the resources
/// behave alike. A job of k runs is one typed job with repeat = k - 1 on
/// Resource, k back-to-back callables on the reference.
template <typename Res>
class Side {
 public:
  static constexpr bool kIntrusive = std::is_same_v<Res, Resource>;

  explicit Side(std::uint64_t seed) : rng_(seed) {}

  void start(int arrivals_per_stream) {
    arrivals_left_ = 2 * arrivals_per_stream;
    for (int stream = 0; stream < 2; ++stream) sched_.after(0, [this] { arrive(); });
  }

  Scheduler& sched() { return sched_; }
  Res& res() { return res_; }
  [[nodiscard]] const std::vector<std::pair<int, SimTime>>& fired() const { return fired_; }
  [[nodiscard]] int submits() const { return next_id_; }

 private:
  struct Typed : Job {
    Side* side = nullptr;
    int id = 0;
    std::uint32_t runs_left = 0;
  };

  static Res make_res(Scheduler& s) {
    if constexpr (kIntrusive) {
      return Res(s, "r");
    } else {
      return Res(s);
    }
  }

  static void typed_fire(Job* job) {
    auto* t = static_cast<Typed*>(job);
    // The last run leaves the record free, so on_fire may resubmit it.
    if (--t->runs_left == 0) t->side->free_.push_back(t);
    t->side->on_fire(t->id);
  }

  void arrive() {
    submit_random();
    if (--arrivals_left_ >= 2) {
      sched_.after(10 * static_cast<SimTime>(rng_.next_below(3)), [this] { arrive(); });
    }
  }

  void on_fire(int id) {
    fired_.push_back({id, sched_.now()});
    const std::uint64_t roll = rng_.next_below(10);
    if (roll < 2) {
      submit_random();  // straight back into the same resource
    } else if (roll == 2) {
      sched_.after(10 * static_cast<SimTime>(rng_.next_below(3)), [this] { submit_random(); });
    }
  }

  void submit_random() {
    const int id = next_id_++;
    const auto runs = static_cast<std::uint32_t>(1 + rng_.next_below(3));
    const SimTime service = 10 * static_cast<SimTime>(rng_.next_below(4));  // 0 gives ties
    const bool typed = rng_.next_below(2) == 0;
    if constexpr (kIntrusive) {
      if (typed) {
        Typed* t;
        if (free_.empty()) {
          t = &records_.emplace_back();
          t->side = this;
          t->fire = &typed_fire;
        } else {
          t = free_.back();  // the record that just fired, when there is one
          free_.pop_back();
        }
        t->id = id;
        t->service = service;
        t->repeat = runs - 1;
        t->runs_left = runs;
        res_.submit(t);
        return;
      }
    }
    for (std::uint32_t i = 0; i < runs; ++i) {
      res_.submit(service, [this, id] { on_fire(id); });
    }
  }

  Scheduler sched_;
  Res res_ = make_res(sched_);
  Rng rng_;
  std::vector<std::pair<int, SimTime>> fired_;
  std::deque<Typed> records_;
  std::vector<Typed*> free_;
  int next_id_ = 0;
  int arrivals_left_ = 0;
};

TEST(Resource, MatchesReferenceModelOnRandomOperations) {
  Side<Resource> side(0x5eed'0001);
  Side<ReferenceResource> ref(0x5eed'0001);
  side.start(6000);
  ref.start(6000);
  std::uint64_t steps = 0;
  while (true) {
    const bool stepped = side.sched().step();
    ASSERT_EQ(stepped, ref.sched().step()) << "step " << steps;
    if (!stepped) break;
    ++steps;
    ASSERT_EQ(side.sched().now(), ref.sched().now()) << "step " << steps;
    ASSERT_EQ(side.fired().size(), ref.fired().size()) << "step " << steps;
    if (!side.fired().empty()) {
      ASSERT_EQ(side.fired().back(), ref.fired().back()) << "step " << steps;
    }
    ASSERT_EQ(side.res().busy(), ref.res().busy()) << "step " << steps;
    ASSERT_EQ(side.res().queue_length(), ref.res().queue_length()) << "step " << steps;
    ASSERT_EQ(side.res().jobs_completed(), ref.res().jobs_completed()) << "step " << steps;
    ASSERT_EQ(side.res().busy_time(), ref.res().busy_time()) << "step " << steps;
    if (steps % 4999 == 0) {
      side.res().reset_stats();
      ref.res().reset_stats();
    }
  }
  EXPECT_EQ(side.submits(), ref.submits());
  EXPECT_GE(side.submits(), 10000);
  EXPECT_EQ(side.sched().pending(), 0u);
  EXPECT_EQ(side.res().queue_length(), 0u);
}

}  // namespace
}  // namespace l2s::des
