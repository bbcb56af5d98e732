// Single-server FIFO resource: the building block for CPUs, disks, NICs
// and the router. Jobs queue in arrival order; the resource tracks busy
// time (for utilization/idle-time reports) and queue statistics.
//
// The job in service keeps its `done` callable and service time in the
// resource itself, so its completion event captures only `this`: it fits
// InlineEvent's buffer and relocates by memcpy, whatever `done` captures.
// An idle resource starts a submitted job directly; only jobs that arrive
// while the server is busy go through the queue.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "l2sim/des/scheduler.hpp"

namespace l2s::des {

class Resource {
 public:
  Resource(Scheduler& sched, std::string name);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Enqueue a job needing `service` time; `done` fires at completion.
  void submit(SimTime service, EventFn done);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_; }
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }

  /// Fraction of [0, elapsed] the server was busy.
  [[nodiscard]] double utilization(SimTime elapsed) const;

  /// Zero the accumulated statistics (measurement starts after warm-up);
  /// in-flight work is unaffected.
  void reset_stats();

 private:
  struct Job {
    SimTime service;
    EventFn done;
  };

  /// Put a job in service and schedule its completion.
  void start(SimTime service, EventFn done);
  /// The completion event: stats, then the next queued job (its event is
  /// scheduled here), then the finished job's `done`.
  void complete();

  Scheduler& sched_;
  std::string name_;
  std::deque<Job> queue_;
  bool busy_ = false;
  SimTime service_ = 0;  ///< service time of the job in service
  EventFn done_;         ///< continuation of the job in service
  SimTime busy_time_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace l2s::des
