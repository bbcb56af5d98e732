// Single-server FIFO resource: the building block for CPUs, disks, NICs
// and the router. Jobs queue in arrival order; the resource tracks busy
// time (for utilization/idle-time reports) and queue statistics.
//
// The queue is intrusive: a Job is a 32-byte header {next, service, fire,
// repeat} that its owner embeds in a record of its own, and the resource
// only links headers together. At completion the resource calls
// `fire(job)`; the owner may then re-point `fire` and hand the same record
// to the next resource (a VIA message walks cpu -> tx -> rx -> cpu this
// way). A job with `repeat = k` is served k + 1 times back to back, as if
// k + 1 copies had been submitted together; a broadcast charges its N - 1
// sender-CPU overheads through one such job.
//
// submit(SimTime, EventFn) serves callers that hold a callable rather than
// a record: it takes a record from the scheduler's JobPool, shared by every
// resource on that scheduler, and queues it on the same FIFO. The
// completion event captures only `this`, so it stays inside InlineEvent's
// buffer; an idle resource starts a submitted job directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "l2sim/des/scheduler.hpp"

namespace l2s::des {

/// A unit of work for a Resource, owned by the caller. The resource owns
/// `next` while the job is queued or in service; everything else is the
/// caller's to set before submit. A job that still has runs left is back
/// in service when its `fire` runs, so `fire` must then leave it alone.
struct Job {
  Job* next = nullptr;
  SimTime service = 0;
  /// Called once per run, after the resource has started its next job.
  /// nullptr marks a JobPool record (submit with a callable).
  void (*fire)(Job*) = nullptr;
  std::uint32_t repeat = 0;  ///< runs after the first, served back to back
};

/// The records behind Resource::submit(SimTime, EventFn): stable addresses,
/// recycled through a free list linked through `next`. A record still
/// queued when its resource dies is reclaimed with the pool, as pending
/// events are with the scheduler.
class JobPool {
 public:
  struct CallJob : Job {
    EventFn done;
  };

  [[nodiscard]] CallJob* acquire() {
    if (free_ == nullptr) return &records_.emplace_back();
    CallJob* job = free_;
    free_ = static_cast<CallJob*>(job->next);
    return job;
  }
  /// Return `job`, its callable already moved out, to the pool.
  void release(CallJob* job) {
    job->next = free_;
    free_ = job;
  }
  /// Records ever created: the peak number of callable jobs alive at once.
  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  std::deque<CallJob> records_;
  CallJob* free_ = nullptr;
};

class Resource {
 public:
  Resource(Scheduler& sched, std::string name);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Enqueue a job needing `service` time; `done` fires at completion.
  void submit(SimTime service, EventFn done);
  /// Enqueue a caller-owned job for `1 + job->repeat` runs of
  /// `job->service` each; `job->fire` must be set. It must not be queued or
  /// in service already, and must outlive its last run (or this resource).
  void submit(Job* job);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool busy() const { return current_ != nullptr; }
  /// Runs waiting to start, the remaining repeats of every job included.
  [[nodiscard]] std::size_t queue_length() const { return waiting_; }
  /// Runs completed (a repeating job counts once per run).
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_; }
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }

  /// Fraction of [0, elapsed] the server was busy.
  [[nodiscard]] double utilization(SimTime elapsed) const;

  /// Zero the accumulated statistics (measurement starts after warm-up);
  /// in-flight work is unaffected.
  void reset_stats();

 private:
  /// Start `job` if idle, else append it to the queue.
  void enqueue(Job* job);
  /// Put a job in service and schedule its completion.
  void start(Job* job);
  /// The completion event: stats, then the next run (the finished job's
  /// own repeat first, else the queue head; its event is scheduled here),
  /// then the finished job's `fire`.
  void complete();

  Scheduler& sched_;
  JobPool& pool_;
  std::string name_;
  Job* head_ = nullptr;     ///< oldest queued job
  Job* tail_ = nullptr;     ///< newest queued job
  Job* current_ = nullptr;  ///< job in service; nullptr while idle
  std::size_t waiting_ = 0;
  SimTime busy_time_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace l2s::des
