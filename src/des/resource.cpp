#include "l2sim/des/resource.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::des {

Resource::Resource(Scheduler& sched, std::string name)
    : sched_(sched), pool_(sched.job_pool()), name_(std::move(name)) {}

void Resource::submit(SimTime service, EventFn done) {
  L2S_REQUIRE(service >= 0);
  JobPool::CallJob* job = pool_.acquire();  // fire == nullptr, repeat == 0
  job->service = service;
  job->done = std::move(done);
  enqueue(job);
}

void Resource::submit(Job* job) {
  L2S_REQUIRE(job->service >= 0);
  L2S_REQUIRE(job->fire != nullptr);
  enqueue(job);
}

void Resource::enqueue(Job* job) {
  waiting_ += std::size_t{1} + job->repeat;
  if (current_ != nullptr) {
    job->next = nullptr;
    if (tail_ == nullptr) {
      head_ = job;
    } else {
      tail_->next = job;
    }
    tail_ = job;
  } else {
    start(job);
  }
}

void Resource::start(Job* job) {
  --waiting_;
  current_ = job;
  sched_.after(job->service, [this]() { complete(); });
}

void Resource::complete() {
  Job* done = current_;
  busy_time_ += done->service;
  ++jobs_;
  current_ = nullptr;
  if (done->repeat > 0) {
    --done->repeat;
    start(done);
  } else if (head_ != nullptr) {
    Job* next = head_;
    head_ = next->next;
    if (head_ == nullptr) tail_ = nullptr;
    start(next);
  }
  if (done->fire != nullptr) {
    done->fire(done);
    return;
  }
  auto* call = static_cast<JobPool::CallJob*>(done);
  EventFn fn = std::move(call->done);
  pool_.release(call);
  fn();
}

double Resource::utilization(SimTime elapsed) const {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

void Resource::reset_stats() {
  busy_time_ = 0;
  jobs_ = 0;
}

}  // namespace l2s::des
