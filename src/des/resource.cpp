#include "l2sim/des/resource.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::des {

Resource::Resource(Scheduler& sched, std::string name)
    : sched_(sched), name_(std::move(name)) {}

void Resource::submit(SimTime service, EventFn done) {
  L2S_REQUIRE(service >= 0);
  if (busy_) {
    queue_.push_back(Job{service, std::move(done)});
  } else {
    start(service, std::move(done));
  }
}

void Resource::start(SimTime service, EventFn done) {
  busy_ = true;
  service_ = service;
  done_ = std::move(done);
  sched_.after(service, [this]() { complete(); });
}

void Resource::complete() {
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

double Resource::utilization(SimTime elapsed) const {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

void Resource::reset_stats() {
  busy_time_ = 0;
  jobs_ = 0;
}

}  // namespace l2s::des
