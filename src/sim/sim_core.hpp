// SimCore: queueing model of one data-plane CPU core running an NF pipeline
// run-to-completion (the way a DPDK/Click worker core does).
//
// Jobs are served FIFO and non-preemptively. Interference ("CPU theft" by a
// co-located noisy neighbor) is modelled as high-priority jobs that jump the
// queue: packets already in service finish, but everything queued behind
// waits out the burst — exactly the stall a vSwitch worker experiences when
// the hypervisor schedules another vCPU on its core.
//
// Two backlog views:
//   backlog_ns()          — ground truth (packets + theft), for analysis
//   visible_backlog_ns()  — what a dispatcher can actually observe (its own
//                           queued packets). CPU theft is invisible at
//                           dispatch time: the hypervisor does not tell the
//                           vSwitch that the core is about to be preempted.
//                           Schedulers get this view; that unpredictability
//                           is precisely why redundancy/hedging has value.
#pragma once

#include <cstdint>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/fifo_ring.hpp"
#include "sim/unique_function.hpp"

namespace mdp::sim {

class SimCore {
 public:
  using Done = UniqueFunction<void(TimeNs completed_at)>;

  SimCore(EventQueue& eq, std::string name = {})
      : eq_(eq), name_(std::move(name)) {}

  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  /// Submit a job taking `service_ns` of core time; `done` fires at
  /// completion. High-priority jobs are served ahead of all queued normal
  /// jobs. `visible` controls whether the job counts toward the
  /// dispatcher-observable backlog: priority *packets* are visible,
  /// interference bursts are not (pass visible=false).
  void submit(TimeNs service_ns, Done done, bool high_priority = false,
              bool visible = true) {
    if (!busy_) {  // an idle core has nothing queued: serve at once
      serve(service_ns, std::move(done), visible);
      return;
    }
    queued_work_ns_ += service_ns;
    if (visible) queued_visible_ns_ += service_ns;
    Job job{service_ns, std::move(done), visible};
    if (high_priority) {
      queue_.push_front(std::move(job));
    } else {
      queue_.push_back(std::move(job));
    }
  }

  /// Jobs waiting (not counting the one in service).
  std::size_t queue_depth() const noexcept { return queue_.size(); }
  bool busy() const noexcept { return busy_; }
  /// Total core time consumed by completed or in-service jobs.
  TimeNs busy_ns() const noexcept { return busy_ns_; }
  std::uint64_t jobs_completed() const noexcept { return completed_; }
  const std::string& name() const noexcept { return name_; }

  /// Time the in-service job will complete (0 if idle).
  TimeNs in_service_until() const noexcept { return in_service_until_; }

  /// Ground-truth outstanding work: queued demands (incl. theft) plus the
  /// remaining service of the in-flight job.
  TimeNs backlog_ns() const noexcept {
    return queued_work_ns_ + in_service_remaining();
  }

  /// Dispatcher-observable backlog: queued *packet* work, plus the
  /// in-service remainder only when the in-service job is a packet. A
  /// stolen core looks idle — the whole point.
  TimeNs visible_backlog_ns() const noexcept {
    TimeNs v = queued_visible_ns_;
    if (busy_ && !in_service_theft_) v += in_service_remaining();
    return v;
  }

 private:
  struct Job {
    TimeNs service_ns = 0;
    Done done;
    bool visible = true;
  };

  TimeNs in_service_remaining() const noexcept {
    return (busy_ && in_service_until_ > eq_.now())
               ? in_service_until_ - eq_.now()
               : 0;
  }

  void serve(TimeNs service_ns, Done&& done, bool visible) {
    busy_ = true;
    in_service_theft_ = !visible;
    in_service_until_ = eq_.now() + service_ns;
    busy_ns_ += service_ns;
    in_service_done_ = std::move(done);
    eq_.schedule_at(in_service_until_, [this] { complete(); });
  }

  // The in-service job finished. `done` may submit to this core; the core
  // is still busy then, so the job is only queued.
  void complete() {
    ++completed_;
    in_service_done_(eq_.now());
    in_service_done_ = nullptr;
    if (queue_.empty()) {
      busy_ = false;
      in_service_until_ = 0;
      in_service_theft_ = false;
      return;
    }
    Job& next = queue_.front();
    queued_work_ns_ -= next.service_ns;
    if (next.visible) queued_visible_ns_ -= next.service_ns;
    serve(next.service_ns, std::move(next.done), next.visible);
    queue_.pop_front();
  }

  EventQueue& eq_;
  std::string name_;
  FifoRing<Job> queue_;  // waiting jobs; high-priority ones pushed in front
  Done in_service_done_;
  bool busy_ = false;
  bool in_service_theft_ = false;
  TimeNs in_service_until_ = 0;
  TimeNs busy_ns_ = 0;
  TimeNs queued_work_ns_ = 0;    // waiting jobs, incl. theft
  TimeNs queued_visible_ns_ = 0; // waiting packet jobs only
  std::uint64_t completed_ = 0;
};

}  // namespace mdp::sim
