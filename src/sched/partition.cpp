#include "sched/partition.hpp"

#include "util/error.hpp"

namespace hpcem {

std::vector<PartitionSpec> PartitionedScheduler::archer2_partitions() {
  PartitionSpec standard;
  standard.name = "standard";
  standard.nodes = 5276;
  PartitionSpec highmem;
  highmem.name = "highmem";
  highmem.nodes = 584;
  return {standard, highmem};
}

PartitionedScheduler::PartitionedScheduler(
    std::vector<PartitionSpec> partitions) {
  require(!partitions.empty(),
          "PartitionedScheduler: need at least one partition");
  for (auto& p : partitions) {
    require(!p.name.empty(), "PartitionedScheduler: partition needs a name");
    require(p.nodes > 0,
            "PartitionedScheduler: partition needs nodes: " + p.name);
    require(!schedulers_.contains(p.name),
            "PartitionedScheduler: duplicate partition: " + p.name);
    SchedulerConfig cfg;
    cfg.nodes = p.nodes;
    cfg.discipline = p.discipline;
    cfg.weights = p.weights;
    schedulers_.emplace(p.name, Scheduler(cfg));
    order_.push_back(p.name);
  }
}

Scheduler& PartitionedScheduler::at(const std::string& partition) {
  auto it = schedulers_.find(partition);
  require(it != schedulers_.end(),
          "PartitionedScheduler: no such partition: " + partition);
  return it->second;
}

const Scheduler& PartitionedScheduler::at(
    const std::string& partition) const {
  auto it = schedulers_.find(partition);
  require(it != schedulers_.end(),
          "PartitionedScheduler: no such partition: " + partition);
  return it->second;
}

void PartitionedScheduler::submit(PartitionedJob job) {
  at(job.partition).submit(std::move(job.job));
}

std::vector<PartitionedScheduler::Start>
PartitionedScheduler::schedule_pass(SimTime now) {
  std::vector<Start> out;
  for (const auto& name : order_) {
    for (auto& s : at(name).schedule_pass(now)) {
      out.push_back({std::move(s), name});
    }
  }
  return out;
}

void PartitionedScheduler::finish(const std::string& partition, JobId id,
                                  SimTime now) {
  at(partition).finish(id, now);
}

double PartitionedScheduler::total_utilisation() const {
  return static_cast<double>(busy_nodes()) /
         static_cast<double>(total_nodes());
}

std::size_t PartitionedScheduler::total_nodes() const {
  std::size_t n = 0;
  for (const auto& [name, s] : schedulers_) n += s.total_nodes();
  return n;
}

std::size_t PartitionedScheduler::busy_nodes() const {
  std::size_t n = 0;
  for (const auto& [name, s] : schedulers_) n += s.busy_nodes();
  return n;
}

std::size_t PartitionedScheduler::queue_length(
    const std::string& partition) const {
  return at(partition).queue_length();
}

}  // namespace hpcem
