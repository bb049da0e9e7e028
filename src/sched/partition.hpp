// Partitioned scheduling: independent node pools behind one submit API.
//
// ARCHER2 exposes Slurm partitions — `standard` (5,276 nodes, 256 GB) and
// `highmem` (584 nodes, 512 GB) — each with its own pool and queue.  The
// `PartitionedScheduler` composes one `Scheduler` per partition and routes
// jobs by their partition name, so partition-aware studies (how much does
// fencing off high-memory nodes cost in utilisation?) use the same
// scheduling machinery as the single-pool facility simulations.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace hpcem {

/// One partition's static description.
struct PartitionSpec {
  std::string name;
  std::size_t nodes = 0;
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  PriorityWeights weights{};
};

/// A job routed to a partition.
struct PartitionedJob {
  JobSpec job;
  std::string partition = "standard";
};

/// Scheduler composed of independent per-partition pools.
class PartitionedScheduler {
 public:
  /// ARCHER2's published partition split.
  static std::vector<PartitionSpec> archer2_partitions();

  explicit PartitionedScheduler(std::vector<PartitionSpec> partitions);

  [[nodiscard]] std::size_t partition_count() const {
    return schedulers_.size();
  }

  /// Submit to a named partition; throws InvalidArgument if the partition
  /// does not exist or the job exceeds its pool.
  void submit(PartitionedJob job);

  /// Scheduling pass over every partition; starts carry partition names.
  struct Start {
    JobStart start;
    std::string partition;
  };
  [[nodiscard]] std::vector<Start> schedule_pass(SimTime now);

  /// Finish a job previously started on a partition.
  void finish(const std::string& partition, JobId id, SimTime now);

  /// Whole-machine occupancy and per-partition queue depth.
  [[nodiscard]] double total_utilisation() const;
  [[nodiscard]] std::size_t total_nodes() const;
  [[nodiscard]] std::size_t busy_nodes() const;
  [[nodiscard]] std::size_t queue_length(const std::string& partition) const;

 private:
  [[nodiscard]] Scheduler& at(const std::string& partition);
  [[nodiscard]] const Scheduler& at(const std::string& partition) const;

  std::vector<std::string> order_;  ///< insertion order for passes
  std::map<std::string, Scheduler> schedulers_;
};

}  // namespace hpcem
