// Job-trace serialisation (CSV), for replaying workloads and exporting
// simulated accounting data in a Slurm-sacct-like layout.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "workload/jobs.hpp"

namespace hpcem {

/// Serialise submitted jobs (a workload) to CSV text.
[[nodiscard]] std::string jobs_to_csv(const std::vector<JobSpec>& jobs);

/// Parse a workload written by jobs_to_csv; throws ParseError on bad input.
[[nodiscard]] std::vector<JobSpec> jobs_from_csv(const std::string& text);

/// Write/read workload files.
void write_jobs_file(const std::filesystem::path& path,
                     const std::vector<JobSpec>& jobs);
[[nodiscard]] std::vector<JobSpec> read_jobs_file(
    const std::filesystem::path& path);

}  // namespace hpcem
