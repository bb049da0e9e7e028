// The traced run (--trace 1): per-layer metrics from the benchmark's own
// spans around each public-layer call, the library's existing obs spans and
// counters, FrontStats, and a decomposed serve pass
// (parse -> canonical key -> evaluate -> render, each timed on its own).
#pragma once

#include "report.hpp"
#include "workload.hpp"

namespace perfbench {

void per_layer(Run& run, Report& report);

}  // namespace perfbench
