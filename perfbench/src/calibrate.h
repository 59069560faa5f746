// A fixed piece of work that does not depend on the program under test,
// timed to tell how fast this host runs code at the moment.
//
// On a shared host the speed of a core drifts by a fifth or more over
// minutes, with what other tenants run on the same hardware; that moves
// CPU time per query as much as it moves throughput. The benchmark
// times this kernel beside every run and scales its CPU figures to a
// host on which the kernel takes kReferenceCalibrationMs.
#pragma once

#include <vector>

namespace perfbench {

/// The kernel's time, per thread, on the 4-vCPU Xeon VM the benchmark's
/// bounds were set on, with nothing else running.
inline constexpr double kReferenceCalibrationMs = 16.0;

/// Runs the kernel on four threads at once, `reps` times, and returns
/// each rep's mean per-thread CPU time, ms. Each thread gathers from a
/// table larger than a core's caches and scatters into a smaller
/// accumulator array with integer mixing in between: the memory and
/// arithmetic mix of scoring postings into accumulators.
std::vector<double> calibration_ms(int reps);

}  // namespace perfbench
