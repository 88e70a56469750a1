// Parallel sweep harness: runs independent simulation configs
// concurrently.
//
// Each simulated run is single-threaded and fully self-contained (its
// own DsmSystem, Engine, Stats and workload state), so a SystemKind x
// app x parameter sweep is embarrassingly parallel: wall-clock scales
// with cores while every individual run stays bit-identical to a
// serial execution. The bench binaries expose the worker count as
// `--jobs N` (0 = one worker per hardware thread).
#pragma once

#include <cstddef>
#include <functional>

namespace dsm {

// One worker per hardware thread (at least one).
unsigned hardware_jobs();

// Run fn(0..n-1) across `jobs` workers (0 = hardware_jobs(), 1 = inline
// serial execution). Each worker claims the next unclaimed index until
// none is left. Blocks until all indices completed.
void parallel_for_index(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& fn);

}  // namespace dsm
