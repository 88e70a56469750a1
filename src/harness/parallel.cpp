#include "harness/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace dsm {

unsigned hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

void parallel_for_index(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) jobs = hardware_jobs();
  jobs = unsigned(std::min<std::size_t>(jobs, n));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> workers;
  workers.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w)
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  // The jthreads join as `workers` goes out of scope.
}

}  // namespace dsm
