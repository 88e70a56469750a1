// Blocked dense LU factorization (no pivoting), SPLASH-2-style.
//
// The n x n matrix is partitioned into B x B element blocks assigned to
// threads in a 2-D round-robin ("cookie-cutter") layout. Iteration k:
//   1. the owner of diagonal block (k,k) factorizes it;
//   2. owners of perimeter blocks (k,j) / (i,k) update them using the
//      diagonal block;
//   3. owners of interior blocks (i,j) update them using (i,k) and (k,j).
// Steps are barrier-separated. Perimeter blocks are read by every
// interior owner in their row/column — the per-iteration read phase that
// makes lu the paper's page-replication winner.
//
// The matrix is generated diagonally dominant so factorization without
// pivoting is numerically stable; verify() reconstructs sample entries
// of A from L*U.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "workloads/workload.hpp"

namespace dsm {

struct LuParams {
  std::uint32_t n = 384;   // matrix dimension (paper: 512)
  std::uint32_t block = 16;
};

class LuWorkload final : public Workload {
 public:
  explicit LuWorkload(LuParams p) : p_(p) {}

  std::string name() const override { return "lu"; }
  void setup(Engine& engine, SharedSpace& space,
             std::uint32_t nthreads) override;
  SimCall<> body(WorkerCtx& ctx) override;
  void verify() override;

 private:
  std::size_t idx(std::uint32_t r, std::uint32_t c) const {
    return std::size_t(r) * p_.n + c;
  }
  std::uint32_t owner(std::uint32_t bi, std::uint32_t bj) const;

  SimCall<> factor_diag(Cpu& cpu, std::uint32_t k);
  SimCall<> update_row_block(Cpu& cpu, std::uint32_t k, std::uint32_t bj);
  SimCall<> update_col_block(Cpu& cpu, std::uint32_t k, std::uint32_t bi);
  SimCall<> update_interior(Cpu& cpu, std::uint32_t k, std::uint32_t bi,
                            std::uint32_t bj);

  LuParams p_;
  std::uint32_t nthreads_ = 1;
  std::uint32_t nblocks_ = 0;
  SharedArray<double> a_;
  std::vector<double> original_;
  std::unique_ptr<Barrier> barrier_;
};

}  // namespace dsm
