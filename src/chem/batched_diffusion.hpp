/// \file batched_diffusion.hpp
/// Structure-of-arrays lane batch of independent 1-D diffusion fields that
/// share one grid and step in lockstep through a single batched tridiagonal
/// solve.
///
/// Each lane is a full DiffusionField: its own diffusivity profile, far
/// boundary, bulk value, electrode rate/injection, fouling scale, and
/// volumetric sources. What the lanes share is the *grid geometry* (node
/// positions, control volumes), which is what makes the Thomas sweep
/// vectorizable: every per-node array is stored node-major / lane-minor
/// (`[i*lanes + lane]`), so the elimination recurrence walks nodes in the
/// outer loop while the inner lane loop touches contiguous memory.
///
/// Per lane the assembly and solve are the exact op-for-op arithmetic of
/// DiffusionField::step, so lane values are bitwise identical to a scalar
/// field advanced with the same inputs, regardless of lane count or lane
/// order -- the kernel-equivalence property test pins this. The workspace
/// honours the zero-allocation steady-state contract: all buffers are sized
/// at construction and step() never touches the heap, cache rebuilds
/// included.
#pragma once

#include <span>
#include <vector>

#include "chem/diffusion.hpp"
#include "chem/grid.hpp"

namespace idp::chem {

/// N independent diffusion fields on one grid, advanced in lockstep.
class BatchedDiffusionField {
 public:
  /// Workspace for `lanes` fields on `grid` (node 0 = electrode surface).
  /// Every lane must be configured via configure_lane before stepping.
  BatchedDiffusionField(Grid1D grid, std::size_t lanes);

  /// Set lane `lane`'s per-node base diffusivity profile [m^2/s] and initial
  /// uniform concentration [mol/m^3]; the bulk reservoir value starts at
  /// c_init, mirroring the DiffusionField constructor.
  void configure_lane(std::size_t lane, std::span<const double> diffusivity,
                      double c_init);
  /// Convenience: uniform diffusivity everywhere.
  void configure_lane(std::size_t lane, double diffusivity, double c_init);

  // --- per-lane boundary & source configuration (persist across steps) ----
  void set_far_boundary(std::size_t lane, FarBoundary fb);
  void set_bulk_concentration(std::size_t lane, double c);
  void set_electrode_rate(std::size_t lane, double k_het);
  void set_electrode_injection(std::size_t lane, double flux);
  /// Volumetric source for the *next* step [mol m^-3 s^-1] per node of one
  /// lane; all sources are cleared automatically after each step.
  void set_source(std::size_t lane, std::span<const double> source_per_node);
  /// Reset one lane's profile to a uniform concentration.
  void fill(std::size_t lane, double c);
  /// Uniformly scale lane `lane`'s effective diffusivity (see
  /// DiffusionField::set_diffusivity_scale). Scale 1 restores the exact
  /// constructed coefficients bitwise.
  void set_diffusivity_scale(std::size_t lane, double scale);
  double diffusivity_scale(std::size_t lane) const;

  // --- raw SoA source fast path -------------------------------------------
  /// Mutable node-major source array (`[i*lanes() + lane]`). Kernel-grade
  /// callers (the oxidase reaction loop) write rates for all lanes of a node
  /// directly and then call mark_sources_set() once; equivalent to
  /// set_source per lane but with no per-lane staging buffer.
  std::span<double> source_data() { return source_; }
  void mark_sources_set() { source_set_ = true; }

  // --- time stepping -------------------------------------------------------
  /// Advance every lane by dt seconds in one batched tridiagonal solve.
  /// Per-lane electrode consumption fluxes are available from
  /// electrode_flux() afterwards. Allocation-free.
  ///
  /// The matrix bands are cached across steps. Every entry except row 0's
  /// diagonal depends only on dt, the face diffusivities, the far boundary
  /// and the grid, so step() rebuilds them only when dt differs from the
  /// cached dt or after configure_lane, set_far_boundary or a
  /// set_diffusivity_scale that changes the scale. Row 0's diagonal is
  /// (1 + a01) cached plus dt * k_het / w0 each step: the same two IEEE
  /// operations, in the same order, as the uncached 1 + a01 + dt*k_het/w0.
  /// The right-hand side is assembled every step.
  ///
  /// The leading run of lanes with k_het == 0 (an oxidase batch's substrate
  /// lanes) has a constant matrix while the bands hold, so it reuses its
  /// factorization (solve_tridiagonal_batched's factored prefix). The
  /// factorization is redone when the bands rebuild or when a prefix lane's
  /// rate becomes non-zero.
  void step(double dt);

  // --- observers -----------------------------------------------------------
  /// Electrode consumption flux J = k_het * c(0, t+dt) of the last step().
  double electrode_flux(std::size_t lane) const;
  double at_electrode(std::size_t lane) const { return c_[lane]; }
  double at(std::size_t lane, std::size_t i) const {
    return c_[i * lanes_ + lane];
  }
  std::size_t lanes() const { return lanes_; }
  /// Nodes per lane.
  std::size_t size() const { return grid_.size(); }
  const Grid1D& grid() const { return grid_; }
  /// Integral of lane `lane`'s c over the domain [mol/m^2]; exact FV sum.
  double total_per_area(std::size_t lane) const;

 private:
  void check_lane(std::size_t lane) const;
  void rebuild_face_diffusivity(std::size_t lane);
  /// Assemble the cached bands for time step dt (everything but row 0's
  /// diagonal, whose cached part goes to diag0_base_).
  void rebuild_bands(double dt);

  Grid1D grid_;
  std::size_t lanes_;
  std::size_t configured_ = 0;  ///< lanes configured so far (step needs all)

  // per-lane scalar state (indexed by lane)
  std::vector<char> lane_configured_;
  std::vector<FarBoundary> far_;
  std::vector<double> d_scale_, c_bulk_, k_het_, injection_, flux_;

  // node-major / lane-minor SoA arrays (size grid.size() * lanes; d_face_
  // has (grid.size()-1) * lanes interface rows)
  std::vector<double> d_, d_face_, c_, source_;
  bool source_set_ = false;

  // persistent assembly + solve buffers; step() reuses them so steady-state
  // stepping performs zero heap allocations. lower_, upper_ and diag_ rows
  // >= 1 are the band cache; scratch_ keeps the modified upper band and
  // pivots_ the pivots of the last solve, the factorization that lanes
  // [0, factored_) reuse.
  std::vector<double> lower_, diag_, upper_, rhs_, scratch_, pivots_;
  std::vector<double> diag0_base_;  ///< per lane 1 + a01 (row 0 diagonal)
  double band_dt_ = 0.0;  ///< dt of the cached bands; 0 = must rebuild
  std::size_t factored_ = 0;  ///< leading lanes with a valid factorization
};

}  // namespace idp::chem
