/// \file tridiag.hpp
/// Thomas algorithm for tridiagonal systems -- the inner kernel of the
/// implicit (backward-Euler) diffusion step.
#pragma once

#include <span>
#include <vector>

namespace idp::chem {

/// Solve the tridiagonal system
///   lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i]
/// (lower[0] and upper[n-1] are ignored) without allocating: the forward
/// elimination stores the modified upper band in `scratch` and the modified
/// right-hand side directly in `out`, which the backward pass then overwrites
/// with the solution. `rhs` and `out` may alias the same storage (each rhs
/// element is read before its slot is written); `scratch` must not alias any
/// other argument and `out` must not alias a band (both enforced). All spans
/// must have equal size >= 1; the matrix must be non-singular (diagonally
/// dominant in our use).
///
/// This is the zero-allocation kernel the simulation hot path runs once per
/// species per time step; DiffusionField owns persistent scratch/output
/// buffers so steady-state stepping never touches the heap.
void solve_tridiagonal_inplace(std::span<const double> lower,
                               std::span<const double> diag,
                               std::span<const double> upper,
                               std::span<const double> rhs,
                               std::span<double> scratch,
                               std::span<double> out);

/// Allocating convenience wrapper around solve_tridiagonal_inplace; returns
/// the solution vector. Prefer the in-place form in per-step code.
std::vector<double> solve_tridiagonal(std::span<const double> lower,
                                      std::span<const double> diag,
                                      std::span<const double> upper,
                                      std::span<const double> rhs);

/// Lane-batched Thomas solve over `lanes` independent tridiagonal systems
/// stored structure-of-arrays: element i of lane l lives at `[i*lanes + l]`
/// in every span (node-major, lane-minor), so the elimination recurrence
/// walks nodes in the outer loop while the inner lane loop touches
/// contiguous memory -- the layout the compiler auto-vectorizes.
///
/// Per lane the arithmetic is the exact op-for-op sequence of
/// solve_tridiagonal_inplace (division, multiply, subtract in the same
/// order), so each lane's solution is bitwise identical to a scalar solve
/// of that lane -- the kernel-equivalence property test pins this. The one
/// structural difference: singularity is detected by folding the scalar
/// solver's own predicate, !(|pivot| > 0), across the forward pass and
/// checking once at the end. IEEE division by zero or by NaN yields inf or
/// NaN, not a trap, so deferring the check changes nothing for non-singular
/// systems, and the batch throws exactly when the scalar solve of one of
/// its lanes would (NaN pivots included).
///
/// Cached factorization. `pivots`, when given, receives every eliminated
/// lane's pivots (size n*lanes, same layout); together with the modified
/// upper band the solve leaves in `scratch`, it is the lane's complete
/// factorization. Lanes [0, factored) then reuse it: their pivots are read
/// from `pivots` and their modified upper band from `scratch` instead of
/// being recomputed, so they run only the right-hand-side elimination
/// (the same division by the same pivot) and the back-substitution. That is
/// valid only when an earlier call on the same `pivots` and `scratch`
/// completed over identical lower/diag/upper bands for those lanes, which
/// the caller guarantees; their pivots were checked then. `factored == 0`
/// is the plain solve.
///
/// `rhs` and `out` may alias the same storage; `scratch` and `pivots` must
/// not alias any other argument, and `out` must not alias a band (all
/// enforced). All spans must have size n*lanes with n >= 1 and
/// lanes >= 1. `lanes == 1` degenerates to the scalar solve (same layout,
/// same bits).
void solve_tridiagonal_batched(std::size_t n, std::size_t lanes,
                               std::span<const double> lower,
                               std::span<const double> diag,
                               std::span<const double> upper,
                               std::span<const double> rhs,
                               std::span<double> scratch,
                               std::span<double> out,
                               std::span<double> pivots = {},
                               std::size_t factored = 0);

}  // namespace idp::chem
