/// \file tridiag.cpp
/// Thomas algorithm implementation: the tridiagonal inner kernel of the
/// implicit diffusion step.

#include "chem/tridiag.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/error.hpp"

namespace idp::chem {

namespace {

/// True when the two spans share any element (partial overlaps included).
/// std::less gives the total pointer order the raw < lacks across objects.
bool overlaps(std::span<const double> a, std::span<const double> b) {
  const std::less<const double*> lt;
  return lt(a.data(), b.data() + b.size()) && lt(b.data(), a.data() + a.size());
}

}  // namespace

void solve_tridiagonal_inplace(std::span<const double> lower,
                               std::span<const double> diag,
                               std::span<const double> upper,
                               std::span<const double> rhs,
                               std::span<double> scratch,
                               std::span<double> out) {
  const std::size_t n = diag.size();
  util::require(n >= 1, "empty system");
  util::require(lower.size() == n && upper.size() == n && rhs.size() == n,
                "band size mismatch");
  util::require(scratch.size() == n && out.size() == n,
                "scratch/out size mismatch");
  util::require(!overlaps(scratch, out) && !overlaps(scratch, rhs) &&
                    !overlaps(scratch, lower) && !overlaps(scratch, diag) &&
                    !overlaps(scratch, upper),
                "scratch must not alias any other argument");
  util::require(!overlaps(out, lower) && !overlaps(out, diag) &&
                    !overlaps(out, upper),
                "out must not alias a band");
  util::require(rhs.data() == out.data() || !overlaps(out, rhs),
                "rhs/out must alias exactly or not at all");

  // Forward elimination: scratch holds the modified upper band (c'),
  // out holds the modified right-hand side (d'). rhs[i] is consumed before
  // out[i] is written, so rhs == out aliasing is safe.
  double denom = diag[0];
  util::ensure(std::fabs(denom) > 0.0, "singular tridiagonal system");
  scratch[0] = upper[0] / denom;
  out[0] = rhs[0] / denom;
  for (std::size_t i = 1; i < n; ++i) {
    denom = diag[i] - lower[i] * scratch[i - 1];
    util::ensure(std::fabs(denom) > 0.0, "singular tridiagonal system");
    scratch[i] = upper[i] / denom;
    out[i] = (rhs[i] - lower[i] * out[i - 1]) / denom;
  }
  // Backward substitution in place.
  for (std::size_t i = n - 1; i-- > 0;) {
    out[i] -= scratch[i] * out[i + 1];
  }
}

void solve_tridiagonal_batched(std::size_t n, std::size_t lanes,
                               std::span<const double> lower,
                               std::span<const double> diag,
                               std::span<const double> upper,
                               std::span<const double> rhs,
                               std::span<double> scratch,
                               std::span<double> out,
                               std::span<double> pivots,
                               std::size_t factored) {
  util::require(n >= 1, "empty system");
  util::require(lanes >= 1, "empty lane batch");
  const std::size_t total = n * lanes;
  util::require(lower.size() == total && diag.size() == total &&
                    upper.size() == total && rhs.size() == total,
                "band size mismatch");
  util::require(scratch.size() == total && out.size() == total,
                "scratch/out size mismatch");
  util::require(!overlaps(scratch, out) && !overlaps(scratch, rhs) &&
                    !overlaps(scratch, lower) && !overlaps(scratch, diag) &&
                    !overlaps(scratch, upper),
                "scratch must not alias any other argument");
  util::require(!overlaps(out, lower) && !overlaps(out, diag) &&
                    !overlaps(out, upper),
                "out must not alias a band");
  util::require(rhs.data() == out.data() || !overlaps(out, rhs),
                "rhs/out must alias exactly or not at all");
  util::require(pivots.empty() || pivots.size() == total,
                "pivots size mismatch");
  util::require(!overlaps(pivots, scratch) && !overlaps(pivots, out) &&
                    !overlaps(pivots, rhs) && !overlaps(pivots, lower) &&
                    !overlaps(pivots, diag) && !overlaps(pivots, upper),
                "pivots must not alias any other argument");
  util::require(factored <= lanes && (factored == 0 || !pivots.empty()),
                "a factored prefix needs its pivots");

  const double* const lo = lower.data();
  const double* const di = diag.data();
  const double* const up = upper.data();
  const double* const rh = rhs.data();
  double* const sc = scratch.data();
  double* const ou = out.data();
  // Where a fresh lane parks its pivot between the passes below: the caller's
  // pivot store when there is one (so the factorization survives the call),
  // otherwise the scratch slot the modified upper band overwrites next.
  double* const pv = pivots.empty() ? sc : pivots.data();
  const std::size_t f = factored;

  // Forward elimination, node-major with the lane loop innermost.
  //
  // Lanes [0, f) reuse their factorization: the pivot from `pv` and the
  // modified upper band already in `sc`, so only the right-hand side is
  // eliminated -- the same division by the same pivot as a fresh lane.
  //
  // A fresh lane's row runs three passes instead of one: (1) compute the
  // pivot, update out, park the pivot; (2) fold the singularity predicate
  // over the parked pivots; (3) overwrite scratch with the modified upper
  // band. Per element the operations and their order are exactly those of
  // the fused loop -- same divisions, same operands -- so results stay
  // bitwise identical; the split keeps the scalar fold out of the
  // division-heavy passes, which gcc then vectorizes. The fold tests
  // !(|pivot| > 0), the scalar solver's predicate, so a NaN pivot is
  // singular here too (a min(|pivot|) fold would silently drop it).
  //
  // The `ivdep` pragmas assert what the overlap preconditions above already
  // guarantee at runtime: within one row the store range [row, row+lanes)
  // and the load range [prev, prev+lanes) are adjacent and disjoint, and
  // scratch/out/pivots never alias the bands, so the lane loop carries no
  // dependence the vectorizer must preserve.
  bool singular = false;
#pragma GCC ivdep
  for (std::size_t l = 0; l < f; ++l) {
    ou[l] = rh[l] / pv[l];
  }
#pragma GCC ivdep
  for (std::size_t l = f; l < lanes; ++l) {
    const double denom = di[l];
    ou[l] = rh[l] / denom;
    pv[l] = denom;
  }
  for (std::size_t l = f; l < lanes; ++l) {
    singular |= !(std::fabs(pv[l]) > 0.0);
  }
#pragma GCC ivdep
  for (std::size_t l = f; l < lanes; ++l) {
    sc[l] = up[l] / pv[l];
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t row = i * lanes;
    const std::size_t prev = row - lanes;
#pragma GCC ivdep
    for (std::size_t l = 0; l < f; ++l) {
      ou[row + l] = (rh[row + l] - lo[row + l] * ou[prev + l]) / pv[row + l];
    }
#pragma GCC ivdep
    for (std::size_t l = f; l < lanes; ++l) {
      const double denom = di[row + l] - lo[row + l] * sc[prev + l];
      ou[row + l] = (rh[row + l] - lo[row + l] * ou[prev + l]) / denom;
      pv[row + l] = denom;
    }
    for (std::size_t l = f; l < lanes; ++l) {
      singular |= !(std::fabs(pv[row + l]) > 0.0);
    }
#pragma GCC ivdep
    for (std::size_t l = f; l < lanes; ++l) {
      sc[row + l] = up[row + l] / pv[row + l];
    }
  }
  util::ensure(!singular, "singular tridiagonal system");
  // Backward substitution in place.
  for (std::size_t i = n - 1; i-- > 0;) {
    const std::size_t row = i * lanes;
    const std::size_t next = row + lanes;
#pragma GCC ivdep
    for (std::size_t l = 0; l < lanes; ++l) {
      ou[row + l] -= sc[row + l] * ou[next + l];
    }
  }
}

std::vector<double> solve_tridiagonal(std::span<const double> lower,
                                      std::span<const double> diag,
                                      std::span<const double> upper,
                                      std::span<const double> rhs) {
  std::vector<double> scratch(diag.size()), x(diag.size());
  solve_tridiagonal_inplace(lower, diag, upper, rhs, scratch, x);
  return x;
}

}  // namespace idp::chem
