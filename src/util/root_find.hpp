// Safeguarded scalar root finding for monotone functions.
//
// The aging layer inverts degradation-in-time curves: given a monotone
// non-decreasing f with f(0) <= target, find the crossing time t with
// f(t) == target. Power-law models have closed forms; everything else used
// to bracket-and-bisect (~100 f evaluations per solve). invert_monotone
// replaces the blind bisection with a derivative-aware Newton iteration
// that keeps the bracket as a safeguard: every iterate refines [lo, hi],
// and a Newton step that leaves the bracket (or meets a flat/undefined
// slope) falls back to one bisection step — so the solver inherits
// bisection's unconditional convergence while converging quadratically on
// the smooth convex curves device models actually produce (~5-8
// evaluations). invert_monotone_from runs the same iteration from a
// caller's warm start (the timeline solve's previous equivalent time)
// instead of a doubled bracket.
#pragma once

#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace dnnlife::util {

/// Instrumentation of one invert_monotone / invert_monotone_bisection call
/// (iteration-budget tests and solver diagnostics).
struct InvertStats {
  int evaluations = 0;         ///< f() calls, bracketing included
  int slope_evaluations = 0;   ///< slope() calls
  int newton_steps = 0;        ///< iterations that accepted the Newton step
  int bisection_steps = 0;     ///< iterations that fell back to bisection
  int bracket_doublings = 0;   ///< doublings needed to bracket the target
};

/// Relative bracket-width convergence tolerance shared by both solvers
/// (ulp scale: ~5 ulps of the root).
inline constexpr double kInvertRelTol = 1e-15;

namespace detail {

/// Double `hi` until f(hi) >= target. Returns false (target unreachable,
/// e.g. a zero-stress environment) after 200 doublings.
template <class F>
bool bracket_above(F& f, double target, double& hi, double& f_hi,
                   InvertStats& stats) {
  ++stats.evaluations;
  f_hi = f(hi);
  while (f_hi < target) {
    hi *= 2.0;
    if (++stats.bracket_doublings > 200) return false;
    ++stats.evaluations;
    f_hi = f(hi);
  }
  return true;
}

/// The safeguarded Newton loop of both entry points below: refine the
/// bracket [lo, hi] starting from the iterate (t, ft = f(t)). An open
/// bracket (hi = +inf: a warm start below the crossing) doubles the
/// iterate instead of bisecting until one lands at or above the target;
/// with a closed bracket the doubling branch is never taken.
template <class F, class Slope>
double refine_monotone(F& f, Slope& slope, double target, double lo, double hi,
                       double t, double ft, InvertStats& st) {
  for (int i = 0; i < 100; ++i) {
    // Every iterate tightens the bracket, Newton step or not.
    (ft < target ? lo : hi) = t;
    // f-space convergence: the iterate reproduces the target to a few
    // ulps — tighter than the bracket criterion ever gets on smooth
    // curves, and what Newton reaches in a handful of steps.
    if (std::abs(ft - target) <=
        target * 4.0 * std::numeric_limits<double>::epsilon())
      return t;
    if (std::isfinite(hi) && hi - lo <= hi * kInvertRelTol)
      return 0.5 * (lo + hi);
    ++st.slope_evaluations;
    const double s = slope(t);
    double next = std::numeric_limits<double>::quiet_NaN();
    if (std::isfinite(s) && s > 0.0) {
      if (t > 0.0 && ft > 0.0) {
        // Newton in log-log space: with u = ln t the step divides by
        // d ln f / d ln u = t f'/f. Power laws are straight lines there,
        // so the iteration lands on the root in ~1 step even when it
        // sits orders of magnitude below the bracket — the regime where
        // linear Newton on a sublinear curve degenerates to bisection.
        next = t * std::exp(std::log(target / ft) / (t * s / ft));
      } else {
        next = t - (ft - target) / s;
      }
    }
    if (std::isfinite(next) && next > lo && next < hi) {
      ++st.newton_steps;
    } else if (std::isfinite(hi)) {
      next = 0.5 * (lo + hi);
      ++st.bisection_steps;
    } else {
      if (++st.bracket_doublings > 200)
        return std::numeric_limits<double>::infinity();
      next = 2.0 * lo;
    }
    t = next;
    ++st.evaluations;
    ft = f(t);
  }
  return 0.5 * (lo + hi);
}

}  // namespace detail

/// Find t >= 0 with f(t) == target for a monotone non-decreasing f with
/// f(0) <= target and target > 0. `slope` returns df/dt (used for Newton
/// steps; it may return 0, inf or NaN where undefined — those iterations
/// bisect instead). `initial_hi` seeds the bracketing doubling (a model's
/// reference horizon). Returns +inf when the target is unreachable.
///
/// Call contract: slope(t) is only ever called right after f(t) at the
/// same t. A caller whose f computes its derivative in the same pass may
/// therefore cache it in f and have slope return the cached value.
template <class F, class Slope>
double invert_monotone(F&& f, Slope&& slope, double target, double initial_hi,
                       InvertStats* stats = nullptr) {
  DNNLIFE_EXPECTS(target > 0.0, "invert_monotone needs a positive target");
  InvertStats local;
  InvertStats& st = stats != nullptr ? *stats : local;
  double hi = initial_hi > 0.0 ? initial_hi : 1.0;
  double f_hi = 0.0;
  if (!detail::bracket_above(f, target, hi, f_hi, st))
    return std::numeric_limits<double>::infinity();
  return detail::refine_monotone(f, slope, target, 0.0, hi, hi, f_hi, st);
}

/// invert_monotone warm-started at `hint` (> 0, finite): the first iterate
/// is the hint itself, not the top of a doubled bracket, so a hint near
/// the crossing converges in one or two Newton steps. Same call contract
/// and safeguards; the result agrees with invert_monotone's to ulp scale
/// but not bit for bit.
template <class F, class Slope>
double invert_monotone_from(F&& f, Slope&& slope, double target, double hint,
                            InvertStats* stats = nullptr) {
  DNNLIFE_EXPECTS(target > 0.0, "invert_monotone needs a positive target");
  DNNLIFE_EXPECTS(std::isfinite(hint) && hint > 0.0,
                  "warm start needs a positive finite hint");
  InvertStats local;
  InvertStats& st = stats != nullptr ? *stats : local;
  ++st.evaluations;
  const double f_hint = f(hint);
  return detail::refine_monotone(f, slope, target, 0.0,
                                 std::numeric_limits<double>::infinity(), hint,
                                 f_hint, st);
}

/// The legacy derivative-free solver: bracket by doubling, then bisect to
/// the same relative bracket width (~100 f evaluations). Kept as the
/// reference implementation Newton results are tested against, and as the
/// documented fallback semantics of invert_monotone's safeguard.
template <class F>
double invert_monotone_bisection(F&& f, double target, double initial_hi,
                                 InvertStats* stats = nullptr) {
  DNNLIFE_EXPECTS(target > 0.0, "invert_monotone needs a positive target");
  InvertStats local;
  InvertStats& st = stats != nullptr ? *stats : local;
  double hi = initial_hi > 0.0 ? initial_hi : 1.0;
  double f_hi = 0.0;
  if (!detail::bracket_above(f, target, hi, f_hi, st))
    return std::numeric_limits<double>::infinity();
  double lo = 0.0;
  for (int i = 0; i < 200 && hi - lo > hi * kInvertRelTol; ++i) {
    const double mid = 0.5 * (lo + hi);
    ++st.evaluations;
    ++st.bisection_steps;
    (f(mid) < target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace dnnlife::util
