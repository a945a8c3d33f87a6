// Shardable per-cell report evaluation.
//
// make_aging_report / make_lifetime_report used to be monolithic per-cell
// loops: evaluate the model for cell 0..n-1, feeding a builder that owns
// the RunningStats / histogram / per-region accumulators. The expensive
// part — model evaluation, a batched curve or inversion per block of one
// operating point, an equivalent-time composition per distinct stress
// history of a multi-segment timeline — is embarrassingly parallel; the
// cheap part, statistical accumulation, is order-sensitive (Welford
// updates and histogram adds do not commute bitwise). ReportEvaluator
// splits the two:
//
//  * values are evaluated on the session-wide work-stealing executor into
//    disjoint slots — contiguous cell shards for one operating point
//    (run_blocks), contiguous shards of the distinct-history list for a
//    timeline (run_timeline) — each a pure function of the cell's
//    counters, so scheduling cannot influence any value;
//  * the values are then replayed, cell by cell in ascending order,
//    through the single accumulation fold.
//
// The fold therefore sees exactly the sequence of (cell, value) pairs the
// single-threaded per-cell loop produced, which makes the parallel
// reports bit-identical to the serial ones — for ANY shard count, chunk
// size and executor size, the invariant the rest of the framework already
// holds (see util/executor.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "aging/duty_cycle.hpp"
#include "util/executor.hpp"

namespace dnnlife::aging {

/// Which per-segment counters identify a cell's stress history in a
/// multi-segment report. A cell's gathered history (gather_cell_segments)
/// is a pure function of its (ones, total) residency counters in every
/// segment, so two cells with equal tuples have bit-identical values.
enum class TimelineKey {
  kCounters,  ///< (ones, total) per segment: the duties and the weights
  kTotals,    ///< total per segment: the weights alone (balanced references)
};

/// The distinct-history index of one chunk of cells [begin, end): every
/// cell maps to the id of its exact per-segment counter tuple, with ids
/// numbered in first-occurrence order. One flat open-addressed table
/// (multiplicative hash, slot from its HIGH bits, linear probing, load
/// factor <= 1/2). The high bits matter: tuples pack `ones` into the high
/// half of each 64-bit word, and a low-bits mask of the product would
/// send tuples that differ only there into one probe chain.
class TimelineIndex {
 public:
  /// Index cells [begin, end) of `segments` (non-empty, equal geometry)
  /// under `key`. Reuses the previous build's storage.
  void build(std::span<const EnvironmentSegmentView> segments,
             std::size_t begin, std::size_t end, TimelineKey key);

  /// Number of distinct tuples in the chunk.
  std::size_t distinct() const noexcept { return representatives_.size(); }
  /// The first cell of the chunk carrying tuple `id`.
  std::size_t representative(std::size_t id) const {
    return representatives_[id];
  }
  /// The tuple id of `cell` (which must lie in the indexed chunk).
  std::uint32_t id(std::size_t cell) const { return ids_[cell - begin_]; }

 private:
  std::size_t begin_ = 0;
  std::vector<std::uint32_t> ids_;            ///< per chunk cell
  std::vector<std::size_t> representatives_;  ///< per distinct tuple
  std::vector<std::uint64_t> tuples_;         ///< distinct x segments
  std::vector<std::uint32_t> table_;          ///< id + 1; 0 = empty
};

/// One keyed evaluation of ReportEvaluator::run_timeline: `make_eval()`
/// returns a functor `eval(cell)` whose value must be a pure function of
/// the cell's `key` tuple (it is called on one representative cell per
/// distinct tuple). Build it by aggregate CTAD:
/// `TimelineEval{TimelineKey::kCounters, [&] { return Eval{...}; }}`.
template <class MakeEval>
struct TimelineEval {
  using value_type = std::remove_cvref_t<
      std::invoke_result_t<std::invoke_result_t<const MakeEval&>&,
                           std::size_t>>;
  TimelineKey key;
  MakeEval make_eval;
};

/// Runs report evaluations on the session executor and folds the results
/// in cell order. One evaluator is one concurrency budget; reports pass
/// AgingReportOptions::threads (0 = hardware concurrency). Each fan-out is
/// ONE bulk submission (one heap allocation, O(min(shards, workers))
/// deque pushes), so nothing stops a suite from evaluating many reports
/// concurrently under their budgets.
class ReportEvaluator {
 public:
  explicit ReportEvaluator(unsigned threads)
      : threads_(util::resolve_thread_count(threads)) {}

  unsigned threads() const noexcept { return threads_; }

  /// Cells per block of run_blocks: large enough to amortise a virtual
  /// batch call and give the per-block duty memo real repetition to
  /// exploit (real trackers repeat each distinct counter ratio across many
  /// cells), small enough that the block's duty/value scratch (~100 KiB)
  /// stays within L2.
  static constexpr std::size_t kBlockCells = 4096;

  /// The single-operating-point driver: `make_eval()` returns a functor
  /// invoked as `eval(begin, end, out)` that fills `out[0 .. end-begin)`
  /// with the values of cells [begin, end) — the hook the batched model
  /// calls (years_to_reach_batch / degradation_batch) drive, amortising
  /// curve and amplitude evaluation across up to kBlockCells contiguous
  /// cells. `make_eval` is invoked once per shard so the functor can own
  /// scratch without sharing it across threads. Blocks never straddle a
  /// shard boundary, block evaluation must equal per-cell evaluation for
  /// every split, and `fold(cell, value)` replays in ascending cell order.
  template <class Value, class MakeEval, class Fold>
  void run_blocks(std::size_t cell_count, MakeEval&& make_eval,
                  Fold&& fold) const {
    if (cell_count == 0) return;
    unsigned shards = threads_;
    if (static_cast<std::size_t>(shards) > cell_count)
      shards = static_cast<unsigned>(cell_count);
    if (shards <= 1) {
      auto eval = make_eval();
      std::vector<Value> block(std::min(cell_count, kBlockCells));
      for (std::size_t begin = 0; begin < cell_count; begin += kBlockCells) {
        const std::size_t end = std::min(cell_count, begin + kBlockCells);
        eval(begin, end, block.data());
        for (std::size_t i = 0; i < end - begin; ++i)
          fold(begin + i, std::move(block[i]));
      }
      return;
    }
    std::vector<std::vector<Value>> buffers(shards);
    {
      util::TaskGroup group;
      group.submit_bulk(
          cell_count, shards,
          [&](unsigned shard, std::uint64_t begin64, std::uint64_t end64) {
            auto eval = make_eval();
            const auto begin = static_cast<std::size_t>(begin64);
            const auto end = static_cast<std::size_t>(end64);
            std::vector<Value>& buffer = buffers[shard];
            buffer.resize(end - begin);
            for (std::size_t b = begin; b < end; b += kBlockCells) {
              const std::size_t e = std::min(end, b + kBlockCells);
              eval(b, e, buffer.data() + (b - begin));
            }
          });
      group.wait();
    }
    std::size_t cell = 0;
    for (std::vector<Value>& buffer : buffers)
      for (Value& value : buffer) fold(cell++, std::move(value));
  }

  /// Cells per chunk of run_timeline. Bounds the index and value scratch
  /// (a few bytes per cell plus one value per distinct tuple) whatever the
  /// memory size; the values themselves do not depend on it.
  static constexpr std::size_t kTimelineChunkCells = std::size_t{1} << 16;

  /// The multi-segment driver. For each chunk of kTimelineChunkCells
  /// cells: index the chunk by each eval's key (TimelineIndex), evaluate
  /// every distinct tuple once — the distinct list, not the cells, is
  /// sharded across the executor, so a region dense in distinct histories
  /// cannot pile onto one shard — then call `fold(cell, values...)` in
  /// ascending cell order with one value per eval, looked up by the cell's
  /// tuple id. Every value is a pure function of the counters, so reports
  /// are bit-identical to a per-cell loop for any chunk size, shard count
  /// or executor size. `segments` must be non-empty with equal geometry
  /// (check_segments).
  template <class Fold, class... MakeEvals>
  void run_timeline(std::span<const EnvironmentSegmentView> segments,
                    Fold&& fold,
                    const TimelineEval<MakeEvals>&... evals) const {
    DNNLIFE_EXPECTS(!segments.empty(), "timeline report without segments");
    const std::size_t cell_count = segments.front().tracker->cell_count();
    std::tuple<Column<typename TimelineEval<MakeEvals>::value_type>...>
        columns;
    for (std::size_t begin = 0; begin < cell_count;
         begin += kTimelineChunkCells) {
      const std::size_t end = std::min(cell_count, begin + kTimelineChunkCells);
      std::apply(
          [&](auto&... column) {
            (solve_chunk(segments, begin, end, evals, column), ...);
          },
          columns);
      for (std::size_t cell = begin; cell < end; ++cell)
        std::apply(
            [&](const auto&... column) {
              fold(cell, column.values[column.index.id(cell)]...);
            },
            columns);
    }
  }

 private:
  /// One eval's chunk scratch: the index and one value per distinct tuple.
  template <class Value>
  struct Column {
    TimelineIndex index;
    std::vector<Value> values;
  };

  template <class MakeEval, class Value>
  void solve_chunk(std::span<const EnvironmentSegmentView> segments,
                   std::size_t begin, std::size_t end,
                   const TimelineEval<MakeEval>& eval_spec,
                   Column<Value>& column) const {
    column.index.build(segments, begin, end, eval_spec.key);
    const std::size_t distinct = column.index.distinct();
    column.values.resize(distinct);
    const auto solve_range = [&](std::size_t first, std::size_t last) {
      auto eval = eval_spec.make_eval();
      for (std::size_t id = first; id < last; ++id)
        column.values[id] = eval(column.index.representative(id));
    };
    unsigned shards = threads_;
    if (static_cast<std::size_t>(shards) > distinct)
      shards = static_cast<unsigned>(distinct);
    if (shards <= 1) {
      solve_range(0, distinct);
      return;
    }
    // Workers write disjoint id ranges of the value array in place.
    util::TaskGroup group;
    group.submit_bulk(distinct, shards,
                      [&](unsigned, std::uint64_t first, std::uint64_t last) {
                        solve_range(static_cast<std::size_t>(first),
                                    static_cast<std::size_t>(last));
                      });
    group.wait();
  }

  unsigned threads_;
};

}  // namespace dnnlife::aging
