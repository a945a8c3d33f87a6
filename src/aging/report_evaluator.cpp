#include "aging/report_evaluator.hpp"

#include <algorithm>

namespace dnnlife::aging {

void TimelineIndex::build(std::span<const EnvironmentSegmentView> segments,
                          std::size_t begin, std::size_t end,
                          TimelineKey key) {
  DNNLIFE_EXPECTS(!segments.empty() && begin <= end &&
                      end <= segments.front().tracker->cell_count() &&
                      end - begin <= ReportEvaluator::kTimelineChunkCells,
                  "timeline index chunk out of range");
  const std::size_t width = segments.size();
  const std::size_t count = end - begin;
  begin_ = begin;
  ids_.resize(count);
  representatives_.clear();
  tuples_.clear();
  unsigned bits = 4;
  while ((std::size_t{1} << bits) < 2 * count) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  table_.assign(mask + 1, 0);
  const bool with_ones = key == TimelineKey::kCounters;
  std::vector<std::uint64_t> tuple(width);
  for (std::size_t cell = begin; cell < end; ++cell) {
    std::uint64_t hash = 0;
    for (std::size_t s = 0; s < width; ++s) {
      const DutyCycleTracker& tracker = *segments[s].tracker;
      const std::uint64_t ones = with_ones ? tracker.ones_time()[cell] : 0;
      tuple[s] = ones << 32 | tracker.total_time()[cell];
      hash = (hash ^ tuple[s]) * 0x9e3779b97f4a7c15ULL;
    }
    std::size_t slot = static_cast<std::size_t>(hash >> (64 - bits));
    while (table_[slot] != 0 &&
           !std::equal(tuple.begin(), tuple.end(),
                       tuples_.begin() + (table_[slot] - 1) * width))
      slot = (slot + 1) & mask;
    if (table_[slot] == 0) {
      table_[slot] = static_cast<std::uint32_t>(representatives_.size() + 1);
      representatives_.push_back(cell);
      tuples_.insert(tuples_.end(), tuple.begin(), tuple.end());
    }
    ids_[cell - begin] = table_[slot] - 1;
  }
}

}  // namespace dnnlife::aging
