// Sharded parallel-for over the session executor (util/executor.hpp).
//
// Determinism: the shard partition depends only on (n, threads), never on
// the executor size, and shards land results in disjoint slots — callers
// whose per-shard work is a pure function of the item index get
// bit-identical results for any budget. Fan-outs that need more than a
// contiguous range split use util::TaskGroup / TaskGroup::submit_bulk
// directly.
#pragma once

#include <cstdint>
#include <utility>

#include "util/executor.hpp"

namespace dnnlife::util {

/// Run fn(shard, begin, end) over [0, n) split into min(threads, n)
/// contiguous ranges. `threads` is a concurrency budget on the session
/// executor (<= 1 runs inline with no submission at all). The shard
/// partition is budget-dependent, so callers that need budget-invariant
/// results must make per-shard work a pure function of the item index
/// (see fast_simulator.cpp).
template <class Fn>
void parallel_for_shards(std::uint64_t n, unsigned threads, Fn&& fn) {
  threads = resolve_thread_count(threads);
  if (n < threads) threads = static_cast<unsigned>(n == 0 ? 1 : n);
  if (threads <= 1) {
    if (n > 0) fn(0u, std::uint64_t{0}, n);
    return;
  }
  TaskGroup group;
  group.submit_bulk(n, threads, std::forward<Fn>(fn));
  group.wait();
}

}  // namespace dnnlife::util
