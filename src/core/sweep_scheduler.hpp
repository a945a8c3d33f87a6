// Incremental sweep execution on the session executor.
//
// ScenarioSuite::run is batch-shaped: hand it every point up front, get
// every outcome back at the end. The adaptive-grid work the ROADMAP calls
// for needs the opposite: decide the NEXT points from the outcomes of the
// first ones, while earlier points are still running. SweepScheduler is
// that surface — a long-lived object wrapping scenario execution
// (retry/soft-deadline/fault-hook/journal machinery included) that accepts
// point submissions at any time and hands back a future-like Handle per
// point. ScenarioSuite::run is now a thin batch loop over it, so both
// entry points share one execution path.
//
// Scheduling: all points run as tasks of one TaskGroup on the process-wide
// work-stealing executor (util::Executor::session()), never on private
// threads. `jobs` is an admission budget — at most that many points are in
// flight; each finishing point launches the next queued one from inside
// its own task, so the group's pending count covers the whole queue and
// wait_all() needs no extra bookkeeping. Handles that are waited on before
// completion *help* the executor (run pending tasks) instead of sleeping,
// so polling a handle from a worker cannot deadlock the pool.
//
// Reuse: the scheduler owns two core::LeasePools, passed to every point
// through RunScenarioOptions — a StreamPool under stream keys and a
// SimStatePool under simulation fingerprints. A fresh point leases its
// stream keys and its fingerprint at submit and drops both when it
// finishes, so a stream or a duty state is held while any queued or
// running point needs it and is freed after (see core/lease_pool.hpp).
// Replayed points lease nothing.
//
// Single flight is always on: the first point of a fingerprint that no
// tier holds yet leads — it simulates — and later same-fingerprint
// submissions park off the queue until it finishes. On success they go
// to the queue front together, so a fingerprint's points run next to each
// other and the resident duty states stay around `jobs` however the grid
// interleaves its fingerprints. On failure the next sibling is promoted
// to leader. Every sweep therefore simulates each distinct write stream
// once, with no flag. The explicit SimCache / SimStore tiers, when given,
// are consulted before the pool (see core/sim_cache.hpp for why).
//
// Journal integration matches the suite runner: fresh outcomes are
// appended (flushed) before they are announced, and submitting an index
// the journal already holds yields an immediately-done "replayed" Handle
// carrying the journal's record — callers distinguish the two with
// Handle::replayed().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/scenario_suite.hpp"
#include "core/sim_cache.hpp"
#include "core/stream_pool.hpp"

namespace dnnlife::util {
class Executor;
}

namespace dnnlife::core {

class SweepScheduler {
 public:
  struct Options {
    /// Admission budget: points in flight at once (0 = hardware
    /// concurrency). A budget, not a pool size — the actual parallelism
    /// comes from the shared executor's workers.
    unsigned jobs = 0;
    /// Override every spec's own `threads` budget (simulation + report
    /// evaluation); 0 keeps the per-document values.
    unsigned threads_per_scenario = 0;
    /// Extra attempts after a failed or timed-out attempt (0 = fail fast).
    unsigned retries = 0;
    /// Soft per-scenario deadline in seconds (0 = no watchdog); see
    /// SuiteRunOptions::soft_deadline_seconds. Deadline attempts run on a
    /// dedicated thread so an abandoned attempt never wedges a pool worker.
    double soft_deadline_seconds = 0.0;
    /// Fault-injection hook (tests, sweep_runner --inject-fault).
    SuiteFaultHook fault_hook;
    /// Durable result journal. Fresh outcomes are appended before being
    /// announced; already-journaled indices come back as replayed Handles.
    /// Header validation against a suite stays the caller's duty
    /// (ScenarioSuite::run does it) — the scheduler does not know what
    /// sweep the journal belongs to.
    SweepJournal* journal = nullptr;
    /// Invoked after each fresh point finishes; serialized internally.
    std::function<void(const SuiteProgress&)> progress;
    /// Progress denominator. 0 means "count submissions so far" — right
    /// for open-ended adaptive use; batch callers pass their plan size.
    std::size_t expected_total = 0;
    /// Optional duty-state LRU (see core/sim_cache.hpp), consulted before
    /// the scheduler's own pool; it adds reuse across sweeps in one
    /// process. A fingerprint it already holds is not grouped (its points
    /// are hits). Held by shared_ptr because abandoned soft-deadline
    /// attempts may still touch it after the scheduler is gone.
    std::shared_ptr<SimCache> sim_cache;
    /// Optional disk tier (core/sim_store.hpp), consulted after the cache
    /// and before the pool. The leader of a fingerprint group durably
    /// publishes its entry before its siblings are released, so sibling
    /// shards sharing the directory simulate each distinct stream once.
    /// Same shared_ptr lifetime rationale as the cache.
    std::shared_ptr<SimStore> sim_store;
  };

  struct PointState;

  /// Future-like view of one submitted point. Copyable (shared state);
  /// outcome()/record() block until the point finished, running pending
  /// executor work while they wait.
  class Handle {
   public:
    Handle() = default;

    bool valid() const noexcept { return state_ != nullptr; }
    std::size_t index() const;

    /// True when this submission was satisfied from the journal instead of
    /// being executed. Replayed handles carry a record() but no outcome().
    bool replayed() const;

    /// Non-blocking completion poll.
    bool done() const;

    /// The executed outcome (blocks until done, helping the executor).
    /// Throws std::logic_error on a replayed handle — the journal stores
    /// summary records, not full scenario results.
    const SuiteOutcome& outcome() const;

    /// Move the outcome out (same blocking/throwing rules as outcome()).
    /// The handle stays done() but its outcome is gone afterwards.
    SuiteOutcome take_outcome();

    /// The summary record: the journal's for replayed handles, freshly
    /// built for executed ones. Blocks until done.
    const SuiteRecord& record() const;

   private:
    friend class SweepScheduler;
    explicit Handle(std::shared_ptr<PointState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<PointState> state_;
  };

  explicit SweepScheduler(Options options);

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  /// Waits for every in-flight and queued point (like wait_all, but
  /// swallowing errors — call wait_all() to observe them).
  ~SweepScheduler();

  /// Submit the scenario at `global_index` of its suite. Thread-safe, and
  /// legal while earlier points are running — including from a progress
  /// callback or another point's task. Each index may be submitted once
  /// per scheduler; an index the journal completed *before this session*
  /// returns a replayed Handle instead of executing.
  Handle submit(SuiteEntry entry, std::size_t global_index);

  /// Convenience for generated points (the adaptive-grid path): assigns
  /// the next unused global index itself and synthesises the entry from
  /// the spec's name.
  Handle submit(ScenarioSpec spec);

  /// Submit `entries[i]` at `global_indices[i]` for every i, atomically:
  /// no point of the batch can finish before all of them are queued, so
  /// streams shared within the batch stay pooled across it and are built
  /// once each. Per-point rules as submit().
  std::vector<Handle> submit_batch(std::vector<SuiteEntry> entries,
                                   std::span<const std::size_t> global_indices);

  /// Block until every submitted point has finished (helping the executor
  /// while blocked); rethrows the first infrastructure error any point
  /// task raised (scenario *failures* are outcomes, not exceptions).
  /// Callers must not race fresh submit() calls against wait_all() from
  /// other threads — points submitted from running tasks are always
  /// covered, external threads submitting concurrently are not.
  void wait_all();

  /// Fresh (non-replayed) points submitted / finished so far.
  std::size_t submitted() const;
  std::size_t completed() const;

  /// Counters of this scheduler's stream pool (builds = streams built)
  /// and duty-state pool (builds = simulations whose state it received,
  /// reuses = points it served). After wait_all() nothing is leased or
  /// resident: both hold entries only while a queued or running point
  /// needs them.
  LeasePoolStats stream_pool_stats() const;
  LeasePoolStats sim_pool_stats() const;

 private:
  struct Impl;
  Handle submit_locked(SuiteEntry entry, std::size_t global_index);
  std::unique_ptr<Impl> impl_;
};

}  // namespace dnnlife::core
