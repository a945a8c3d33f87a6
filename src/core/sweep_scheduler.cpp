#include "core/sweep_scheduler.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "core/stream_pool.hpp"
#include "core/sweep_journal.hpp"
#include "util/executor.hpp"
#include "util/table.hpp"

namespace dnnlife::core {

namespace {

/// What one attempt produced; moved into the outcome of the last attempt.
struct AttemptOutcome {
  bool ok = false;
  bool timed_out = false;
  std::string error;
  std::optional<ScenarioResult> result;
};

/// Run one attempt: fault hook, then the scenario, from a fresh spec copy.
/// With a soft deadline the attempt executes on its own thread — never on
/// a pool worker, which could not be abandoned — and on expiry the thread
/// is detached (the shared state keeps everything it still touches alive,
/// and it discards its result once it sees the abandoned flag) so the
/// sweep moves on instead of hanging.
AttemptOutcome execute_attempt(ScenarioSpec spec, std::size_t global_index,
                               unsigned attempt, double soft_deadline_seconds,
                               const SuiteFaultHook& fault_hook,
                               RunScenarioOptions run_options) {
  const auto body = [](ScenarioSpec& fresh_spec, std::size_t index,
                       unsigned attempt_number, const SuiteFaultHook& hook,
                       const RunScenarioOptions& scenario_options,
                       AttemptOutcome& out) {
    try {
      if (hook) hook(SuiteFaultContext{index, attempt_number});
      out.result = run_scenario(fresh_spec, scenario_options);
      out.ok = true;
    } catch (const std::exception& error) {
      out.error = error.what();
    } catch (...) {
      out.error = "unknown error";
    }
  };
  if (soft_deadline_seconds <= 0.0) {
    AttemptOutcome out;
    body(spec, global_index, attempt, fault_hook, run_options, out);
    return out;
  }

  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
    AttemptOutcome out;
  };
  const auto shared = std::make_shared<Shared>();
  // The worker owns copies of everything it touches (spec, hook, and the
  // shared_ptrs of the scheduler's pools and the reuse tiers), so an
  // abandoned worker never dangles into the caller's frame or into a
  // scheduler that is gone; a late simulation still lands in the pool.
  std::thread worker([shared, spec = std::move(spec), hook = fault_hook,
                      run_options = std::move(run_options), global_index,
                      attempt, body]() mutable {
    AttemptOutcome local;
    body(spec, global_index, attempt, hook, run_options, local);
    const std::lock_guard<std::mutex> lock(shared->mutex);
    if (!shared->abandoned) shared->out = std::move(local);
    shared->done = true;
    shared->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(shared->mutex);
  const bool finished = shared->cv.wait_for(
      lock, std::chrono::duration<double>(soft_deadline_seconds),
      [&] { return shared->done; });
  if (finished) {
    lock.unlock();
    worker.join();
    return std::move(shared->out);
  }
  shared->abandoned = true;
  lock.unlock();
  worker.detach();
  AttemptOutcome out;
  out.timed_out = true;
  out.error = "soft deadline of " + util::Table::num(soft_deadline_seconds, 3) +
              " s exceeded";
  return out;
}

}  // namespace

/// Shared state behind a Handle. `done` flips exactly once, under `mutex`,
/// after outcome/record are in place; readers that saw done under the
/// mutex (or via a blocking wait) may then read both without it.
struct SweepScheduler::PointState {
  std::size_t index = 0;
  SuiteEntry entry;
  bool replayed = false;
  util::Executor* executor = nullptr;
  /// Simulation fingerprint, computed at submit time (single-flight
  /// grouping and the duty-state lease key on it; the record carries it).
  std::string fingerprint;
  /// True while this point owns its fingerprint group: it simulates, and
  /// same-fingerprint submissions park behind it until it completes.
  bool leads = false;
  /// Keep the point's streams and duty state resident in the scheduler's
  /// pools while it is queued, parked or running; dropped when it
  /// finishes.
  StreamPool::Lease stream_lease;
  SimStatePool::Lease state_lease;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::optional<SuiteOutcome> outcome;
  std::optional<SuiteRecord> record;

  void wait_done() {
    // Help the executor while blocked: a pool worker polling a handle
    // keeps draining tasks (possibly the very point it waits for), so
    // handle waits cannot deadlock the pool; the short timed wait covers
    // the window where no work is available but the point is mid-flight.
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (done) return;
      }
      if (executor != nullptr && executor->try_help()) continue;
      std::unique_lock<std::mutex> lock(mutex);
      if (cv.wait_for(lock, std::chrono::milliseconds(1),
                      [this] { return done; }))
        return;
    }
  }
};

std::size_t SweepScheduler::Handle::index() const {
  DNNLIFE_EXPECTS(state_ != nullptr, "empty sweep handle");
  return state_->index;
}

bool SweepScheduler::Handle::replayed() const {
  DNNLIFE_EXPECTS(state_ != nullptr, "empty sweep handle");
  return state_->replayed;
}

bool SweepScheduler::Handle::done() const {
  DNNLIFE_EXPECTS(state_ != nullptr, "empty sweep handle");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

const SuiteOutcome& SweepScheduler::Handle::outcome() const {
  DNNLIFE_EXPECTS(state_ != nullptr, "empty sweep handle");
  if (state_->replayed)
    throw std::logic_error(
        "sweep point " + std::to_string(state_->index) +
        " was replayed from the journal; it has a record() but no outcome");
  state_->wait_done();
  DNNLIFE_EXPECTS(state_->outcome.has_value(), "finished point lost its outcome");
  return *state_->outcome;
}

SuiteOutcome SweepScheduler::Handle::take_outcome() {
  outcome();  // blocks + validates; afterwards nothing else writes the state
  SuiteOutcome taken = std::move(*state_->outcome);
  state_->outcome.reset();
  return taken;
}

const SuiteRecord& SweepScheduler::Handle::record() const {
  DNNLIFE_EXPECTS(state_ != nullptr, "empty sweep handle");
  state_->wait_done();
  DNNLIFE_EXPECTS(state_->record.has_value(), "finished point lost its record");
  return *state_->record;
}

struct SweepScheduler::Impl {
  explicit Impl(Options options)
      : options(std::move(options)),
        executor(&util::Executor::session()),
        jobs(util::resolve_thread_count(this->options.jobs)),
        group(*executor) {
    if (this->options.journal != nullptr) {
      // Records recovered at journal-open time; submissions of these
      // indices replay instead of executing. Records appended by THIS
      // scheduler are deliberately absent — resubmitting an index it
      // already ran is a caller bug and is rejected in submit().
      for (const SuiteRecord& record : this->options.journal->replayed())
        replay.emplace(record.index, record);
    }
  }

  void launch_locked(std::shared_ptr<PointState> state) {
    group.submit(util::Task(
        [this, state = std::move(state)] { run_point(*state); }));
  }

  void run_point(PointState& state);

  Options options;
  util::Executor* executor;
  unsigned jobs;
  /// One pair of pools per scheduler, so every sweep starts with no
  /// streams built and no states simulated. Declared before `group` so
  /// they outlive every point task.
  std::shared_ptr<StreamPool> stream_pool = std::make_shared<StreamPool>();
  std::shared_ptr<SimStatePool> sim_pool = std::make_shared<SimStatePool>();
  util::TaskGroup group;

  // Recursive: the progress callback runs under it (serialized, like the
  // old suite runner) and is explicitly allowed to submit() the next
  // adaptive points reentrantly. It must not block on handles or
  // wait_all() — that would stall every other finishing point.
  mutable std::recursive_mutex mutex;
  std::deque<std::shared_ptr<PointState>> queue;
  std::unordered_map<std::size_t, SuiteRecord> replay;
  // Single-flight bookkeeping: fingerprints currently owned by a leading
  // point, and the same-fingerprint siblings parked off the queue until
  // their group's entry is committed.
  std::unordered_set<std::string> leaders;
  std::unordered_map<std::string, std::vector<std::shared_ptr<PointState>>>
      parked;
  unsigned in_flight = 0;
  std::size_t fresh_submitted = 0;
  std::size_t fresh_completed = 0;
  std::size_t next_index = 0;
};

void SweepScheduler::Impl::run_point(PointState& state) {
  // Released under `mutex` below; the local owners also cover unwinding.
  StreamPool::Lease stream_lease = std::move(state.stream_lease);
  SimStatePool::Lease state_lease = std::move(state.state_lease);
  const SuiteEntry& entry = state.entry;
  SuiteOutcome outcome;
  outcome.index = state.index;
  outcome.path = entry.path;
  outcome.name = entry.spec.name;
  // The fingerprint rides in every outcome/record (reuse is verifiable
  // from sweep artifacts); submit() computed it.
  outcome.fingerprint = state.fingerprint;
  const auto start = std::chrono::steady_clock::now();
  const unsigned max_attempts = 1 + options.retries;
  RunScenarioOptions run_options;
  run_options.sim_cache = options.sim_cache;
  run_options.sim_store = options.sim_store;
  run_options.sim_pool = sim_pool;
  run_options.stream_pool = stream_pool;
  AttemptOutcome last;
  unsigned attempt = 1;
  for (;; ++attempt) {
    ScenarioSpec spec = entry.spec;  // fresh-attempt isolation
    if (options.threads_per_scenario != 0)
      spec.threads = options.threads_per_scenario;
    last = execute_attempt(std::move(spec), outcome.index, attempt,
                           options.soft_deadline_seconds, options.fault_hook,
                           run_options);
    if (last.ok || attempt >= max_attempts) break;
  }
  outcome.ok = last.ok;
  outcome.timed_out = last.timed_out;
  outcome.attempts = attempt;
  outcome.error = std::move(last.error);
  outcome.result = std::move(last.result);
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  SuiteRecord record = make_suite_record(outcome);
  // Durability before reporting: once the handle or the progress callback
  // announces a point, a crash right after must still find it journaled.
  // A journal write failure still completes the handle (the outcome is
  // valid) before the error propagates to wait_all().
  std::exception_ptr journal_error;
  if (options.journal != nullptr) {
    try {
      options.journal->append(record);
    } catch (...) {
      journal_error = std::current_exception();
    }
  }
  const bool point_ok = outcome.ok;
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.outcome = std::move(outcome);
    state.record = std::move(record);
    state.done = true;
  }
  state.cv.notify_all();
  {
    const std::lock_guard<std::recursive_mutex> lock(mutex);
    // Under `mutex`, so a batch submission (which holds it) has leased
    // every point's keys before any of its points can drop the last lease
    // of a shared key.
    stream_lease.reset();
    state_lease.reset();
    ++fresh_completed;
    if (options.progress) {
      // Serialized by `mutex`, like the suite runner's progress path.
      SuiteProgress progress;
      progress.completed = fresh_completed;
      progress.total = options.expected_total != 0 ? options.expected_total
                                                   : fresh_submitted;
      progress.outcome = &*state.outcome;
      options.progress(progress);
    }
    // Single-flight release: this point led its fingerprint group. On
    // success the shared entry is committed — every parked sibling goes
    // to the queue front (in submission order) to evaluate against it.
    // On failure the entry may not exist, so the first sibling is
    // promoted to leader (queue front, fingerprint stays owned) and the
    // rest wait on — one simulation per fingerprint survives failures.
    // Releases happen inside this still-counted task, so wait_all()'s
    // group.wait() covers released points with no extra machinery.
    if (state.leads) {
      const auto found = parked.find(state.fingerprint);
      if (found == parked.end()) {
        leaders.erase(state.fingerprint);
      } else if (point_ok) {
        for (auto sibling = found->second.rbegin();
             sibling != found->second.rend(); ++sibling)
          queue.push_front(std::move(*sibling));
        parked.erase(found);
        leaders.erase(state.fingerprint);
      } else {
        std::shared_ptr<PointState> promoted =
            std::move(found->second.front());
        found->second.erase(found->second.begin());
        if (found->second.empty()) parked.erase(found);
        promoted->leads = true;
        queue.push_front(std::move(promoted));
      }
    }
    // Admission chain: the next queued point is launched from inside this
    // still-counted task, so the group's pending count never drops to
    // zero while queued work remains. The top-up loop re-fills the
    // admission budget when a release just grew the queue while other
    // slots sat idle.
    if (!queue.empty()) {
      std::shared_ptr<PointState> next = std::move(queue.front());
      queue.pop_front();
      launch_locked(std::move(next));
    } else {
      --in_flight;
    }
    while (in_flight < jobs && !queue.empty()) {
      ++in_flight;
      std::shared_ptr<PointState> next = std::move(queue.front());
      queue.pop_front();
      launch_locked(std::move(next));
    }
  }
  if (journal_error) std::rethrow_exception(journal_error);
}

SweepScheduler::SweepScheduler(Options options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SweepScheduler::~SweepScheduler() {
  // ~Impl runs ~TaskGroup, which waits for stragglers (errors discarded).
}

SweepScheduler::Handle SweepScheduler::submit_locked(SuiteEntry entry,
                                                     std::size_t global_index) {
  auto state = std::make_shared<PointState>();
  state->index = global_index;
  state->entry = std::move(entry);
  state->executor = impl_->executor;
  if (impl_->next_index <= global_index) impl_->next_index = global_index + 1;
  if (impl_->options.journal != nullptr &&
      impl_->options.journal->completed(global_index)) {
    const auto found = impl_->replay.find(global_index);
    if (found == impl_->replay.end())
      throw std::invalid_argument(
          "sweep point " + std::to_string(global_index) +
          " was already run by this scheduler; each index may be submitted "
          "once");
    state->replayed = true;
    state->done = true;
    state->record = found->second;
    return Handle(std::move(state));
  }
  ++impl_->fresh_submitted;
  state->fingerprint = simulation_fingerprint(state->entry.spec);
  state->stream_lease =
      impl_->stream_pool->lease(stream_keys(state->entry.spec));
  state->state_lease = impl_->sim_pool->lease({state->fingerprint});
  // Single-flight grouping: the first point of a fingerprint whose entry
  // is not committed in any tier yet leads (it simulates, and with a
  // store, durably publishes); later same-fingerprint submissions park
  // behind it and are released — straight to hits — when it completes.
  // Already-committed fingerprints run normally (an LRU eviction before
  // they run just costs a redundant simulation, caught by the first-wins
  // inserts / the store's atomic rename).
  if (impl_->leaders.contains(state->fingerprint)) {
    impl_->parked[state->fingerprint].push_back(state);
    return Handle(std::move(state));
  }
  const bool committed =
      impl_->sim_pool->contains(state->fingerprint) ||
      (impl_->options.sim_cache != nullptr &&
       impl_->options.sim_cache->contains(state->fingerprint)) ||
      (impl_->options.sim_store != nullptr &&
       impl_->options.sim_store->contains(state->fingerprint));
  if (!committed) {
    impl_->leaders.insert(state->fingerprint);
    state->leads = true;
  }
  if (impl_->in_flight < impl_->jobs) {
    ++impl_->in_flight;
    impl_->launch_locked(state);
  } else {
    impl_->queue.push_back(state);
  }
  return Handle(std::move(state));
}

SweepScheduler::Handle SweepScheduler::submit(SuiteEntry entry,
                                              std::size_t global_index) {
  const std::lock_guard<std::recursive_mutex> lock(impl_->mutex);
  return submit_locked(std::move(entry), global_index);
}

SweepScheduler::Handle SweepScheduler::submit(ScenarioSpec spec) {
  SuiteEntry entry;
  entry.path = "<" + spec.name + ">";
  entry.spec = std::move(spec);
  const std::lock_guard<std::recursive_mutex> lock(impl_->mutex);
  return submit_locked(std::move(entry), impl_->next_index);
}

std::vector<SweepScheduler::Handle> SweepScheduler::submit_batch(
    std::vector<SuiteEntry> entries,
    std::span<const std::size_t> global_indices) {
  DNNLIFE_EXPECTS(entries.size() == global_indices.size(),
                  "submit_batch needs one global index per entry");
  std::vector<Handle> handles;
  handles.reserve(entries.size());
  const std::lock_guard<std::recursive_mutex> lock(impl_->mutex);
  for (std::size_t i = 0; i < entries.size(); ++i)
    handles.push_back(submit_locked(std::move(entries[i]), global_indices[i]));
  return handles;
}

void SweepScheduler::wait_all() { impl_->group.wait(); }

LeasePoolStats SweepScheduler::stream_pool_stats() const {
  return impl_->stream_pool->stats();
}

LeasePoolStats SweepScheduler::sim_pool_stats() const {
  return impl_->sim_pool->stats();
}

std::size_t SweepScheduler::submitted() const {
  const std::lock_guard<std::recursive_mutex> lock(impl_->mutex);
  return impl_->fresh_submitted;
}

std::size_t SweepScheduler::completed() const {
  const std::lock_guard<std::recursive_mutex> lock(impl_->mutex);
  return impl_->fresh_completed;
}

}  // namespace dnnlife::core
