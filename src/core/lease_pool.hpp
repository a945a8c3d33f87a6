// Sweep-scoped reuse of immutable values under plain-text keys.
//
// A sweep knows every point it will run before the points run, so it
// knows exactly which keys are still needed. LeasePool turns that into a
// memory bound with no byte budget: a point *leases* its keys for as long
// as it is queued or running, and a value is resident only while its key
// is leased. The last lease drop erases it. Resident memory is therefore
// bounded by the distinct keys of the points in flight or queued, never
// by sweep history. One implementation serves both kinds of sweep state:
//  - write-stream pipelines under their stream key (core/stream_pool.hpp);
//  - simulated duty states under their simulation fingerprint
//    (core/sim_cache.hpp, SimStatePool).
//
// Values enter a pool in two ways:
//  - acquire(key, build) runs `build` only when no resident value and no
//    build in progress exists. Concurrent acquire() calls of one key run
//    one build; the others block (on a condition variable, not by helping
//    the executor) until it finishes. That is only safe because a build
//    never touches the executor, so nothing can nest on top of a build
//    frame and wait for it. A build that throws is not cached: the
//    builder rethrows its exception, every waiter of that flight throws
//    std::runtime_error with the same message (its own object, so no
//    exception is shared across threads), and the next acquire() starts a
//    fresh build.
//  - insert(key, value) publishes a value computed elsewhere, for work
//    that does use the executor (a simulation fans out on it). First
//    wins; single flight for such work is the caller's job
//    (SweepScheduler parks same-key siblings behind one leader).
// Either way a key nobody leases yields a value that is never cached.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace dnnlife::core {

struct LeasePoolStats {
  /// Values produced: acquire() builds started (failed ones included)
  /// plus insert() calls.
  std::uint64_t builds = 0;
  std::uint64_t failed_builds = 0;  ///< acquire() builds that threw
  std::uint64_t reuses = 0;         ///< acquire()/find() served a value
  std::uint64_t joins = 0;          ///< acquisitions that waited on a build
  std::uint64_t resident = 0;       ///< values currently held
  std::uint64_t peak_resident = 0;  ///< most values ever held at once
  std::uint64_t leased_keys = 0;    ///< keys currently leased
};

/// Thread-safe pool of immutable `Value`s keyed by string. All methods
/// may be called concurrently.
template <class Value>
class LeasePool {
 public:
  using ValuePtr = std::shared_ptr<const Value>;
  using Builder = std::function<ValuePtr()>;

  /// Keeps its keys' values resident until it is dropped. Move-only;
  /// must not outlive the pool that issued it.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          keys_(std::move(other.keys_)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        reset();
        pool_ = std::exchange(other.pool_, nullptr);
        keys_ = std::move(other.keys_);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { reset(); }

    /// Drop the lease now (idempotent).
    void reset() noexcept {
      if (pool_ != nullptr) std::exchange(pool_, nullptr)->release(keys_);
      keys_.clear();
    }

   private:
    friend class LeasePool;
    LeasePool* pool_ = nullptr;
    std::vector<std::string> keys_;
  };

  LeasePool() = default;
  LeasePool(const LeasePool&) = delete;
  LeasePool& operator=(const LeasePool&) = delete;

  /// Declare that the caller will need `keys` until the lease is dropped.
  Lease lease(std::vector<std::string> keys) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const std::string& key : keys) ++slots_[key].leases;
    }
    Lease lease;
    lease.pool_ = this;
    lease.keys_ = std::move(keys);
    return lease;
  }

  /// The value of `key`, running `build` only when no resident value or
  /// in-progress build exists (see the header comment for the rules).
  /// `build` must not use the executor; it may throw.
  ValuePtr acquire(const std::string& key, const Builder& build) {
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto found = slots_.find(key);
      if (found != slots_.end()) {
        Slot& slot = found->second;
        if (slot.value) {
          ++stats_.reuses;
          return slot.value;
        }
        if (slot.flight) {
          // Join the build in progress. Blocking (not helping) is safe:
          // the builder never waits on the executor, so it always ends.
          const std::shared_ptr<Flight> joined = slot.flight;
          ++stats_.joins;
          built_.wait(lock, [&joined] { return joined->done; });
          if (joined->failed) throw std::runtime_error(joined->error);
          ++stats_.reuses;
          return joined->value;
        }
        flight = std::make_shared<Flight>();
        slot.flight = flight;
      }
      ++stats_.builds;
    }

    ValuePtr value;
    std::exception_ptr error;
    std::string message;
    try {
      value = build();
      DNNLIFE_EXPECTS(value != nullptr, "pool build returned no value");
    } catch (const std::exception& failure) {
      error = std::current_exception();
      message = failure.what();
    } catch (...) {
      error = std::current_exception();
      message = "unknown error";
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error) ++stats_.failed_builds;
      if (flight) {
        flight->done = true;
        flight->value = value;
        flight->failed = error != nullptr;
        flight->error = std::move(message);
        const auto found = slots_.find(key);
        if (found != slots_.end() && found->second.flight == flight) {
          found->second.flight.reset();
          if (value) hold_locked(found->second, value);
        }
      }
    }
    if (flight) built_.notify_all();
    if (error) std::rethrow_exception(error);
    return value;
  }

  /// The resident value of `key`, or nullptr. A hit counts as a reuse.
  ValuePtr find(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = slots_.find(key);
    if (found == slots_.end() || !found->second.value) return nullptr;
    ++stats_.reuses;
    return found->second.value;
  }

  /// Publish `value` under `key` and return the canonical value: first
  /// wins, so when another caller got there earlier its value is returned
  /// and `value` is dropped. Counts as a build either way; cached only
  /// while `key` is leased.
  ValuePtr insert(const std::string& key, ValuePtr value) {
    DNNLIFE_EXPECTS(value != nullptr, "pool insert of no value");
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.builds;
    const auto found = slots_.find(key);
    if (found == slots_.end()) return value;
    if (!found->second.value) hold_locked(found->second, value);
    return found->second.value;
  }

  /// Whether `key` has a resident value.
  bool contains(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = slots_.find(key);
    return found != slots_.end() && found->second.value != nullptr;
  }

  LeasePoolStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    LeasePoolStats stats = stats_;
    stats.leased_keys = slots_.size();
    return stats;
  }

 private:
  struct Flight {
    bool done = false;
    bool failed = false;
    ValuePtr value;
    std::string error;  ///< the failed build's what()
  };
  struct Slot {
    std::size_t leases = 0;
    ValuePtr value;                  ///< resident once built or inserted
    std::shared_ptr<Flight> flight;  ///< the build in progress, if any
  };

  void hold_locked(Slot& slot, ValuePtr value) {
    slot.value = std::move(value);
    ++stats_.resident;
    stats_.peak_resident = std::max(stats_.peak_resident, stats_.resident);
  }

  void release(const std::vector<std::string>& keys) noexcept {
    // Erasing a slot drops its value (users still holding it keep their
    // own shared_ptr). A build in progress on an erased slot still
    // fulfils its flight's waiters; it just is not cached.
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& key : keys) {
      const auto found = slots_.find(key);
      if (found == slots_.end() || --found->second.leases != 0) continue;
      if (found->second.value) --stats_.resident;
      slots_.erase(found);
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable built_;
  std::unordered_map<std::string, Slot> slots_;
  LeasePoolStats stats_;  ///< the counters; leased_keys derived
};

}  // namespace dnnlife::core
