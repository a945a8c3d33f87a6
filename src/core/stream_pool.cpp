#include "core/stream_pool.hpp"

#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace dnnlife::core {

StreamPool::Lease::Lease(Lease&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      keys_(std::move(other.keys_)) {}

StreamPool::Lease& StreamPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = std::exchange(other.pool_, nullptr);
    keys_ = std::move(other.keys_);
  }
  return *this;
}

void StreamPool::Lease::reset() noexcept {
  if (pool_ != nullptr) std::exchange(pool_, nullptr)->release(keys_);
  keys_.clear();
}

StreamPool::Lease StreamPool::lease(std::vector<std::string> keys) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& key : keys) ++slots_[key].leases;
  }
  Lease lease;
  lease.pool_ = this;
  lease.keys_ = std::move(keys);
  return lease;
}

void StreamPool::release(const std::vector<std::string>& keys) noexcept {
  // Erasing a slot drops its pipeline (points still using it hold their
  // own shared_ptr). A build in progress on an erased slot still fulfils
  // its flight's waiters; it just is not cached.
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& key : keys) {
    const auto found = slots_.find(key);
    if (found != slots_.end() && --found->second.leases == 0)
      slots_.erase(found);
  }
}

StreamPool::PipelinePtr StreamPool::acquire(const std::string& key,
                                            const Builder& build) {
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto found = slots_.find(key);
    if (found != slots_.end()) {
      Slot& slot = found->second;
      if (slot.pipeline) {
        ++stats_.reuses;
        return slot.pipeline;
      }
      if (slot.flight) {
        // Join the build in progress. Blocking (not helping) is safe: the
        // builder never waits on the executor, so it always finishes.
        const std::shared_ptr<Flight> joined = slot.flight;
        ++stats_.joins;
        built_.wait(lock, [&joined] { return joined->done; });
        if (joined->failed) throw std::runtime_error(joined->error);
        ++stats_.reuses;
        return joined->pipeline;
      }
      flight = std::make_shared<Flight>();
      slot.flight = flight;
    }
    ++stats_.builds;
  }

  PipelinePtr pipeline;
  std::exception_ptr error;
  std::string message;
  try {
    pipeline = build();
    DNNLIFE_EXPECTS(pipeline != nullptr, "stream build returned no pipeline");
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
      flight->pipeline = pipeline;
      flight->failed = error != nullptr;
      flight->error = std::move(message);
      const auto found = slots_.find(key);
      if (found != slots_.end() && found->second.flight == flight) {
        found->second.flight.reset();
        found->second.pipeline = pipeline;  // stays empty on failure
      }
    }
  }
  if (flight) built_.notify_all();
  if (error) std::rethrow_exception(error);
  return pipeline;
}

StreamPoolStats StreamPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  StreamPoolStats stats = stats_;
  stats.leased_keys = slots_.size();
  for (const auto& [key, slot] : slots_)
    if (slot.pipeline) ++stats.resident;
  return stats;
}

}  // namespace dnnlife::core
