#include "trace.hpp"

#include <atomic>

#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace perfbench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

double Trace::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::int32_t Trace::begin(const char* name, std::int64_t point,
                          std::int32_t parent) {
  Span span;
  span.name = name;
  span.point = point;
  span.parent = parent;
  span.thread = thread_number();
  span.start_us = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Trace::end(std::int32_t id) {
  const double end_us = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = end_us;
}

std::vector<Span> Trace::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Trace::chrome_json() const {
  using dnnlife::util::JsonValue;
  JsonValue events = JsonValue::make_array();
  const std::vector<Span> all = spans();
  for (std::size_t id = 0; id < all.size(); ++id) {
    const Span& span = all[id];
    JsonValue args = JsonValue::make_object();
    args.set("id", JsonValue::make_number(static_cast<double>(id)));
    args.set("parent", JsonValue::make_number(span.parent));
    args.set("point", JsonValue::make_number(static_cast<double>(span.point)));
    JsonValue event = JsonValue::make_object();
    event.set("name", JsonValue::make_string(span.name));
    event.set("ph", JsonValue::make_string("X"));
    event.set("pid", JsonValue::make_number(1));
    event.set("tid", JsonValue::make_number(span.thread));
    event.set("ts", JsonValue::make_number(span.start_us));
    event.set("dur", JsonValue::make_number(span.end_us - span.start_us));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  JsonValue root = JsonValue::make_object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", JsonValue::make_string("ms"));
  return dnnlife::util::write_json(root, {.indent = -1});
}

}  // namespace perfbench
