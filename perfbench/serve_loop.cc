#include "perfbench/serve_loop.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <thread>

#include "common/trace.h"

namespace mgbr::perfbench {

WindowResult RunClosedLoopWindow(
    serve::Server* server, int in_flight, int64_t min_requests,
    const std::function<serve::Request()>& next,
    const std::function<Status()>& publish,
    const std::function<void(const ServedRequest&)>& on_resolved) {
  WindowResult result;
  std::atomic<bool> publish_done{false};
  const int64_t start_us = trace::NowMicros();
  std::thread publisher([&] {
    const int64_t t0 = trace::NowMicros();
    {
      TraceSpan span("bench.swap", "bench");
      result.swap_status = publish();
    }
    result.swap_s = static_cast<double>(trace::NowMicros() - t0) * 1e-6;
    publish_done.store(true, std::memory_order_release);
  });

  struct Outstanding {
    serve::Request request;
    int64_t submit_us = 0;
    std::future<serve::Response> future;
  };
  std::deque<Outstanding> window;
  int64_t submitted = 0;
  int64_t end_us = start_us;
  try {
    while (true) {
      while (static_cast<int>(window.size()) < in_flight &&
             (submitted < min_requests ||
              !publish_done.load(std::memory_order_acquire))) {
        Outstanding o;
        o.request = next();
        o.submit_us = trace::NowMicros();
        o.future = server->Submit(o.request);
        window.push_back(std::move(o));
        ++submitted;
      }
      if (window.empty()) break;
      ServedRequest served;
      served.request = window.front().request;
      served.submit_us = window.front().submit_us;
      served.response = window.front().future.get();
      window.pop_front();
      end_us = std::max(end_us, served.response.done_us);
      on_resolved(served);
      ++result.resolved;
    }
  } catch (...) {
    publisher.join();
    throw;
  }
  publisher.join();
  result.seconds = static_cast<double>(end_us - start_us) * 1e-6;
  return result;
}

}  // namespace mgbr::perfbench
