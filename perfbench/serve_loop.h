#ifndef MGBR_PERFBENCH_SERVE_LOOP_H_
#define MGBR_PERFBENCH_SERVE_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/server.h"

namespace mgbr::perfbench {

/// One resolved request of a serving window.
struct ServedRequest {
  serve::Request request;
  serve::Response response;
  int64_t submit_us = 0;  // trace::NowMicros() just before Submit
};

struct WindowResult {
  int64_t resolved = 0;
  double seconds = 0.0;  // first Submit to last resolution
  /// Duration and outcome of the window's publish call.
  double swap_s = 0.0;
  Status swap_status;
};

/// Closed-loop serving window: a single generator (the calling thread)
/// keeps `in_flight` requests outstanding, refilling one slot each time
/// the oldest resolves, like a front end whose callers wait for their
/// replies. One publisher thread calls `publish` once beside the reads
/// (a hot swap under traffic). The window ends once at least
/// `min_requests` have resolved and the publisher is done.
/// `on_resolved` sees every request as it resolves.
WindowResult RunClosedLoopWindow(
    serve::Server* server, int in_flight, int64_t min_requests,
    const std::function<serve::Request()>& next,
    const std::function<Status()>& publish,
    const std::function<void(const ServedRequest&)>& on_resolved);

}  // namespace mgbr::perfbench

#endif  // MGBR_PERFBENCH_SERVE_LOOP_H_
