// Live progress heartbeat for day-scale runs. A monitor thread wakes every
// `interval_seconds`, reads the engine's progress metrics (plain relaxed
// counter loads — it never touches run state or takes locks the workers
// contend on) and prints one status line to stderr:
//
//   [bilatnet 12.0s] shards 42/128 (32.8%) | 3.1M topologies (261.3k/s) |
//   eta 61s | rss 142 MB
//
// stderr is a side channel: stdout tables and every --jsonl/--csv byte are
// untouched, so the determinism gates hold with the heartbeat on.
//
// Producers only have to keep three metrics honest (obs/metrics.hpp
// names): `engine.shards_planned` (add the batch size when a pass starts),
// `engine.shards_done` (add 1 per completed shard) and
// `census.topologies_profiled` (add per-shard topology counts). Scenarios
// with no shard structure still get elapsed time and RSS.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <thread>

namespace bnf::obs {

class progress_reporter {
 public:
  /// Starts the monitor thread. `interval_seconds` <= 0 falls back to the
  /// default heartbeat (5 s).
  explicit progress_reporter(double interval_seconds, std::ostream& err);

  /// Stops the monitor and prints one final line (when anything was
  /// reported at all).
  ~progress_reporter();

  progress_reporter(const progress_reporter&) = delete;
  progress_reporter& operator=(const progress_reporter&) = delete;

 private:
  void monitor_loop(double interval_seconds);
  void print_line(double elapsed_s, bool final_line);

  std::ostream& err_;
  std::mutex mutex_;
  std::condition_variable stop_wake_;
  bool stopping_{false};
  bool printed_{false};
  // Counter baselines at construction (metrics are process-wide and
  // monotone; the heartbeat reports THIS run's deltas).
  std::uint64_t base_planned_{0};
  std::uint64_t base_done_{0};
  std::uint64_t base_topologies_{0};
  // Last-tick state for throughput deltas.
  double last_tick_s_{0};
  std::uint64_t last_topologies_{0};
  std::chrono::steady_clock::time_point start_;
  std::thread monitor_;
};

}  // namespace bnf::obs
