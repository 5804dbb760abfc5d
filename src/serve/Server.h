//===- serve/Server.h - Multi-client model-serving daemon ------*- C++ -*-===//
///
/// \file
/// The production replacement for the paper's one-pipe-per-JVM deployment:
/// one daemon, many VirtualMachine/ResilientModelClient connections, one
/// shared model. Architecture:
///
///   clients ──► SocketListener ──► poll(2) event loop ─┬─► inline replies
///                                   (frame reassembly,  │   (Hello, cache
///                                    admission control) │    hits, sheds)
///                                                       ▼
///                                               MicroBatcher ──► dense
///                                               (cross-client    predict
///                                                coalescing)     kernels
///                                                       │
///                  replies ◄── event loop ◄── wake pipe ┘
///
/// Admission control: at most MaxInflight admitted-but-unanswered entries.
/// Over capacity the daemon answers Error immediately (a shed), which the
/// ResilientModelClient already treats as a definitive "use the hand-tuned
/// plan" — overload degrades compilation quality, never availability, and
/// never wedges the event loop behind a backlog it cannot clear.
///
/// Protocol invariants: the wire format is the bridge's framed Message
/// protocol, unchanged — any existing client works against the daemon.
/// Each connection's replies are written only by the event loop thread, in
/// request order, so the strict request/reply clients never see
/// interleaved frames.
///
/// Shutdown: stop() drains — admitted requests finish (on whatever model
/// version they started with), assembled replies are written, then
/// connections close. No inflight frame is left unanswered.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_SERVE_SERVER_H
#define JITML_SERVE_SERVER_H

#include "bridge/ModelService.h"
#include "serve/Batcher.h"
#include "serve/PredictionCache.h"
#include "serve/Registry.h"

#include <atomic>
#include <memory>
#include <thread>

namespace jitml {

/// The daemon's settings. The program that starts a ModelServer sets
/// these fields; no environment variable overrides them.
struct ServeConfig {
  /// Unix-domain socket path the daemon listens on.
  std::string SocketPath = "/tmp/jitml-serve.sock";
  /// Micro-batch deadline: how long the batcher waits past a batch's
  /// first entry for more clients to coalesce (it closes early once it
  /// holds every outstanding entry).
  int BatchDeadlineUs = 200;
  /// Straggler window: once the batch covers every outstanding entry the
  /// batcher still lingers this long for late frames (admissions arrive
  /// staggered by socket reads), extending while the batch grows. Clamped
  /// to BatchDeadlineUs; 0 closes on first quiescence.
  int BatchLingerUs = 25;
  /// Admission-control bound on admitted-but-unanswered entries; above
  /// it, requests are shed with an Error reply.
  size_t MaxInflight = 256;
  /// Shared prediction cache entries; 0 disables the cache.
  size_t CacheCapacity = 4096;
  /// Connections above this are accepted and immediately closed.
  size_t MaxConnections = 128;
  /// Parsed-but-unprocessed frames tolerated per connection before the
  /// daemon stops reading that socket (backpressure on pipelining
  /// clients).
  size_t MaxPendingFrames = 16;
};

class ModelServer {
public:
  ModelServer(ModelRegistry &Registry, ServeConfig Cfg);
  ~ModelServer(); ///< stop()

  ModelServer(const ModelServer &) = delete;
  ModelServer &operator=(const ModelServer &) = delete;

  /// Binds the socket and spawns the event loop + batcher threads; false
  /// when the socket cannot be created (daemon not started).
  bool start();

  /// Graceful drain: stop accepting, stop reading, answer everything
  /// admitted, close every connection, join the threads. Idempotent.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }

  struct Stats {
    uint64_t Accepts = 0;       ///< connections accepted and served
    uint64_t AcceptFails = 0;   ///< accept failures (incl. forced fault)
    uint64_t Rejected = 0;      ///< over MaxConnections, closed on arrival
    uint64_t Connections = 0;   ///< currently open
    uint64_t Requests = 0;      ///< Features + FeatureBatch frames
    uint64_t BatchRequests = 0; ///< FeatureBatch frames alone
    uint64_t Entries = 0;       ///< prediction entries across all frames
    uint64_t Served = 0;        ///< entries answered with real modifiers
    uint64_t Degraded = 0;      ///< entries answered "no model" / bad dim
    uint64_t Shed = 0;          ///< frames refused by admission control
    uint64_t ShedEntries = 0;   ///< entries inside shed frames
    uint64_t CacheHits = 0;     ///< entries answered from the shared cache
    uint64_t HelloRejects = 0;  ///< version-mismatch Hello frames
    uint64_t Malformed = 0;     ///< malformed frames answered with Error
    uint64_t Inflight = 0;      ///< admitted entries awaiting an answer
  };
  Stats stats() const;

  const ServeConfig &config() const { return Cfg; }
  PredictionCache &cache() { return Cache; }

private:
  struct Connection;
  struct Impl;

  void loop();
  void onResults(std::vector<PredictResult> &&Results);
  void wake();

  ModelRegistry &Registry;
  ServeConfig Cfg;
  PredictionCache Cache;
  std::atomic<uint64_t> InflightEntries{0};
  std::unique_ptr<MicroBatcher> Batcher;
  std::unique_ptr<SocketListener> Listener;
  std::thread LoopThread;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopRequested{false};
  Impl *I;
};

} // namespace jitml

#endif // JITML_SERVE_SERVER_H
