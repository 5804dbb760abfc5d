//===- serve/Batcher.h - Deadline-bounded cross-client batching -*- C++ -*-===//
///
/// \file
/// The daemon's prediction engine: pending (level, features) entries from
/// ALL connected clients coalesce into one predictBatch call over the
/// dense scoring kernels, amortizing the thread handoff, the registry
/// snapshot, and the per-class row walk across every VM instance that has
/// a compilation waiting. Identical in-flight entries — a fleet compiling
/// the same hot method asks the same (level, feature-hash) question — are
/// additionally deduplicated within the batch: one dense row is computed
/// and its answer fans out to every asker (serve.coalesced counts these).
///
/// Batch closing policy — a batch closes as soon as ANY of:
///  * it holds every currently-admitted-but-unanswered entry (the
///    Outstanding counter the server maintains) AND a short linger window
///    passes without a new arrival. The linger matters: admissions are
///    staggered by socket reads, so "the batch holds everything admitted"
///    is routinely true a few microseconds before the other clients'
///    frames land — closing instantly would degenerate into batches of
///    one with a full thread handoff each (measured: it halves
///    throughput). Every arrival during the linger extends it;
///  * it reaches MaxBatch entries (the wire-protocol batch cap);
///  * the deadline (ServeConfig::BatchDeadlineUs past the batch's first
///    entry) expires: a straggler whose frame is still being reassembled
///    must not stall everyone else.
///
/// At steady state with N synchronous clients this self-clocks into
/// batches of ~N at one linger (tens of us) of added latency.
///
/// stop() drains: every entry already pushed is still predicted and
/// flushed before the thread exits, so graceful shutdown never leaves an
/// unanswered inflight frame.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_SERVE_BATCHER_H
#define JITML_SERVE_BATCHER_H

#include "serve/PredictionCache.h"
#include "serve/Registry.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

namespace jitml {

/// One admitted prediction request, as the event loop hands it over.
struct PredictRequest {
  uint64_t ConnId = 0;  ///< server-side connection identity
  uint32_t Tag = 0;     ///< entry index within the client's request frame
  OptLevel Level = OptLevel::Cold;
  FeatureVector Features;
  uint64_t FeatureHash = 0; ///< Features.hash(), computed once at admit
  uint64_t AdmitUs = 0;     ///< telemetryNowUs() at admission
};

/// One prediction outcome, flushed back to the event loop.
struct PredictResult {
  uint64_t ConnId = 0;
  uint32_t Tag = 0;
  bool Has = false;    ///< false: no model for this level (degraded entry)
  uint64_t Bits = 0;
  uint64_t Version = 0; ///< model version that answered
  uint64_t AdmitUs = 0;
};

class MicroBatcher {
public:
  /// \p Flush runs on the batcher thread with each completed batch; the
  /// server posts the results to its event loop from there. \p Outstanding
  /// is the server's admitted-but-unanswered entry count (see the batch
  /// closing policy above). \p Cache may be null (caching disabled).
  /// \p LingerUs is the straggler window described above (clamped to the
  /// deadline; 0 restores close-on-first-quiescence).
  MicroBatcher(ModelRegistry &Registry, PredictionCache *Cache,
               const std::atomic<uint64_t> &Outstanding, int DeadlineUs,
               int LingerUs, size_t MaxBatch,
               std::function<void(std::vector<PredictResult> &&)> Flush);
  ~MicroBatcher(); ///< stop()

  void start();
  /// Drains the queue (every pushed entry is still predicted and flushed),
  /// then joins the thread. Idempotent.
  void stop();

  void push(PredictRequest R);
  void pushMany(std::vector<PredictRequest> Rs);

  uint64_t batches() const { return Batches.load(std::memory_order_relaxed); }
  uint64_t entries() const { return Entries.load(std::memory_order_relaxed); }

private:
  void run();
  /// Predicts one closed batch and hands the results to Flush.
  void processBatch(std::vector<PredictRequest> &Batch);

  ModelRegistry &Registry;
  PredictionCache *Cache;
  const std::atomic<uint64_t> &Outstanding;
  const int DeadlineUs;
  const int LingerUs;
  const size_t MaxBatch;
  std::function<void(std::vector<PredictResult> &&)> Flush;

  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<PredictRequest> Queue;
  bool Stopping = false;
  bool Started = false;
  std::thread Worker;

  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> Entries{0};
  TelemetryCounter *BatchesCtr, *EntriesCtr, *PredictionsCtr, *CoalescedCtr;
  TelemetryHistogram *BatchUs, *BatchFill;
};

} // namespace jitml

#endif // JITML_SERVE_BATCHER_H
