//===- bridge/ResilientClient.h - Hardened model client ---------*- C++ -*-===//
///
/// \file
/// Production wrapper around the bridge protocol's client side. The plain
/// ModelClient blocks forever on a slow or dead model service; in a JIT
/// that means a hung compilation. This client adds:
///
///  * a per-request deadline (the whole round trip, not per syscall),
///  * bounded retry with exponential backoff over a reconnectable
///    transport factory,
///  * graceful degradation — when the service cannot answer in time the
///    caller receives std::nullopt and compiles with the unmodified
///    hand-tuned plan,
///  * a prediction cache keyed by (OptLevel, FeatureVector::hash()) so
///    repeated compilations of equal feature vectors (common under the
///    collection mode's recompile-every-N policy) skip the round trip,
///  * counters for requests, cache hits, wire round trips, timeouts,
///    retries, fallbacks and bytes on the wire, so experiments can report
///    model-service overhead.
///
/// Timeout semantics: a deadline can expire mid-frame, leaving the byte
/// stream unframeable, so a timed-out (or broken) connection is dropped
/// and re-established through the factory before the next attempt. When
/// the client owns a single non-reconnectable transport, the first
/// failure poisons it and every later request falls back immediately —
/// degraded but never hung.
///
/// Thread safety: one client may be shared by the async pipeline's worker
/// threads. All public entry points serialize on an internal mutex — the
/// protocol is strictly request/reply over a single connection, so
/// serialization is the correct concurrency model (interleaved frames
/// from two threads would corrupt the stream). Workers that want
/// concurrency across a backlog should use requestModifierBatch, which
/// amortizes one lock/round trip over many predictions.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BRIDGE_RESILIENTCLIENT_H
#define JITML_BRIDGE_RESILIENTCLIENT_H

#include "bridge/ModelService.h"
#include "support/Telemetry.h"

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace jitml {

/// Monotonic counters describing one client's bridge traffic.
struct BridgeCounters {
  uint64_t Requests = 0;      ///< requestModifier calls
  uint64_t CacheHits = 0;     ///< answered from the prediction cache
  uint64_t CacheFlushes = 0;  ///< times the bounded cache was reset
  uint64_t WireRequests = 0;  ///< round trips actually attempted
  uint64_t Timeouts = 0;      ///< round trips that hit the deadline
  uint64_t Retries = 0;       ///< additional attempts after a failure
  uint64_t Reconnects = 0;    ///< successful factory reconnects
  uint64_t ErrorReplies = 0;  ///< server answered with an Error message
  uint64_t Fallbacks = 0;     ///< requests resolved to "use the base plan"
  uint64_t BatchRequests = 0; ///< requestModifierBatch calls
  uint64_t BatchItems = 0;    ///< entries across all batch calls
  uint64_t BytesSent = 0;     ///< wire bytes written (framing included)
  uint64_t BytesReceived = 0; ///< wire bytes read

  /// Stable (name, value) rows for reports.
  std::vector<std::pair<std::string, uint64_t>> rows() const;
  /// Aligned table via support/Statistics' counter formatting.
  std::string toText() const;
};

class ResilientModelClient {
public:
  struct Config {
    /// Whole-round-trip deadline per attempt; <0 waits forever (which
    /// defeats the purpose — only for tests).
    int RequestTimeoutMs = 100;
    /// Total attempts per request (first try + retries).
    unsigned MaxAttempts = 3;
    /// Backoff before the Nth retry: Initial * Multiplier^(N-1).
    int InitialBackoffMs = 1;
    double BackoffMultiplier = 2.0;
    /// Prediction cache capacity in entries; 0 disables caching. When
    /// full the cache is flushed wholesale (counted in CacheFlushes).
    size_t CacheCapacity = 4096;
    /// Also cache definitive Error replies ("no model for level") so an
    /// uncovered level does not pay a round trip per compilation.
    bool CacheErrorReplies = true;
  };

  /// Opens (or reopens) a connected transport; nullptr when the service
  /// is unreachable right now.
  using TransportFactory = std::function<std::unique_ptr<Transport>()>;

  /// Single-connection mode: no reconnects, first failure degrades to
  /// fallback-only.
  ResilientModelClient(std::unique_ptr<Transport> T, Config C);
  explicit ResilientModelClient(std::unique_ptr<Transport> T)
      : ResilientModelClient(std::move(T), Config()) {}

  /// Reconnectable mode: the factory is invoked lazily and again after
  /// every timeout or broken connection.
  ResilientModelClient(TransportFactory F, Config C);
  explicit ResilientModelClient(TransportFactory F)
      : ResilientModelClient(std::move(F), Config()) {}

  ~ResilientModelClient();

  /// Requests a modifier for (Level, Features). std::nullopt means "use
  /// the unmodified hand-tuned plan" — either the server said so (Error
  /// reply) or the bridge could not answer within the deadline budget.
  /// Never blocks longer than roughly MaxAttempts * (timeout + backoff).
  std::optional<uint64_t> requestModifier(OptLevel Level,
                                          const FeatureVector &Features);

  /// One entry of a batched prediction request.
  struct BatchRequest {
    OptLevel Level = OptLevel::Cold;
    FeatureVector Features;
  };

  /// Predicts for a whole backlog in (at most ceil(n / MaxBatchEntries))
  /// wire round trips: cache hits are answered locally, the misses travel
  /// together in one FeatureBatch frame. The result has exactly one entry
  /// per request entry, in order; nullopt entries fall back to the
  /// unmodified plan. Same deadline/retry/fallback budget per round trip
  /// as requestModifier.
  std::vector<std::optional<uint64_t>>
  requestModifierBatch(const std::vector<BatchRequest> &Items);

  /// Polite shutdown of the current connection, if any.
  void bye();

  /// True while a usable connection exists (or can be created lazily).
  bool usable() const;

  /// Snapshot of the counters, including bytes on the live connection.
  BridgeCounters counters() const;
  const Config &config() const { return Cfg; }

private:
  void resolveTelemetry();
  bool ensureConnected();
  void dropConnection();
  /// One wire round trip. Returns true when a definitive answer arrived
  /// (Modifier or Error reply); false means the connection failed and was
  /// dropped.
  bool tryOnce(OptLevel Level, const FeatureVector &Features,
               std::optional<uint64_t> &Answer);
  /// One FeatureBatch round trip for \p Misses (indices into Items).
  bool tryBatchOnce(const std::vector<BatchRequest> &Items,
                    const std::vector<size_t> &Misses,
                    std::vector<std::optional<uint64_t>> &Answers);
  std::optional<uint64_t> requestModifierLocked(OptLevel Level,
                                                const FeatureVector &Features);
  void cacheInsert(uint64_t Key, std::optional<uint64_t> Answer);

  /// Process-wide metrics mirroring the hot BridgeCounters fields, plus
  /// round-trip latency distributions; resolved once at construction.
  struct TelemetryRefs {
    TelemetryCounter *Requests, *CacheHits, *Timeouts, *Retries,
        *Fallbacks, *ErrorReplies, *WireRequests;
    TelemetryHistogram *RequestUs, *BatchUs;
  };

  mutable std::mutex Mu; ///< serializes all public entry points
  TelemetryRefs Tel;
  Config Cfg;
  TransportFactory Factory;                ///< empty in single-connection mode
  std::unique_ptr<Transport> Owned;        ///< current raw connection
  std::unique_ptr<CountingTransport> Wire; ///< counting view over Owned
  bool HandshakeDone = false;
  bool Poisoned = false; ///< single-connection mode: failed for good
  std::unordered_map<uint64_t, std::optional<uint64_t>> Cache;
  BridgeCounters Count;
};

} // namespace jitml

#endif // JITML_BRIDGE_RESILIENTCLIENT_H
