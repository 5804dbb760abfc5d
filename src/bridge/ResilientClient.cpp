//===- bridge/ResilientClient.cpp -----------------------------------------===//

#include "bridge/ResilientClient.h"

#include "support/FaultInjection.h"
#include "support/Statistics.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace jitml;

std::vector<std::pair<std::string, uint64_t>> BridgeCounters::rows() const {
  return {
      {"requests", Requests},         {"cacheHits", CacheHits},
      {"cacheFlushes", CacheFlushes}, {"wireRequests", WireRequests},
      {"timeouts", Timeouts},         {"retries", Retries},
      {"reconnects", Reconnects},     {"errorReplies", ErrorReplies},
      {"fallbacks", Fallbacks},       {"batchRequests", BatchRequests},
      {"batchItems", BatchItems},     {"bytesSent", BytesSent},
      {"bytesReceived", BytesReceived},
  };
}

std::string BridgeCounters::toText() const {
  std::vector<CounterRow> Rows;
  for (const auto &[Name, Value] : rows())
    Rows.push_back({Name, Value});
  return formatCounterTable(Rows);
}

namespace {

/// Cache key: the feature hash stirred with the level so equal vectors at
/// different levels occupy distinct slots.
uint64_t cacheKey(OptLevel Level, uint64_t FeatureHash) {
  return FeatureHash ^ (0x9e3779b97f4a7c15ULL * ((uint64_t)Level + 1));
}

void realSleep(int Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

} // namespace

void ResilientModelClient::resolveTelemetry() {
  MetricRegistry &R = MetricRegistry::global();
  Tel.Requests = &R.counter("bridge.requests");
  Tel.CacheHits = &R.counter("bridge.cache_hits");
  Tel.Timeouts = &R.counter("bridge.timeouts");
  Tel.Retries = &R.counter("bridge.retries");
  Tel.Fallbacks = &R.counter("bridge.fallbacks");
  Tel.ErrorReplies = &R.counter("bridge.error_replies");
  Tel.WireRequests = &R.counter("bridge.wire_requests");
  Tel.RequestUs = &R.histogram("bridge.request");
  Tel.BatchUs = &R.histogram("bridge.batch");
}

ResilientModelClient::ResilientModelClient(std::unique_ptr<Transport> T,
                                           Config C)
    : Cfg(C), Owned(std::move(T)) {
  resolveTelemetry();
  if (Owned)
    Wire = std::make_unique<CountingTransport>(*Owned);
  else
    Poisoned = true;
}

ResilientModelClient::ResilientModelClient(TransportFactory F, Config C)
    : Cfg(C), Factory(std::move(F)) {
  resolveTelemetry();
}

ResilientModelClient::~ResilientModelClient() { bye(); }

bool ResilientModelClient::usable() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return !Poisoned && (Wire != nullptr || Factory != nullptr);
}

BridgeCounters ResilientModelClient::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  BridgeCounters C = Count;
  if (Wire) {
    C.BytesSent += Wire->bytesSent();
    C.BytesReceived += Wire->bytesReceived();
  }
  return C;
}

void ResilientModelClient::dropConnection() {
  if (Wire) {
    Count.BytesSent += Wire->bytesSent();
    Count.BytesReceived += Wire->bytesReceived();
  }
  Wire.reset();
  Owned.reset();
  HandshakeDone = false;
  if (!Factory)
    Poisoned = true; // nothing to reconnect with
}

bool ResilientModelClient::ensureConnected() {
  if (Poisoned)
    return false;
  if (!Wire) {
    if (!Factory)
      return false;
    if (JITML_FAULT_POINT("client.connect.fail"))
      return false; // simulated reconnect failure; retry loop handles it
    Owned = Factory();
    if (!Owned)
      return false;
    Wire = std::make_unique<CountingTransport>(*Owned);
    HandshakeDone = false;
    ++Count.Reconnects;
  }
  if (!HandshakeDone) {
    Message Hello;
    Hello.Type = MsgType::Hello;
    Hello.Version = 1;
    if (!sendMessage(*Wire, Hello)) {
      dropConnection();
      return false;
    }
    Message Reply;
    RecvStatus S = recvMessageFor(*Wire, Reply, Cfg.RequestTimeoutMs);
    if (S != RecvStatus::Ok || Reply.Type != MsgType::Hello ||
        Reply.Version != 1) {
      if (S == RecvStatus::Timeout) {
        ++Count.Timeouts;
        Tel.Timeouts->add();
      }
      dropConnection();
      return false;
    }
    HandshakeDone = true;
  }
  return true;
}

bool ResilientModelClient::tryOnce(OptLevel Level,
                                   const FeatureVector &Features,
                                   std::optional<uint64_t> &Answer) {
  Message M;
  M.Type = MsgType::Features;
  M.Level = Level;
  M.FeatureValues.reserve(NumFeatures);
  for (unsigned I = 0; I < NumFeatures; ++I)
    M.FeatureValues.push_back((double)Features.get(I));
  ++Count.WireRequests;
  Tel.WireRequests->add();
  if (!sendMessage(*Wire, M)) {
    dropConnection();
    return false;
  }
  Message Reply;
  RecvStatus S = JITML_FAULT_POINT("client.request.timeout")
                     ? RecvStatus::Timeout
                     : recvMessageFor(*Wire, Reply, Cfg.RequestTimeoutMs);
  if (S == RecvStatus::Timeout) {
    ++Count.Timeouts;
    Tel.Timeouts->add();
    dropConnection(); // the stream may be mid-frame: unusable
    return false;
  }
  if (S != RecvStatus::Ok) {
    dropConnection();
    return false;
  }
  if (Reply.Type == MsgType::Modifier) {
    Answer = Reply.ModifierBits;
    return true;
  }
  if (Reply.Type == MsgType::Error) {
    ++Count.ErrorReplies;
    Tel.ErrorReplies->add();
    Answer = std::nullopt; // definitive "no model" answer
    return true;
  }
  // A reply that is neither Modifier nor Error means the peer is not
  // speaking our dialect; stop trusting the connection.
  dropConnection();
  return false;
}

void ResilientModelClient::cacheInsert(uint64_t Key,
                                       std::optional<uint64_t> Answer) {
  if (Cfg.CacheCapacity == 0)
    return;
  if (!Answer && !Cfg.CacheErrorReplies)
    return;
  if (Cache.size() >= Cfg.CacheCapacity) {
    Cache.clear(); // wholesale flush keeps the bound without LRU bookkeeping
    ++Count.CacheFlushes;
  }
  Cache.emplace(Key, Answer);
}

std::optional<uint64_t>
ResilientModelClient::requestModifier(OptLevel Level,
                                      const FeatureVector &Features) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t StartUs = telemetryNowUs();
  std::optional<uint64_t> Answer = requestModifierLocked(Level, Features);
  uint64_t DurUs = telemetryNowUs() - StartUs;
  Tel.RequestUs->record(DurUs);
  if (TraceEmitter::global().enabled()) {
    TraceEvent E;
    E.Stage = "bridge_request";
    E.StartUs = StartUs;
    E.DurUs = DurUs;
    E.Level = (int)Level;
    E.Detail = Answer ? "modifier" : "fallback";
    E.Ok = Answer.has_value();
    TraceEmitter::global().record(E);
  }
  return Answer;
}

std::optional<uint64_t>
ResilientModelClient::requestModifierLocked(OptLevel Level,
                                            const FeatureVector &Features) {
  ++Count.Requests;
  Tel.Requests->add();
  uint64_t Key = cacheKey(Level, Features.hash());
  if (Cfg.CacheCapacity != 0) {
    auto It = Cache.find(Key);
    if (It != Cache.end()) {
      ++Count.CacheHits;
      Tel.CacheHits->add();
      if (!It->second)
        ++Count.Fallbacks, Tel.Fallbacks->add();
      return It->second;
    }
  }

  // Forced fallback: behave exactly as if every attempt failed, without
  // touching the wire — the caller must degrade to the default plan.
  if (JITML_FAULT_POINT("client.request.fallback")) {
    ++Count.Fallbacks, Tel.Fallbacks->add();
    return std::nullopt;
  }

  double Backoff = (double)Cfg.InitialBackoffMs;
  for (unsigned Attempt = 0; Attempt < Cfg.MaxAttempts; ++Attempt) {
    if (Attempt > 0) {
      if (Poisoned)
        break; // no way back: don't burn time sleeping
      ++Count.Retries;
      Tel.Retries->add();
      if (Backoff >= 1.0)
        realSleep((int)Backoff);
      Backoff *= Cfg.BackoffMultiplier;
    }
    if (!ensureConnected())
      continue;
    std::optional<uint64_t> Answer;
    if (tryOnce(Level, Features, Answer)) {
      cacheInsert(Key, Answer);
      if (!Answer)
        ++Count.Fallbacks, Tel.Fallbacks->add();
      return Answer;
    }
  }
  ++Count.Fallbacks, Tel.Fallbacks->add();
  return std::nullopt;
}

bool ResilientModelClient::tryBatchOnce(
    const std::vector<BatchRequest> &Items, const std::vector<size_t> &Misses,
    std::vector<std::optional<uint64_t>> &Answers) {
  Message M;
  M.Type = MsgType::FeatureBatch;
  M.BatchFeatures.resize(Misses.size());
  for (size_t I = 0; I < Misses.size(); ++I) {
    BatchFeatureEntry &E = M.BatchFeatures[I];
    E.Level = Items[Misses[I]].Level;
    E.FeatureValues.reserve(NumFeatures);
    for (unsigned F = 0; F < NumFeatures; ++F)
      E.FeatureValues.push_back((double)Items[Misses[I]].Features.get(F));
  }
  ++Count.WireRequests;
  Tel.WireRequests->add();
  if (!sendMessage(*Wire, M)) {
    dropConnection();
    return false;
  }
  Message Reply;
  RecvStatus S = JITML_FAULT_POINT("client.request.timeout")
                     ? RecvStatus::Timeout
                     : recvMessageFor(*Wire, Reply, Cfg.RequestTimeoutMs);
  if (S == RecvStatus::Timeout) {
    ++Count.Timeouts;
    Tel.Timeouts->add();
    dropConnection(); // the stream may be mid-frame: unusable
    return false;
  }
  if (S != RecvStatus::Ok) {
    dropConnection();
    return false;
  }
  if (Reply.Type == MsgType::ModifierBatch &&
      Reply.BatchModifiers.size() == Misses.size()) {
    for (size_t I = 0; I < Misses.size(); ++I) {
      const BatchModifierEntry &E = Reply.BatchModifiers[I];
      Answers[Misses[I]] =
          E.HasModifier ? std::optional<uint64_t>(E.Bits) : std::nullopt;
    }
    return true;
  }
  if (Reply.Type == MsgType::Error) {
    // Definitive server-side refusal: every entry falls back.
    ++Count.ErrorReplies;
    Tel.ErrorReplies->add();
    return true;
  }
  // Wrong reply type or wrong entry count: the peer is not speaking our
  // dialect; stop trusting the connection.
  dropConnection();
  return false;
}

std::vector<std::optional<uint64_t>> ResilientModelClient::requestModifierBatch(
    const std::vector<BatchRequest> &Items) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t StartUs = telemetryNowUs();
  ++Count.BatchRequests;
  Count.BatchItems += Items.size();
  std::vector<std::optional<uint64_t>> Answers(Items.size());

  // Answer what we can from the prediction cache; collect the misses.
  std::vector<size_t> Misses;
  std::vector<uint64_t> Keys(Items.size());
  for (size_t I = 0; I < Items.size(); ++I) {
    ++Count.Requests;
  Tel.Requests->add();
    Keys[I] = cacheKey(Items[I].Level, Items[I].Features.hash());
    if (Cfg.CacheCapacity != 0) {
      auto It = Cache.find(Keys[I]);
      if (It != Cache.end()) {
        ++Count.CacheHits;
        Tel.CacheHits->add();
        if (!It->second)
          ++Count.Fallbacks, Tel.Fallbacks->add();
        Answers[I] = It->second;
        continue;
      }
    }
    Misses.push_back(I);
  }

  // Forced fallback: skip the wire entirely so every miss degrades to the
  // default plan, as if the model service were unreachable.
  if (!Misses.empty() && JITML_FAULT_POINT("client.request.fallback")) {
    Count.Fallbacks += Misses.size();
    Tel.Fallbacks->add(Misses.size());
    Misses.clear();
  }

  // Ship the misses in protocol-sized chunks, each with the single-request
  // retry/backoff budget.
  for (size_t Start = 0; Start < Misses.size(); Start += MaxBatchEntries) {
    std::vector<size_t> Chunk(
        Misses.begin() + (std::ptrdiff_t)Start,
        Misses.begin() +
            (std::ptrdiff_t)std::min(Start + MaxBatchEntries, Misses.size()));
    bool Answered = false;
    double Backoff = (double)Cfg.InitialBackoffMs;
    for (unsigned Attempt = 0; Attempt < Cfg.MaxAttempts; ++Attempt) {
      if (Attempt > 0) {
        if (Poisoned)
          break;
        ++Count.Retries;
      Tel.Retries->add();
        if (Backoff >= 1.0)
          realSleep((int)Backoff);
        Backoff *= Cfg.BackoffMultiplier;
      }
      if (!ensureConnected())
        continue;
      if (tryBatchOnce(Items, Chunk, Answers)) {
        Answered = true;
        break;
      }
    }
    for (size_t I : Chunk) {
      if (Answered)
        cacheInsert(Keys[I], Answers[I]);
      if (!Answers[I])
        ++Count.Fallbacks, Tel.Fallbacks->add();
    }
  }
  uint64_t DurUs = telemetryNowUs() - StartUs;
  Tel.BatchUs->record(DurUs);
  if (TraceEmitter::global().enabled()) {
    TraceEvent E;
    E.Stage = "bridge_batch";
    E.StartUs = StartUs;
    E.DurUs = DurUs;
    E.Items = (int64_t)Items.size();
    TraceEmitter::global().record(E);
  }
  return Answers;
}

void ResilientModelClient::bye() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Wire)
    return;
  Message M;
  M.Type = MsgType::Bye;
  sendMessage(*Wire, M);
  Count.BytesSent += Wire->bytesSent();
  Count.BytesReceived += Wire->bytesReceived();
  Wire.reset();
  Owned.reset();
  HandshakeDone = false;
  if (!Factory)
    Poisoned = true; // no way to reconnect: later requests fall back fast
}