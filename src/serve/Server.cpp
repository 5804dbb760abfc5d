//===- serve/Server.cpp ---------------------------------------------------===//

#include "serve/Server.h"

#include "support/FaultInjection.h"

#include <cstring>
#include <deque>
#include <errno.h>
#include <fcntl.h>
#include <mutex>
#include <poll.h>
#include <unistd.h>
#include <unordered_map>

using namespace jitml;

/// Per-connection state, owned by the event loop thread alone.
struct ModelServer::Connection {
  uint64_t Id = 0;
  std::unique_ptr<SocketTransport> Sock;
  std::vector<uint8_t> InBuf;      ///< unconsumed reassembly bytes
  std::deque<Message> Pending;     ///< parsed frames awaiting processing

  // The one request being answered asynchronously (clients are strictly
  // request/reply, so there is at most one).
  bool Busy = false;
  bool IsBatch = false;
  Message Reply;                   ///< assembled reply (batch: prefilled)
  size_t Remaining = 0;            ///< batcher results still missing
  uint64_t ReqStartUs = 0;

  bool PeerClosed = false; ///< EOF seen / Bye; no more reads or writes
  bool Dead = false;       ///< protocol or write failure; discard asap

  bool idle() const { return !Busy && Pending.empty(); }
};

struct ModelServer::Impl {
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> Conns;
  uint64_t NextConnId = 1;
  int WakeR = -1, WakeW = -1;

  std::mutex ResultMu;
  std::vector<PredictResult> Results;

  std::atomic<uint64_t> Accepts{0}, AcceptFails{0}, Rejected{0};
  std::atomic<uint64_t> ConnCount{0};
  std::atomic<uint64_t> Requests{0}, BatchRequests{0}, Entries{0};
  std::atomic<uint64_t> Served{0}, Degraded{0};
  std::atomic<uint64_t> Shed{0}, ShedEntries{0};
  std::atomic<uint64_t> CacheHits{0}, HelloRejects{0}, Malformed{0};

  TelemetryCounter *AcceptsCtr, *AcceptFailsCtr, *RequestsCtr, *ServedCtr,
      *DegradedCtr, *ShedCtr, *HelloRejectsCtr, *MalformedCtr;
  TelemetryGauge *ConnGauge, *InflightGauge;
  TelemetryHistogram *RequestUs;
};

ModelServer::ModelServer(ModelRegistry &Registry, ServeConfig Cfg)
    : Registry(Registry), Cfg(std::move(Cfg)),
      Cache(this->Cfg.CacheCapacity), I(new Impl) {
  MetricRegistry &R = MetricRegistry::global();
  I->AcceptsCtr = &R.counter("serve.accepts");
  I->AcceptFailsCtr = &R.counter("serve.accept_fails");
  I->RequestsCtr = &R.counter("serve.requests");
  I->ServedCtr = &R.counter("serve.served");
  I->DegradedCtr = &R.counter("serve.degraded");
  I->ShedCtr = &R.counter("serve.shed");
  I->HelloRejectsCtr = &R.counter("serve.hello_rejects");
  I->MalformedCtr = &R.counter("serve.malformed");
  I->ConnGauge = &R.gauge("serve.connections");
  I->InflightGauge = &R.gauge("serve.inflight");
  I->RequestUs = &R.histogram("serve.request");
  Batcher = std::make_unique<MicroBatcher>(
      Registry, this->Cfg.CacheCapacity ? &Cache : nullptr, InflightEntries,
      this->Cfg.BatchDeadlineUs, this->Cfg.BatchLingerUs, MaxBatchEntries,
      [this](std::vector<PredictResult> &&Rs) { onResults(std::move(Rs)); });
}

ModelServer::~ModelServer() {
  stop();
  delete I;
}

bool ModelServer::start() {
  if (LoopThread.joinable())
    return Running.load(std::memory_order_acquire);
  Listener = SocketListener::listen(Cfg.SocketPath);
  if (!Listener)
    return false;
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Listener.reset();
    return false;
  }
  ::fcntl(Pipe[0], F_SETFL, O_NONBLOCK);
  ::fcntl(Pipe[1], F_SETFL, O_NONBLOCK);
  I->WakeR = Pipe[0];
  I->WakeW = Pipe[1];
  StopRequested.store(false, std::memory_order_release);
  Batcher->start();
  Running.store(true, std::memory_order_release);
  LoopThread = std::thread([this] { loop(); });
  return true;
}

void ModelServer::stop() {
  if (!LoopThread.joinable())
    return;
  StopRequested.store(true, std::memory_order_release);
  wake();
  LoopThread.join();
  Batcher->stop();
  Running.store(false, std::memory_order_release);
  if (I->WakeR >= 0)
    ::close(I->WakeR);
  if (I->WakeW >= 0)
    ::close(I->WakeW);
  I->WakeR = I->WakeW = -1;
  Listener.reset();
}

void ModelServer::wake() {
  uint8_t B = 1;
  if (I->WakeW >= 0)
    (void)!::write(I->WakeW, &B, 1); // pipe full = a wake is already pending
}

void ModelServer::onResults(std::vector<PredictResult> &&Results) {
  {
    std::lock_guard<std::mutex> Lock(I->ResultMu);
    for (PredictResult &R : Results)
      I->Results.push_back(std::move(R));
  }
  wake();
}

ModelServer::Stats ModelServer::stats() const {
  Stats S;
  S.Accepts = I->Accepts.load(std::memory_order_relaxed);
  S.AcceptFails = I->AcceptFails.load(std::memory_order_relaxed);
  S.Rejected = I->Rejected.load(std::memory_order_relaxed);
  S.Connections = I->ConnCount.load(std::memory_order_relaxed);
  S.Requests = I->Requests.load(std::memory_order_relaxed);
  S.BatchRequests = I->BatchRequests.load(std::memory_order_relaxed);
  S.Entries = I->Entries.load(std::memory_order_relaxed);
  S.Served = I->Served.load(std::memory_order_relaxed);
  S.Degraded = I->Degraded.load(std::memory_order_relaxed);
  S.Shed = I->Shed.load(std::memory_order_relaxed);
  S.ShedEntries = I->ShedEntries.load(std::memory_order_relaxed);
  S.CacheHits = I->CacheHits.load(std::memory_order_relaxed);
  S.HelloRejects = I->HelloRejects.load(std::memory_order_relaxed);
  S.Malformed = I->Malformed.load(std::memory_order_relaxed);
  S.Inflight = InflightEntries.load(std::memory_order_relaxed);
  return S;
}

namespace {

uint32_t readLe32(const uint8_t *P) {
  return (uint32_t)P[0] | ((uint32_t)P[1] << 8) | ((uint32_t)P[2] << 16) |
         ((uint32_t)P[3] << 24);
}

/// Largest frame the reassembler will buffer — same 1 MiB cap
/// recvMessageFor enforces; a larger prefix is unframeable garbage.
constexpr uint32_t MaxFrameBytes = 1u << 20;

FeatureVector toFeatureVector(const std::vector<double> &Raw) {
  FeatureVector FV;
  for (unsigned J = 0; J < NumFeatures; ++J)
    FV.set(J, (uint32_t)Raw[J]);
  return FV;
}

} // namespace

void ModelServer::loop() {
  // All connection state is owned by this thread; the batcher only ever
  // touches the result queue + wake pipe.
  auto WriteMessage = [&](Connection &C, const Message &M) {
    if (C.PeerClosed || C.Dead)
      return;
    std::vector<uint8_t> Frame;
    encodeMessageFrame(M, Frame);
    if (!C.Sock->writeBytes(Frame.data(), Frame.size())) {
      C.Dead = true;
      C.PeerClosed = true;
    }
  };

  auto FinishRequest = [&](Connection &C) {
    int64_t Items = C.IsBatch ? (int64_t)C.Reply.BatchModifiers.size() : 1;
    WriteMessage(C, C.Reply);
    C.Busy = false;
    C.Reply = Message();
    uint64_t DurUs = telemetryNowUs() - C.ReqStartUs;
    I->RequestUs->record(DurUs);
    if (TraceEmitter::global().enabled()) {
      TraceEvent E;
      E.Stage = "serve.request";
      E.StartUs = C.ReqStartUs;
      E.DurUs = DurUs;
      E.Items = Items;
      TraceEmitter::global().record(E);
    }
  };

  auto CountAnswer = [&](bool Has) {
    if (Has) {
      I->Served.fetch_add(1, std::memory_order_relaxed);
      I->ServedCtr->add();
    } else {
      I->Degraded.fetch_add(1, std::memory_order_relaxed);
      I->DegradedCtr->add();
    }
  };

  auto ShedFrame = [&](Connection &C, size_t NumEntries) {
    I->Shed.fetch_add(1, std::memory_order_relaxed);
    I->ShedEntries.fetch_add(NumEntries, std::memory_order_relaxed);
    I->ShedCtr->add();
    Message Reply;
    Reply.Type = MsgType::Error;
    Reply.Text = "server overloaded: request shed";
    WriteMessage(C, Reply);
  };

  // Admission control: would admitting NumEntries more exceed the bound?
  // The "serve.shed" fault point forces the shed path regardless of load.
  auto MustShed = [&](size_t NumEntries) {
    if (JITML_FAULT_POINT("serve.shed"))
      return true;
    return InflightEntries.load(std::memory_order_relaxed) + NumEntries >
           Cfg.MaxInflight;
  };

  auto HandleFrame = [&](Connection &C, Message &M) {
    switch (M.Type) {
    case MsgType::Hello: {
      Message Reply;
      if (M.Version != ProtocolVersion) {
        I->HelloRejects.fetch_add(1, std::memory_order_relaxed);
        I->HelloRejectsCtr->add();
        Reply.Type = MsgType::Error;
        Reply.Text = "unsupported protocol version";
      } else {
        Reply.Type = MsgType::Hello;
        Reply.Version = ProtocolVersion;
      }
      WriteMessage(C, Reply);
      break;
    }
    case MsgType::Bye:
      C.PeerClosed = true;
      C.Pending.clear();
      break;
    case MsgType::Features: {
      I->Requests.fetch_add(1, std::memory_order_relaxed);
      I->Entries.fetch_add(1, std::memory_order_relaxed);
      I->RequestsCtr->add();
      C.ReqStartUs = telemetryNowUs();
      if (M.FeatureValues.size() != NumFeatures) {
        Message Reply;
        Reply.Type = MsgType::Error;
        Reply.Text = "feature count mismatch";
        CountAnswer(false);
        WriteMessage(C, Reply);
        break;
      }
      if (MustShed(1)) {
        ShedFrame(C, 1);
        break;
      }
      FeatureVector FV = toFeatureVector(M.FeatureValues);
      uint64_t Hash = FV.hash();
      uint64_t Version = Registry.version();
      std::optional<uint64_t> Answer;
      if (Cfg.CacheCapacity &&
          Cache.lookup(Version, M.Level, Hash, Answer)) {
        I->CacheHits.fetch_add(1, std::memory_order_relaxed);
        Message Reply;
        if (Answer) {
          Reply.Type = MsgType::Modifier;
          Reply.ModifierBits = *Answer;
        } else {
          Reply.Type = MsgType::Error;
          Reply.Text = "no model for level";
        }
        CountAnswer(Answer.has_value());
        WriteMessage(C, Reply);
        uint64_t DurUs = telemetryNowUs() - C.ReqStartUs;
        I->RequestUs->record(DurUs);
        break;
      }
      C.Busy = true;
      C.IsBatch = false;
      C.Remaining = 1;
      C.Reply = Message();
      InflightEntries.fetch_add(1, std::memory_order_relaxed);
      I->InflightGauge->set(
          (int64_t)InflightEntries.load(std::memory_order_relaxed));
      PredictRequest R;
      R.ConnId = C.Id;
      R.Tag = 0;
      R.Level = M.Level;
      R.Features = FV;
      R.FeatureHash = Hash;
      R.AdmitUs = C.ReqStartUs;
      Batcher->push(std::move(R));
      break;
    }
    case MsgType::FeatureBatch: {
      I->Requests.fetch_add(1, std::memory_order_relaxed);
      I->BatchRequests.fetch_add(1, std::memory_order_relaxed);
      I->Entries.fetch_add(M.BatchFeatures.size(), std::memory_order_relaxed);
      I->RequestsCtr->add();
      C.ReqStartUs = telemetryNowUs();
      if (MustShed(M.BatchFeatures.size())) {
        ShedFrame(C, M.BatchFeatures.size());
        break;
      }
      Message Reply;
      Reply.Type = MsgType::ModifierBatch;
      Reply.BatchModifiers.resize(M.BatchFeatures.size());
      uint64_t Version = Registry.version();
      std::vector<PredictRequest> Misses;
      for (size_t J = 0; J < M.BatchFeatures.size(); ++J) {
        const BatchFeatureEntry &E = M.BatchFeatures[J];
        if (E.FeatureValues.size() != NumFeatures) {
          CountAnswer(false); // HasModifier stays false
          continue;
        }
        FeatureVector FV = toFeatureVector(E.FeatureValues);
        uint64_t Hash = FV.hash();
        std::optional<uint64_t> Answer;
        if (Cfg.CacheCapacity &&
            Cache.lookup(Version, E.Level, Hash, Answer)) {
          I->CacheHits.fetch_add(1, std::memory_order_relaxed);
          if (Answer) {
            Reply.BatchModifiers[J].HasModifier = true;
            Reply.BatchModifiers[J].Bits = *Answer;
          }
          CountAnswer(Answer.has_value());
          continue;
        }
        PredictRequest R;
        R.ConnId = C.Id;
        R.Tag = (uint32_t)J;
        R.Level = E.Level;
        R.Features = FV;
        R.FeatureHash = Hash;
        R.AdmitUs = C.ReqStartUs;
        Misses.push_back(std::move(R));
      }
      if (Misses.empty()) {
        WriteMessage(C, Reply);
        uint64_t DurUs = telemetryNowUs() - C.ReqStartUs;
        I->RequestUs->record(DurUs);
        break;
      }
      C.Busy = true;
      C.IsBatch = true;
      C.Remaining = Misses.size();
      C.Reply = std::move(Reply);
      InflightEntries.fetch_add(Misses.size(), std::memory_order_relaxed);
      I->InflightGauge->set(
          (int64_t)InflightEntries.load(std::memory_order_relaxed));
      Batcher->pushMany(std::move(Misses));
      break;
    }
    default: {
      Message Reply;
      Reply.Type = MsgType::Error;
      Reply.Text = "unexpected message";
      WriteMessage(C, Reply);
      break;
    }
    }
  };

  auto ParseFrames = [&](Connection &C) {
    std::vector<uint8_t> &B = C.InBuf;
    size_t Off = 0;
    while (B.size() - Off >= 4) {
      uint32_t Len = readLe32(&B[Off]);
      if (Len == 0 || Len > MaxFrameBytes) {
        // Unframeable garbage: the stream can never re-align; drop the
        // connection (mirrors recvMessageFor's Closed classification).
        C.Dead = true;
        C.PeerClosed = true;
        C.Pending.clear();
        break;
      }
      if (B.size() - Off < 4 + (size_t)Len)
        break; // incomplete frame: wait for more bytes
      std::vector<uint8_t> Payload(B.begin() + Off + 4,
                                   B.begin() + Off + 4 + Len);
      Off += 4 + (size_t)Len;
      Message M;
      if (decodeMessagePayload(Payload, M) != RecvStatus::Ok) {
        // Frame-aligned but invalid content: answer Error, keep session.
        I->Malformed.fetch_add(1, std::memory_order_relaxed);
        I->MalformedCtr->add();
        Message Reply;
        Reply.Type = MsgType::Error;
        Reply.Text = "malformed frame";
        WriteMessage(C, Reply);
        continue;
      }
      C.Pending.push_back(std::move(M));
    }
    if (Off)
      B.erase(B.begin(), B.begin() + Off);
  };

  auto ProcessPending = [&](Connection &C) {
    while (!C.Busy && !C.Dead && !C.Pending.empty()) {
      Message M = std::move(C.Pending.front());
      C.Pending.pop_front();
      HandleFrame(C, M);
    }
  };

  auto ProcessResults = [&] {
    std::vector<PredictResult> Rs;
    {
      std::lock_guard<std::mutex> Lock(I->ResultMu);
      Rs.swap(I->Results);
    }
    for (PredictResult &R : Rs) {
      InflightEntries.fetch_sub(1, std::memory_order_relaxed);
      auto It = I->Conns.find(R.ConnId);
      if (It == I->Conns.end())
        continue; // connection already torn down (never while Busy)
      Connection &C = *It->second;
      if (C.IsBatch) {
        if (R.Tag < C.Reply.BatchModifiers.size()) {
          C.Reply.BatchModifiers[R.Tag].HasModifier = R.Has;
          C.Reply.BatchModifiers[R.Tag].Bits = R.Bits;
        }
      } else {
        if (R.Has) {
          C.Reply.Type = MsgType::Modifier;
          C.Reply.ModifierBits = R.Bits;
        } else {
          C.Reply.Type = MsgType::Error;
          C.Reply.Text = "no model for level";
        }
      }
      CountAnswer(R.Has);
      if (C.Remaining > 0 && --C.Remaining == 0)
        FinishRequest(C);
    }
    I->InflightGauge->set(
        (int64_t)InflightEntries.load(std::memory_order_relaxed));
  };

  auto Accept = [&] {
    std::unique_ptr<SocketTransport> Sock = Listener->accept();
    if (!Sock) {
      I->AcceptFails.fetch_add(1, std::memory_order_relaxed);
      I->AcceptFailsCtr->add();
      return;
    }
    if (I->Conns.size() >= Cfg.MaxConnections) {
      I->Rejected.fetch_add(1, std::memory_order_relaxed);
      return; // transport destructor closes: the client sees a clean EOF
    }
    auto C = std::make_unique<Connection>();
    C->Id = I->NextConnId++;
    C->Sock = std::move(Sock);
    uint64_t Id = C->Id;
    I->Conns.emplace(Id, std::move(C));
    I->Accepts.fetch_add(1, std::memory_order_relaxed);
    I->AcceptsCtr->add();
    I->ConnCount.store(I->Conns.size(), std::memory_order_relaxed);
    I->ConnGauge->set((int64_t)I->Conns.size());
  };

  auto ReadConn = [&](Connection &C) {
    uint8_t Buf[4096];
    ssize_t N = C.Sock->readSome(Buf, sizeof(Buf));
    if (N <= 0) {
      // EOF (or error). Pending frames can no longer be answered; any
      // admitted entries still drain through the batcher so the inflight
      // accounting stays exact, then the connection is reaped.
      C.PeerClosed = true;
      C.Pending.clear();
      return;
    }
    C.InBuf.insert(C.InBuf.end(), Buf, Buf + N);
    ParseFrames(C);
  };

  bool ListenerClosed = false;
  std::vector<pollfd> Pfds;
  std::vector<uint64_t> PfdConn; // 0 = wake/listener slot

  for (;;) {
    bool Stopping = StopRequested.load(std::memory_order_acquire);
    if (Stopping && !ListenerClosed) {
      Listener->close(); // stop accepting; existing sessions drain
      ListenerClosed = true;
    }

    // Reap finished connections.
    for (auto It = I->Conns.begin(); It != I->Conns.end();) {
      Connection &C = *It->second;
      if ((C.PeerClosed || C.Dead) && !C.Busy)
        It = I->Conns.erase(It);
      else
        ++It;
    }
    I->ConnCount.store(I->Conns.size(), std::memory_order_relaxed);
    I->ConnGauge->set((int64_t)I->Conns.size());

    if (Stopping) {
      // Drained when every surviving connection is idle: every admitted
      // entry answered, every parsed frame processed.
      bool AllIdle = true;
      for (auto &KV : I->Conns)
        if (!KV.second->idle())
          AllIdle = false;
      if (AllIdle)
        break;
    }

    Pfds.clear();
    PfdConn.clear();
    Pfds.push_back({I->WakeR, POLLIN, 0});
    PfdConn.push_back(0);
    if (!ListenerClosed) {
      Pfds.push_back({Listener->fd(), POLLIN, 0});
      PfdConn.push_back(0);
    }
    for (auto &KV : I->Conns) {
      Connection &C = *KV.second;
      // Backpressure: stop reading a pipelining client that has banked
      // MaxPendingFrames unprocessed frames. During drain, stop reading
      // entirely — the remaining work is answering what's admitted.
      if (!Stopping && !C.PeerClosed && !C.Dead &&
          C.Pending.size() < Cfg.MaxPendingFrames) {
        Pfds.push_back({C.Sock->fd(), POLLIN, 0});
        PfdConn.push_back(C.Id);
      }
    }

    int NReady = ::poll(Pfds.data(), (nfds_t)Pfds.size(), -1);
    if (NReady < 0) {
      if (errno == EINTR)
        continue;
      break; // poll itself failing is unrecoverable for the loop
    }

    for (size_t J = 0; J < Pfds.size(); ++J) {
      if (!(Pfds[J].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (PfdConn[J] == 0) {
        if (Pfds[J].fd == I->WakeR) {
          uint8_t Drain[64];
          while (::read(I->WakeR, Drain, sizeof(Drain)) > 0)
            ;
        } else {
          Accept();
        }
        continue;
      }
      auto It = I->Conns.find(PfdConn[J]);
      if (It != I->Conns.end())
        ReadConn(*It->second);
    }

    ProcessResults();
    for (auto &KV : I->Conns)
      ProcessPending(*KV.second);
  }

  // Shutdown: every connection is idle; close them all.
  I->Conns.clear();
  I->ConnCount.store(0, std::memory_order_relaxed);
  I->ConnGauge->set(0);
}
