//===- perfbench/Workloads.cpp --------------------------------------------===//

#include "Workloads.h"

#include "bridge/ResilientClient.h"
#include "bridge/Transports.h"
#include "codegen/CodeGenerator.h"
#include "features/FeatureExtractor.h"
#include "il/ILGenerator.h"
#include "il/LoopInfo.h"
#include "jitml/LearnedStrategy.h"
#include "jitml/Training.h"
#include "runtime/AsyncCompiler.h"
#include "serve/Server.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <tuple>
#include <unistd.h>

using namespace jitml;
using namespace perfbench;

namespace {

uint64_t fnv(uint64_t H, uint64_t V) {
  return (H ^ V) * 1099511628211ull;
}
constexpr uint64_t FnvBasis = 1469598103934665603ull;

uint64_t bitsOf(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}

uint64_t textHash(uint64_t H, const std::string &S) {
  for (unsigned char C : S)
    H = fnv(H, C);
  return H;
}

/// The programs every workload draws from: the SPECjvm98 and DaCapo
/// stand-ins the paper's figures use. They stay fixed; the seed draws
/// everything the system is asked to do with them (collections, models,
/// migration patterns, request orders).
std::vector<WorkloadSpec> suite() {
  std::vector<WorkloadSpec> Out = specJvm98Suite();
  for (const WorkloadSpec &S : daCapoSuite())
    Out.push_back(S);
  return Out;
}

/// A collection scaled so one (benchmark, strategy) run takes about 20 ms
/// while still giving every learned level enough records: each learn cell
/// then repeats often enough in a run for its fastest run to be steady
/// (four iterations double both the time and the run-to-run spread).
CollectConfig learnConfig(uint64_t Seed) {
  CollectConfig CC;
  CC.Iterations = 2;
  CC.ModifiersPerLevel = 8;
  CC.UsesPerModifier = 2;
  CC.MaxRecompilesPerMethod = 20;
  CC.Seed = mix64(Seed ^ CC.Seed);
  return CC;
}

/// Models trained from a small randomized collection over the training
/// benchmarks: what the startup, compile and serve workloads deploy.
ModelSet trainedModels(uint64_t Seed) {
  IntermediateDataSet Data;
  for (const WorkloadSpec &S : trainingBenchmarks())
    Data.append(collectWithStrategy(S, learnConfig(Seed),
                                    SearchStrategy::Randomized));
  return trainModelSet(Data, "perfbench", TrainConfig());
}

/// Microseconds recorded so far in the program's histogram \p Name.
uint64_t histogramSumUs(const char *Name) {
  return MetricRegistry::global().histogram(Name).snapshot().Sum;
}

/// Simulated-clock seed of program \p Index under draw \p Seed. Fixed for
/// a run's input, so every repeat of that input does the same work.
uint64_t clockSeed(uint64_t Seed, size_t Index) {
  return mix64(Seed ^ (0xc10c4 + Index));
}

int64_t foldChecksum(const ExecResult &R) {
  return (int64_t)mix64((uint64_t)R.Ret.I);
}

std::vector<Program> buildSuite() {
  std::vector<Program> Out;
  for (const WorkloadSpec &S : suite())
    Out.push_back(buildWorkload(S));
  return Out;
}

/// One learning-enabled VM start-up: a program of the suite under one
/// simulated-clock seed (a migration pattern).
struct StartupCell {
  uint32_t Program;
  uint64_t ClockSeed;
};

/// Every program of the suite under two simulated-clock seeds drawn from
/// \p Seed: forty start-ups, enough for a tail.
std::vector<StartupCell> startupCells(uint64_t Seed, size_t NumPrograms) {
  std::vector<StartupCell> Out;
  for (uint32_t P = 0; P < NumPrograms; ++P)
    for (uint64_t Draw = 0; Draw < 2; ++Draw)
      Out.push_back({P, clockSeed(mix64(Seed) + Draw, P)});
  return Out;
}

/// One compile a learning-enabled VM issued: the modifier hook's arguments
/// and the model's answer.
struct HookCall {
  uint32_t Program;
  uint32_t Method;
  OptLevel Level;
  FeatureVector Features;
  PlanModifier Modifier;
};

/// Runs the start-ups \p Cells with \p Provider answering every modifier
/// hook call, and returns those calls, one list per start-up in call order:
/// the compiles a fleet of learning-enabled VMs performs, and the traffic
/// it sends the model.
std::vector<std::vector<HookCall>>
recordStartups(const std::vector<Program> &Programs,
               const std::vector<StartupCell> &Cells,
               LearnedStrategyProvider &Provider) {
  std::vector<std::vector<HookCall>> Out(Cells.size());
  for (size_t I = 0; I < Cells.size(); ++I) {
    const StartupCell &C = Cells[I];
    std::vector<HookCall> &Calls = Out[I];
    VirtualMachine::Config Cfg;
    Cfg.Clock.Seed = C.ClockSeed;
    VirtualMachine VM(Programs[C.Program], Cfg);
    VM.setModifierHook([&](uint32_t Method, OptLevel Level,
                           const FeatureVector &Features) {
      PlanModifier M = Provider.modifierFor(Level, Features);
      Calls.push_back({C.Program, Method, Level, Features, M});
      return M;
    });
    VM.run({Value::ofI(0)});
  }
  return Out;
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}

enum class Outcome { Ok, Failed, Wrong };

/// A workload whose inputs form a fixed set of cells. Operations run one
/// after another on the calling thread, passing over the cells in order;
/// each is timed, then checked outside the timed region.
class SerialWorkload : public Workload {
public:
  void measure(double Seconds, unsigned Slices,
               const std::function<void()> &Between, Ledger *L,
               Samples &Out) override {
    resetCounts();
    if (numCells() == 0) { // set-up found nothing to run
      ++Out.Attempted;
      ++Out.Failed;
      return;
    }
    std::vector<uint64_t> Best(numCells(), UINT64_MAX);
    uint64_t SliceNs = (uint64_t)(Seconds * 1e9 / Slices);
    for (unsigned Slice = 0; Slice < Slices; ++Slice) {
      if (Slice)
        Between();
      uint64_t End = nowNs() + SliceNs;
      for (uint64_t T = nowNs(); T < End; T = nowNs()) {
        size_t Cell = Next;
        Next = (Next + 1) % Best.size();
        runOp(Cell, L);
        uint64_t Done = nowNs();
        ++Out.Attempted;
        switch (checkOp()) {
        case Outcome::Ok:
          Best[Cell] = std::min(Best[Cell], Done - T);
          break;
        case Outcome::Failed:
          ++Out.Failed;
          break;
        case Outcome::Wrong:
          ++Out.Incorrect;
          break;
        }
      }
    }
    std::vector<double> Ms;
    double PassS = 0.0;
    for (uint64_t Ns : Best)
      if (Ns != UINT64_MAX) {
        Ms.push_back((double)Ns * 1e-6);
        PassS += (double)Ns * 1e-9;
      }
    std::sort(Ms.begin(), Ms.end());
    Out.Inputs = Ms.size();
    Out.LatencyMs = quantile(Ms, 0.5);
    Out.P75Ms = quantile(Ms, 0.75);
    Out.OpsPerS = PassS > 0.0 ? (double)Ms.size() / PassS : 0.0;
  }

protected:
  virtual size_t numCells() const = 0;
  /// Zeroes the counts layerCounts reports.
  virtual void resetCounts() = 0;
  virtual void runOp(size_t Cell, Ledger *L) = 0;
  virtual Outcome checkOp() = 0;

private:
  size_t Next = 0; ///< carries over from warm-up into the measured run
};

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

class CompileWorkload : public SerialWorkload {
public:
  /// Learned models whose modifiers a run compiles with. One model's
  /// modifiers decide which passes most compiles run, so the cost of one
  /// model's compiles moves by a quarter from seed to seed; the modifiers
  /// of several models sample the system's compile cost instead.
  static constexpr uint64_t NumModels = 8;

  void setup(uint64_t Seed) override {
    Programs = buildSuite();
    for (const Program &P : Programs)
      Reference.push_back(workloadChecksum(P, 1));
    // The cells are the distinct compiles the startup workload's VMs issue
    // under its learned model (the methods they reach, at the levels they
    // reach them, with the modifiers the model picks), and the same
    // compiles with the modifiers further models pick for those features.
    std::vector<std::vector<HookCall>> Startups;
    {
      LearnedStrategyProvider Provider(trainedModels(Seed));
      Startups = recordStartups(Programs, startupCells(Seed, Programs.size()),
                                Provider);
    }
    std::set<std::tuple<uint32_t, uint32_t, unsigned, uint64_t>> Seen;
    for (uint64_t K = 0; K < NumModels; ++K) {
      std::unique_ptr<LearnedStrategyProvider> Other;
      if (K)
        Other = std::make_unique<LearnedStrategyProvider>(
            trainedModels(mix64(Seed ^ (0xc0de0000 + K))));
      for (const std::vector<HookCall> &Calls : Startups)
        for (const HookCall &H : Calls) {
          PlanModifier M =
              Other ? Other->modifierFor(H.Level, H.Features) : H.Modifier;
          if (Seen.insert({H.Program, H.Method, (unsigned)H.Level, M.raw()})
                  .second) {
            Cell C;
            C.Program = H.Program;
            C.Method = H.Method;
            C.Level = H.Level;
            C.Modifier = M;
            Cells.push_back(C);
          }
        }
    }
    Rng R(mix64(Seed ^ 0xc0de));
    shuffle(Cells, R);
  }

  bool finalCheck(std::string &Why) override {
    // The benchmark drives the layers itself; the VM's compile path must
    // produce the same code for the same cell...
    for (const Cell &C : Cells) {
      if (!C.Seen)
        continue;
      CompiledBody B =
          compileMethodBody(Programs[C.Program], C.Method,
                            planForLevel(C.Level), C.Modifier,
                            CostModel::defaults());
      if (codeFingerprint(*B.Native, B.CompileCycles) != C.CodeFp) {
        Why = "compile: VM compile path disagrees with the layer calls";
        return false;
      }
    }
    // ...and that code must compute what the interpreter computes. Each
    // method runs with the last of its compiled cells installed.
    for (uint32_t P = 0; P < Programs.size(); ++P) {
      VirtualMachine::Config Cfg;
      Cfg.Clock.Seed = clockSeed(0, P);
      VirtualMachine VM(Programs[P], Cfg);
      for (const Cell &C : Cells)
        if (C.Program == P && C.Seen)
          VM.compileWithPlan(C.Method, planForLevel(C.Level), C.Modifier);
      ExecResult R = VM.run({Value::ofI(0)});
      if (R.Exceptional || foldChecksum(R) != Reference[P]) {
        Why = "compile: compiled program differs from the interpreter";
        return false;
      }
    }
    return true;
  }

  void layerCounts(std::map<std::string, double> &Out) const override {
    double N = Compiles ? (double)Compiles : 1.0;
    Out["opt_passes_run"] = (double)PassesRun / N;
    Out["native_insts"] = (double)NativeInsts / N;
  }

protected:
  size_t numCells() const override { return Cells.size(); }
  void resetCounts() override { Compiles = PassesRun = NativeInsts = 0; }

  void runOp(size_t Index, Ledger *L) override {
    Cell &C = Cells[Index];
    Ledger::Span Op(L, Layer::Op);
    std::unique_ptr<MethodIL> IL;
    {
      Ledger::Span S(L, Layer::IlGen);
      IL = generateIL(Programs[C.Program], C.Method);
      LoopInfo::annotateFrequencies(*IL);
    }
    {
      Ledger::Span S(L, Layer::Features);
      Last.Features = extractFeatures(*IL);
    }
    {
      Ledger::Span S(L, Layer::Opt);
      Last.Opt = optimize(*IL, planForLevel(C.Level), C.Modifier.enabledMask());
    }
    {
      Ledger::Span S(L, Layer::Codegen);
      Last.Native = generateCode(*IL, Last.Opt.CodegenOptions, C.Level,
                                 CostModel::defaults());
    }
    Last.C = &C;
  }

  Outcome checkOp() override {
    Cell &C = *Last.C;
    ++Compiles;
    PassesRun += Last.Opt.EntriesRun;
    NativeInsts += Last.Native.totalInsts();
    uint64_t CodeFp = codeFingerprint(
        Last.Native, Last.Opt.CompileCycles + Last.Native.CompileCycles);
    uint64_t Fp = fnv(CodeFp, Last.Features.hash());
    if (!C.Seen) {
      C.Seen = true;
      C.OpFp = Fp;
      C.CodeFp = CodeFp;
      return Outcome::Ok;
    }
    return Fp == C.OpFp ? Outcome::Ok : Outcome::Wrong;
  }

private:
  struct Cell {
    uint32_t Program = 0;
    uint32_t Method = 0;
    OptLevel Level = OptLevel::Cold;
    PlanModifier Modifier;
    bool Seen = false;
    uint64_t OpFp = 0;   ///< first compile of this cell in the run
    uint64_t CodeFp = 0; ///< its code alone
  };

  static uint64_t codeFingerprint(const NativeMethod &N, double Cycles) {
    uint64_t H = fnv(FnvBasis, bitsOf(Cycles));
    H = fnv(H, N.totalInsts());
    H = fnv(H, N.Blocks.size());
    for (uint32_t B : N.Layout)
      H = fnv(H, B);
    return fnv(H, bitsOf(N.ICacheFactor));
  }

  std::vector<Program> Programs;
  std::vector<int64_t> Reference;
  std::vector<Cell> Cells;
  struct {
    Cell *C = nullptr;
    FeatureVector Features;
    OptimizeResult Opt;
    NativeMethod Native;
  } Last;
  uint64_t Compiles = 0, PassesRun = 0, NativeInsts = 0;
};

//===----------------------------------------------------------------------===//
// startup
//===----------------------------------------------------------------------===//

class StartupWorkload : public SerialWorkload {
public:
  void setup(uint64_t Seed) override {
    Programs = buildSuite();
    for (const Program &P : Programs)
      Reference.push_back(workloadChecksum(P, 1));
    Cells = startupCells(Seed, Programs.size());
    Provider = std::make_unique<LearnedStrategyProvider>(trainedModels(Seed));
  }

  bool finalCheck(std::string &Why) override {
    const ModelSet &Models = Provider->models();
    bool AnyModel = false;
    for (unsigned L = 0; L < NumOptLevels; ++L)
      AnyModel |= Models.hasModelFor((OptLevel)L);
    if (AnyModel && Provider->predictions() == 0) {
      Why = "startup: the learned model was never consulted";
      return false;
    }
    return true;
  }

  void layerCounts(std::map<std::string, double> &Out) const override {
    Out["vm_interpreted_pct"] =
        Invocations ? 100.0 * (double)Interpreted / (double)Invocations : 0.0;
  }

protected:
  size_t numCells() const override { return Cells.size(); }
  void resetCounts() override { Invocations = Interpreted = 0; }

  void runOp(size_t Index, Ledger *L) override {
    Last.Program = Cells[Index].Program;
    Ledger::Span Op(L, Layer::Op);
    Ledger::Span Exec(L, Layer::Exec);
    uint64_t Jit0 = L ? histogramSumUs("vm.sync_compile") : 0;
    VirtualMachine::Config Cfg;
    Cfg.Clock.Seed = Cells[Index].ClockSeed;
    VirtualMachine VM(Programs[Last.Program], Cfg);
    LearnedStrategyProvider &P = *Provider;
    VM.setModifierHook([&P, L](uint32_t, OptLevel Level,
                               const FeatureVector &Features) {
      Ledger::Span S(L, Layer::Model);
      return P.modifierFor(Level, Features);
    });
    Last.Result = VM.run({Value::ofI(0)});
    Last.Stats = VM.stats();
    if (L)
      Exec.addChild(Layer::Jit,
                    (histogramSumUs("vm.sync_compile") - Jit0) * 1000);
  }

  Outcome checkOp() override {
    Invocations += Last.Stats.Invocations;
    Interpreted += Last.Stats.InterpretedInvocations;
    if (Last.Result.Exceptional)
      return Outcome::Failed;
    return foldChecksum(Last.Result) == Reference[Last.Program]
               ? Outcome::Ok
               : Outcome::Wrong;
  }

private:
  std::vector<Program> Programs;
  std::vector<int64_t> Reference;
  std::vector<StartupCell> Cells;
  std::unique_ptr<LearnedStrategyProvider> Provider;
  struct {
    uint32_t Program = 0;
    ExecResult Result;
    VirtualMachine::Stats Stats;
  } Last;
  uint64_t Invocations = 0, Interpreted = 0;
};

//===----------------------------------------------------------------------===//
// learn
//===----------------------------------------------------------------------===//

class LearnWorkload : public SerialWorkload {
public:
  /// Cells per (training benchmark, strategy), and the exploration seeds
  /// tried for them.
  static constexpr uint64_t DrawsKept = 2, MaxDraws = 16;

  void setup(uint64_t Seed) override {
    // Every training benchmark under both search strategies, each with the
    // first two exploration seeds whose collection session completes. A
    // session that crashes ends early and yields no records, so every
    // repeat of it would fail. Learning a cell once gives the reference
    // each repeat must reproduce bit for bit.
    for (const WorkloadSpec &S : trainingBenchmarks())
      for (SearchStrategy St :
           {SearchStrategy::Randomized, SearchStrategy::Progressive})
        for (uint64_t Draw = 0, Kept = 0; Kept < DrawsKept && Draw < MaxDraws;
             ++Draw) {
          Cell C;
          C.Spec = S;
          C.Strategy = St;
          C.Config = learnConfig(mix64(Seed) + Draw);
          Last = Result();
          learn(C, nullptr);
          if (Last.Records == 0)
            continue;
          C.Fingerprint = fingerprint();
          Cells.push_back(C);
          ++Kept;
        }
  }

  /// Each operation is checked against its cell's reference.
  bool finalCheck(std::string &) override { return true; }

  void layerCounts(std::map<std::string, double> &Out) const override {
    double N = Ops ? (double)Ops : 1.0;
    Out["collect_records"] = (double)Records / N;
    Out["train_solves"] = (double)Solves / N;
  }

protected:
  size_t numCells() const override { return Cells.size(); }
  void resetCounts() override { Ops = Records = Solves = 0; }

  void runOp(size_t Index, Ledger *L) override {
    Last = Result();
    Last.C = &Cells[Index];
    learn(*Last.C, L);
  }

  Outcome checkOp() override {
    ++Ops;
    Records += Last.Records;
    Solves += Last.Solves;
    // A collection whose VM session crashed yields no records. Too few
    // ranked records for any level (no models) is a valid outcome.
    if (Last.Records == 0)
      return Outcome::Failed;
    return fingerprint() == Last.C->Fingerprint ? Outcome::Ok
                                                : Outcome::Wrong;
  }

private:
  struct Cell {
    WorkloadSpec Spec;
    SearchStrategy Strategy = SearchStrategy::Randomized;
    CollectConfig Config;
    uint64_t Fingerprint = 0;
  };
  struct Result {
    Cell *C = nullptr;
    uint64_t Records = 0;
    uint64_t Solves = 0;
    unsigned Models = 0;
    uint64_t Hash = FnvBasis;
  };

  /// One learning cycle through the program's entry points:
  /// collectWithStrategy, then trainModelSet. Traced, the training is
  /// composed from the layers trainModelSet calls, with a span around
  /// each; the models are the same.
  void learn(const Cell &C, Ledger *L) {
    Ledger::Span Op(L, Layer::Op);
    IntermediateDataSet Data;
    {
      Ledger::Span S(L, Layer::Collect);
      uint64_t Jit0 = L ? histogramSumUs("vm.sync_compile") : 0;
      Data = collectWithStrategy(C.Spec, C.Config, C.Strategy);
      if (L)
        S.addChild(Layer::Jit,
                   (histogramSumUs("vm.sync_compile") - Jit0) * 1000);
    }
    Last.Records = Data.size();
    if (!L) {
      hashModels(trainModelSet(Data, "perfbench", TrainConfig()));
      return;
    }
    TrainConfig TC;
    ModelSet Set;
    for (unsigned Lv = 0; Lv < NumOptLevels; ++Lv) {
      if (!isLearnedLevel((OptLevel)Lv))
        continue;
      std::vector<RankedInstance> Ranked;
      {
        Ledger::Span S(L, Layer::Rank);
        Ranked = rankRecords(Data, (OptLevel)Lv, TC.Selection, TC.Triggers);
      }
      if (Ranked.size() < 8)
        continue;
      LevelModel &LM = Set.Levels[Lv];
      std::vector<NormalizedInstance> Instances;
      {
        Ledger::Span S(L, Layer::Normalize);
        LM.Scale = Scaling::fit(Ranked);
        Instances = normalizeInstances(Ranked, LM.Scale, LM.Labels);
      }
      TrainReport Report;
      {
        Ledger::Span S(L, Layer::Train);
        LM.Model = trainCrammerSinger(Instances, TC.Svm, &Report);
      }
      LM.Valid = true;
      Last.Solves += Report.SubproblemSolves;
    }
    hashModels(Set);
  }

  void hashModels(const ModelSet &Set) {
    for (unsigned Lv = 0; Lv < NumOptLevels; ++Lv) {
      const LevelModel &LM = Set.Levels[Lv];
      if (!LM.Valid)
        continue;
      ++Last.Models;
      Last.Hash = textHash(fnv(Last.Hash, Lv), LM.Model.toText());
      Last.Hash = textHash(Last.Hash, LM.Labels.toText());
    }
  }

  uint64_t fingerprint() const {
    return fnv(fnv(Last.Hash, Last.Records), Last.Models);
  }

  std::vector<Cell> Cells;
  Result Last;
  uint64_t Ops = 0, Records = 0, Solves = 0;
};

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

class ServeWorkload : public Workload {
public:
  /// Closed-loop clients, each one connection: the fleet of the
  /// repository's bench/micro_serve.
  static constexpr unsigned NumClients = 8;
  static constexpr double WindowS = 0.25;

  ~ServeWorkload() override {
    for (auto &C : Clients)
      C->bye();
    Clients.clear();
    if (Server)
      Server->stop();
  }

  void setup(uint64_t Seed) override {
    ModelSet Models = trainedModels(Seed);
    Registry.install(Models);
    std::shared_ptr<const ServeModel> Model = Registry.snapshot();
    // The requests are the modifier-hook calls of the startup workload's
    // VMs, recorded with the same models answering in process. Each client
    // replays all forty start-ups one after another, in an order of its
    // own, as a fleet of VMs restarting the same programs would: the
    // daemon's shared cache answers what another VM asked before, and a
    // key's first request reaches the batcher and the model.
    LearnedStrategyProvider Provider(std::move(Models));
    std::vector<Program> Programs = buildSuite();
    std::vector<std::vector<HookCall>> Startups = recordStartups(
        Programs, startupCells(Seed, Programs.size()), Provider);
    Rng R(mix64(Seed ^ 0x5e7e));
    Streams.resize(NumClients);
    for (std::vector<Request> &Stream : Streams) {
      std::vector<size_t> Order(Startups.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      shuffle(Order, R);
      for (size_t S : Order)
        for (const HookCall &H : Startups[S])
          Stream.push_back(
              {H.Level, H.Features, Model->predict(H.Level, H.Features)});
    }

    // Set-ups timed while another instance serves need their own socket.
    static unsigned Instances = 0;
    ServeConfig Cfg;
    Cfg.SocketPath = "perfbench-serve-" + std::to_string(::getpid()) + "-" +
                     std::to_string(Instances++) + ".sock";
    Server = std::make_unique<ModelServer>(Registry, Cfg);
    if (!Server->start()) {
      Server.reset();
      return;
    }
    // bench/micro_serve's client settings: every request crosses the wire,
    // and a host stall is waited out rather than answered by the fallback.
    ResilientModelClient::Config CC;
    CC.RequestTimeoutMs = 10000;
    CC.CacheCapacity = 0;
    CC.CacheErrorReplies = false;
    std::string Path = Cfg.SocketPath;
    for (unsigned C = 0; C < NumClients; ++C)
      Clients.push_back(std::make_unique<ResilientModelClient>(
          [Path]() -> std::unique_ptr<Transport> {
            return SocketTransport::connect(Path);
          },
          CC));
  }

  void measure(double Seconds, unsigned Slices,
               const std::function<void()> &Between, Ledger *L,
               Samples &Out) override {
    if (!Server || Streams[0].empty()) {
      ++Out.Attempted;
      ++Out.Failed;
      return;
    }
    MetricRegistry &MR = MetricRegistry::global();
    ModelServer::Stats S0 = Server->stats();
    uint64_t Batches0 = MR.counter("serve.batches").value();
    uint64_t Entries0 = MR.counter("serve.batch_entries").value();
    uint64_t DaemonUs0 = histogramSumUs("serve.request");

    // (offset into the measured time at completion, latency) of every
    // correct reply, per client.
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Done(NumClients);
    std::vector<Samples> Per(NumClients);
    uint64_t SliceNs = (uint64_t)(Seconds * 1e9 / Slices);
    for (unsigned Slice = 0; Slice < Slices; ++Slice) {
      if (Slice)
        Between();
      uint64_t Start = nowNs();
      uint64_t End = Start + SliceNs;
      uint64_t Before = Slice * SliceNs; // measured time of earlier slices
      std::vector<std::thread> Threads;
      for (unsigned C = 0; C < NumClients; ++C)
        Threads.emplace_back([&, C] {
          ResilientModelClient &Client = *Clients[C];
          const std::vector<Request> &Stream = Streams[C];
          size_t &Pos = Cursor[C];
          Samples &Mine = Per[C];
          for (uint64_t T = nowNs(); T < End; T = nowNs()) {
            const Request &Q = Stream[Pos];
            Pos = (Pos + 1) % Stream.size();
            std::optional<uint64_t> Got;
            {
              Ledger::Span Op(L, Layer::Op);
              Ledger::Span B(L, Layer::Bridge);
              Got = Client.requestModifier(Q.Level, Q.Features);
            }
            uint64_t Now = nowNs();
            ++Mine.Attempted;
            if (!Got && Q.Expect)
              ++Mine.Failed; // shed or timed out: the client fell back
            else if (Got != Q.Expect)
              ++Mine.Incorrect;
            else
              Done[C].push_back({Before + Now - Start, Now - T});
          }
        });
      for (std::thread &Th : Threads)
        Th.join();
    }
    for (const Samples &P : Per) {
      Out.Attempted += P.Attempted;
      Out.Failed += P.Failed;
      Out.Incorrect += P.Incorrect;
    }

    // The figures of the least disturbed window: the host's speed drifts
    // over seconds, a window is long enough for thousands of requests.
    size_t Windows = std::max<size_t>(1, (size_t)(Seconds / WindowS));
    std::vector<std::vector<double>> Ms(Windows);
    for (const auto &Client : Done)
      for (auto [At, Ns] : Client) {
        size_t W = (size_t)((double)At * 1e-9 / WindowS);
        if (W < Windows)
          Ms[W].push_back((double)Ns * 1e-6);
      }
    for (std::vector<double> &V : Ms) {
      if (V.empty())
        continue; // a stalled window has no latency to offer
      std::sort(V.begin(), V.end());
      bool First = Out.Inputs++ == 0;
      Out.LatencyMs = First ? quantile(V, 0.5)
                            : std::min(Out.LatencyMs, quantile(V, 0.5));
      Out.P75Ms =
          First ? quantile(V, 0.75) : std::min(Out.P75Ms, quantile(V, 0.75));
      Out.OpsPerS = std::max(Out.OpsPerS, (double)V.size() / WindowS);
    }

    ModelServer::Stats S1 = Server->stats();
    uint64_t Entries = S1.Entries - S0.Entries;
    CacheHitPct =
        Entries ? 100.0 * (double)(S1.CacheHits - S0.CacheHits) / Entries
                : 0.0;
    uint64_t Batches = MR.counter("serve.batches").value() - Batches0;
    BatchFill = Batches ? (double)(MR.counter("serve.batch_entries").value() -
                                   Entries0) /
                              (double)Batches
                        : 0.0;
    if (L)
      L->moveSelf(Layer::Bridge, Layer::Daemon,
                  (histogramSumUs("serve.request") - DaemonUs0) * 1000);
  }

  bool finalCheck(std::string &Why) override {
    if (!Server) {
      Why = "serve: the daemon did not start";
      return false;
    }
    return true;
  }

  void layerCounts(std::map<std::string, double> &Out) const override {
    Out["serve_cache_hit_pct"] = CacheHitPct;
    Out["serve_batch_fill"] = BatchFill;
  }

private:
  struct Request {
    OptLevel Level = OptLevel::Cold;
    FeatureVector Features;
    std::optional<uint64_t> Expect;
  };

  ModelRegistry Registry;
  std::vector<std::vector<Request>> Streams;
  size_t Cursor[NumClients] = {};
  std::unique_ptr<ModelServer> Server;
  std::vector<std::unique_ptr<ResilientModelClient>> Clients;
  double CacheHitPct = 0.0;
  double BatchFill = 0.0;
};

} // namespace

double perfbench::quantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  double Pos = Q * (double)(Sorted.size() - 1);
  size_t Lo = (size_t)Pos;
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Pos - (double)Lo);
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name) {
  if (Name == "compile")
    return std::make_unique<CompileWorkload>();
  if (Name == "startup")
    return std::make_unique<StartupWorkload>();
  if (Name == "learn")
    return std::make_unique<LearnWorkload>();
  if (Name == "serve")
    return std::make_unique<ServeWorkload>();
  return nullptr;
}
