//===- runtime/AsyncCompiler.cpp ------------------------------------------===//

#include "runtime/AsyncCompiler.h"

#include "codegen/CodeGenerator.h"
#include "features/FeatureExtractor.h"
#include "opt/Optimizer.h"
#include "runtime/ExecInternal.h"
#include "support/FaultInjection.h"
#include "verify/PassVerifier.h"

#include <stdexcept>

using namespace jitml;

const FeatureVector &CompileInputs::features(uint32_t MethodIndex) {
  Record &R = Records[MethodIndex];
  if (!R.HasFeatures) {
    R.Features = extractFeatures(ILs.get(MethodIndex));
    R.HasFeatures = true;
  }
  return R.Features;
}

LoopClass CompileInputs::classify(uint32_t MethodIndex) {
  LoopClass L = LoopInfo(ILs.get(MethodIndex)).classify();
  Records[MethodIndex].Loop = (int8_t)L;
  return L;
}

CompiledBody jitml::compileMethodBody(ILCache &ILs, uint32_t MethodIndex,
                                      const CompilationPlan &Plan,
                                      const PlanModifier &Modifier,
                                      const CostModel &Cost) {
  std::unique_ptr<MethodIL> IL = ILs.get(MethodIndex).clone();
  bool IlTrusted = true;
  if (verify::verifyIlMode() != verify::VerifyIlMode::Off)
    IlTrusted = verify::checkAfterPass(*IL, "ilgen", -1);
  LoopInfo::annotateFrequencies(*IL);

  // Broken ilgen output (only survivable under a collecting failure
  // handler) skips the pass pipeline: passes assume the invariants hold.
  OptimizeResult Opt =
      IlTrusted ? optimize(*IL, Plan, Modifier.enabledMask(), &ILs)
                : OptimizeResult();
  NativeMethod Native = generateCode(*IL, Opt.CodegenOptions, Plan.Level, Cost);

  // Ready the body for the executor: its charges under this VM's costs.
  decodeCharges(Native, Cost);

  CompiledBody Out;
  Out.CompileCycles = Opt.CompileCycles + Native.CompileCycles;
  Native.CompileCycles = Out.CompileCycles;
  Out.Native = std::make_unique<NativeMethod>(std::move(Native));
  return Out;
}

AsyncCompilePipeline::AsyncCompilePipeline(const Program &P,
                                           const CostModel &Cost,
                                           CodeCache &Cache, Config C)
    : Prog(P), Cost(Cost), Cache(Cache), Cfg(C),
      Queue(C.QueueCapacity ? C.QueueCapacity : 1) {
  MetricRegistry &R = MetricRegistry::global();
  Tel.Compiled = &R.counter("pipeline.compiled");
  Tel.Installed = &R.counter("pipeline.installed");
  Tel.Stale = &R.counter("pipeline.stale");
  Tel.BatchPredicts = &R.counter("pipeline.batch_predicts");
  Tel.WorkerBusyUs = &R.counter("pipeline.worker_busy_us");
  Tel.CompileUs = &R.histogram("pipeline.compile");
  unsigned N = Cfg.Workers ? Cfg.Workers : 1;
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

AsyncCompilePipeline::~AsyncCompilePipeline() { shutdown(false); }

void AsyncCompilePipeline::setModifierHook(ModifierFn H) {
  std::lock_guard<std::mutex> Lock(HookMu);
  Hook = std::move(H);
}

void AsyncCompilePipeline::setBatchModifierHook(BatchModifierFn H) {
  std::lock_guard<std::mutex> Lock(HookMu);
  BatchHook = std::move(H);
}

CompilationQueue::EnqueueResult
AsyncCompilePipeline::request(uint32_t MethodIndex, OptLevel Level,
                              bool IsExploration, uint64_t Priority) {
  return Queue.enqueue(MethodIndex, Level, IsExploration, Priority);
}

std::vector<CompileCompletion> AsyncCompilePipeline::takeCompletions() {
  std::lock_guard<std::mutex> Lock(CompletionMu);
  std::vector<CompileCompletion> Out;
  Out.swap(Completions);
  CompletionsReady.store(false, std::memory_order_release);
  return Out;
}

void AsyncCompilePipeline::drain() { Queue.drain(); }

void AsyncCompilePipeline::shutdown(bool FinishPending) {
  {
    std::lock_guard<std::mutex> Lock(HookMu);
    if (ShutDown)
      return;
    ShutDown = true;
  }
  Queue.close(FinishPending);
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
}

std::vector<PlanModifier> AsyncCompilePipeline::modifiersForBatch(
    const std::vector<AsyncCompileTask> &Tasks,
    std::vector<CompileCompletion> &Partial, CompileInputs &Inputs) {
  ModifierFn H;
  BatchModifierFn BH;
  {
    std::lock_guard<std::mutex> Lock(HookMu);
    H = Hook;
    BH = BatchHook;
  }
  std::vector<PlanModifier> Mods(Tasks.size());
  if (!H && !BH)
    return Mods; // null modifiers: the out-of-the-box compiler

  if (BH && Tasks.size() > 1) {
    // One round trip for the whole backlog.
    std::vector<BatchPredictItem> Items(Tasks.size());
    for (size_t I = 0; I < Tasks.size(); ++I) {
      Items[I].MethodIndex = Tasks[I].MethodIndex;
      Items[I].Level = Tasks[I].Level;
      Items[I].Features = Inputs.features(Tasks[I].MethodIndex);
    }
    BatchPredicts.fetch_add(1, std::memory_order_relaxed);
    Tel.BatchPredicts->add();
    try {
      std::vector<PlanModifier> Got = BH(Items);
      if (Got.size() == Tasks.size())
        return Got;
    } catch (...) {
      // fall through to the failure accounting below
    }
    for (CompileCompletion &C : Partial)
      C.HookFailed = true;
    return Mods; // null modifiers for the whole batch
  }

  for (size_t I = 0; I < Tasks.size(); ++I) {
    const FeatureVector &F = Inputs.features(Tasks[I].MethodIndex);
    try {
      if (BH) {
        BatchPredicts.fetch_add(1, std::memory_order_relaxed);
        Tel.BatchPredicts->add();
        std::vector<BatchPredictItem> One(1);
        One[0] = {Tasks[I].MethodIndex, Tasks[I].Level, F};
        std::vector<PlanModifier> Got = BH(One);
        if (Got.size() != 1)
          throw std::runtime_error("batch hook size mismatch");
        Mods[I] = Got[0];
      } else {
        Mods[I] = H(Tasks[I].MethodIndex, Tasks[I].Level, F);
      }
    } catch (...) {
      Partial[I].HookFailed = true;
      Mods[I] = PlanModifier();
    }
  }
  return Mods;
}

void AsyncCompilePipeline::workerLoop(unsigned WorkerId) {
  // This worker's own IL and features, never shared with another thread.
  CompileInputs Inputs(Prog);
  for (;;) {
    std::vector<AsyncCompileTask> Tasks = Queue.dequeueBatch(Cfg.MaxPredictBatch);
    if (Tasks.empty())
      return; // closed and drained
    uint64_t BatchStartUs = telemetryNowUs();

    std::vector<CompileCompletion> Done(Tasks.size());
    std::vector<PlanModifier> Mods = modifiersForBatch(Tasks, Done, Inputs);

    for (size_t I = 0; I < Tasks.size(); ++I) {
      const AsyncCompileTask &T = Tasks[I];
      // Simulated slow worker: the method stays in flight (dequeued but
      // not noteDone), stretching the window drain()/close() must survive.
      uint64_t StallMs = 1;
      if (JITML_FAULT_POINT_ARG("pipeline.worker.stall", StallMs))
        faultDelayMs(StallMs);
      uint64_t StartUs = telemetryNowUs();
      CompiledBody Body = compileMethodBody(Inputs.ils(), T.MethodIndex,
                                            planForLevel(T.Level), Mods[I],
                                            Cost);
      CompileCompletion &C = Done[I];
      C.MethodIndex = T.MethodIndex;
      C.Level = T.Level;
      C.Modifier = Mods[I];
      C.CompileCycles = Body.CompileCycles;
      C.IsExplorationRecompile = T.IsExplorationRecompile;
      C.Installed = Cache.install(T.MethodIndex, std::move(Body.Native),
                                  T.Ticket);
      uint64_t DurUs = telemetryNowUs() - StartUs;
      Tel.CompileUs->record(DurUs);
      Tel.Compiled->add();
      (C.Installed ? Tel.Installed : Tel.Stale)->add();
      if (TraceEmitter::global().enabled()) {
        TraceEvent E;
        E.Stage = "compile";
        E.StartUs = StartUs;
        E.DurUs = DurUs;
        E.Method = T.MethodIndex;
        E.Level = (int)T.Level;
        E.Worker = (int)WorkerId;
        E.Cycles = Body.CompileCycles;
        E.Detail = C.Installed ? "installed" : "stale";
        E.Ok = C.Installed;
        TraceEmitter::global().record(E);
      }
      {
        std::lock_guard<std::mutex> Lock(CompletionMu);
        Completions.push_back(C);
        CompletionsReady.store(true, std::memory_order_release);
      }
      // Publish the completion before declaring the task done, so a
      // drain() that observes quiescence also observes every completion.
      Queue.noteDone(T.MethodIndex);
    }
    Tel.WorkerBusyUs->add(telemetryNowUs() - BatchStartUs);
  }
}
