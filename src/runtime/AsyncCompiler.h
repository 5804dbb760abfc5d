//===- runtime/AsyncCompiler.h - Background compilation pipeline -*-C++-*-===//
///
/// \file
/// Testarossa compiles on background compilation threads while the
/// application keeps interpreting; this is that subsystem for the
/// simulated VM. A pool of worker threads drains the CompilationQueue,
/// runs the full compilation pipeline off the interpreter thread —
/// feature extraction, model prediction (optionally batched: one bridge
/// round trip covers a whole dequeued backlog), Optimizer, CodeGenerator —
/// and publishes finished bodies through CodeCache's atomic install.
///
/// Threading contract: workers touch only immutable inputs (the Program,
/// the plans, the cost model), their own CompileInputs, plus the
/// explicitly thread-safe pieces (CompilationQueue, CodeCache, the hooks
/// the caller installed — a hook shared by several workers must itself be
/// thread-safe, which ResilientModelClient and LearnedStrategyProvider
/// are). Each worker builds its CompileInputs (the IL and features of the
/// methods it compiles) when it starts and drops it when it exits; no
/// other thread ever sees it. Everything else — CompilationControl
/// bookkeeping, VM statistics, JitEventListener callbacks — stays on the
/// interpreter thread: workers append a CompileCompletion record to a
/// buffer, and the VM flushes that buffer from its own dispatch loop (a
/// relaxed flag check per invocation, a lock only when completions are
/// actually pending).
///
/// Failure semantics mirror the sync path: a hook that throws (or a model
/// call that falls back) compiles with the unmodified hand-tuned plan and
/// is counted, never propagated.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_RUNTIME_ASYNCCOMPILER_H
#define JITML_RUNTIME_ASYNCCOMPILER_H

#include "codegen/CostModel.h"
#include "features/FeatureVector.h"
#include "il/ILGenerator.h"
#include "il/LoopInfo.h"
#include "modifiers/Modifier.h"
#include "runtime/CodeCache.h"
#include "runtime/CompilationQueue.h"
#include "support/Telemetry.h"

#include <functional>
#include <thread>

namespace jitml {

/// What one compiling thread knows of a program's methods: each method's
/// IL as generateIL builds it (an ILCache), and the feature vector and loop
/// class computed from that IL. Each is computed on first use and kept for
/// the object's lifetime, so a method's IL is generated and its features
/// are extracted once however often it is compiled, inlined or classified.
/// Not safe for concurrent use (see ILCache): the VM's interpreter thread
/// and each async worker own one apiece.
class CompileInputs {
public:
  explicit CompileInputs(const Program &P)
      : ILs(P), Records(P.numMethods()) {}

  ILCache &ils() { return ILs; }

  /// Features of a method as the strategy hook sees them (Figure 5 step d:
  /// computed from the IL just prior to optimization).
  const FeatureVector &features(uint32_t MethodIndex);

  /// The method's loop class, the input of CompilationControl's triggers.
  /// Asked on every invocation, so the classified case stays inline.
  LoopClass loopClass(uint32_t MethodIndex) {
    int8_t L = Records[MethodIndex].Loop;
    return L >= 0 ? (LoopClass)L : classify(MethodIndex);
  }

private:
  LoopClass classify(uint32_t MethodIndex);

  struct Record {
    FeatureVector Features;
    bool HasFeatures = false;
    int8_t Loop = -1; ///< -1: not yet classified
  };
  ILCache ILs;
  std::vector<Record> Records;
};

/// Everything a compilation produced, before installation bookkeeping.
struct CompiledBody {
  std::unique_ptr<NativeMethod> Native;
  double CompileCycles = 0.0;
};

/// The pure compile pipeline for one method: clone the IL \p ILs keeps,
/// then frequency annotation, plan-driven optimization (callees inlined
/// from \p ILs) and code generation. Reads only immutable state besides
/// \p ILs, so any thread may call it with a cache of its own.
CompiledBody compileMethodBody(ILCache &ILs, uint32_t MethodIndex,
                               const CompilationPlan &Plan,
                               const PlanModifier &Modifier,
                               const CostModel &Cost);

/// Adapter over the cached form with a cache for this one compile.
inline CompiledBody compileMethodBody(const Program &P, uint32_t MethodIndex,
                                      const CompilationPlan &Plan,
                                      const PlanModifier &Modifier,
                                      const CostModel &Cost) {
  ILCache ILs(P);
  return compileMethodBody(ILs, MethodIndex, Plan, Modifier, Cost);
}

/// A finished background compilation, consumed by the interpreter thread.
struct CompileCompletion {
  uint32_t MethodIndex = 0;
  OptLevel Level = OptLevel::Cold;
  PlanModifier Modifier;
  double CompileCycles = 0.0;
  bool IsExplorationRecompile = false;
  bool Installed = false;  ///< false: lost the install race to a newer ticket
  bool HookFailed = false; ///< modifier hook threw; null modifier was used
};

class AsyncCompilePipeline {
public:
  struct Config {
    unsigned Workers = 2;
    size_t QueueCapacity = 64;
    /// Max requests one worker dequeues (and predicts) per round trip.
    size_t MaxPredictBatch = 8;
  };

  using ModifierFn = std::function<PlanModifier(
      uint32_t MethodIndex, OptLevel Level, const FeatureVector &Features)>;

  /// One entry of a batched prediction request.
  struct BatchPredictItem {
    uint32_t MethodIndex = 0;
    OptLevel Level = OptLevel::Cold;
    FeatureVector Features;
  };
  /// Must return exactly one modifier per item (any other size is treated
  /// as a hook failure for the whole batch).
  using BatchModifierFn = std::function<std::vector<PlanModifier>(
      const std::vector<BatchPredictItem> &Items)>;

  AsyncCompilePipeline(const Program &P, const CostModel &Cost,
                       CodeCache &Cache, Config C);
  ~AsyncCompilePipeline(); ///< shutdown(false)

  /// Set before execution starts; hooks shared by several workers must be
  /// thread-safe.
  void setModifierHook(ModifierFn H);
  void setBatchModifierHook(BatchModifierFn H);

  /// Submits a compile request from the interpreter thread. Never blocks.
  CompilationQueue::EnqueueResult request(uint32_t MethodIndex,
                                          OptLevel Level, bool IsExploration,
                                          uint64_t Priority);

  /// Cheap check the dispatch loop can afford on every invocation.
  bool hasCompletions() const {
    return CompletionsReady.load(std::memory_order_acquire);
  }
  /// Removes and returns all buffered completions.
  std::vector<CompileCompletion> takeCompletions();

  /// Blocks until the queue is empty and no compilation is in flight.
  /// Completions are then all visible to takeCompletions().
  void drain();

  /// Stops the workers. With \p FinishPending, queued work is compiled
  /// first; otherwise it is discarded and only in-flight work finishes.
  /// Idempotent; also called by the destructor.
  void shutdown(bool FinishPending);

  /// Ticket source shared with synchronous installs, so direct compiles
  /// order correctly against queued ones (see CodeCache).
  uint64_t takeTicket() { return Queue.takeTicket(); }

  CompilationQueue::Counters queueCounters() const {
    return Queue.counters();
  }
  /// Batched prediction round trips actually performed by workers.
  uint64_t batchPredictCalls() const {
    return BatchPredicts.load(std::memory_order_relaxed);
  }

private:
  void workerLoop(unsigned WorkerId);
  std::vector<PlanModifier>
  modifiersForBatch(const std::vector<AsyncCompileTask> &Tasks,
                    std::vector<CompileCompletion> &Partial,
                    CompileInputs &Inputs);

  const Program &Prog;
  const CostModel &Cost;
  CodeCache &Cache;
  const Config Cfg;
  CompilationQueue Queue;

  mutable std::mutex HookMu;
  ModifierFn Hook;
  BatchModifierFn BatchHook;

  std::mutex CompletionMu;
  std::vector<CompileCompletion> Completions;
  std::atomic<bool> CompletionsReady{false};

  /// Process-wide metrics, resolved once at construction.
  struct TelemetryRefs {
    TelemetryCounter *Compiled, *Installed, *Stale, *BatchPredicts,
        *WorkerBusyUs;
    TelemetryHistogram *CompileUs; ///< per-method worker compile wall us
  };
  TelemetryRefs Tel;

  std::atomic<uint64_t> BatchPredicts{0};
  std::vector<std::thread> Workers;
  bool ShutDown = false; ///< guarded by HookMu (rarely touched)
};

} // namespace jitml

#endif // JITML_RUNTIME_ASYNCCOMPILER_H
