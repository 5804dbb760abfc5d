//===- runtime/VirtualMachine.h - The VM facade -----------------*- C++ -*-===//
///
/// \file
/// The complete simulated VM: interpreter + JIT + adaptive compilation
/// control + heap + simulated clock. One VirtualMachine instance is one
/// "JVM invocation" in the paper's terminology; the harness constructs a
/// fresh one per run.
///
/// Two extension points reproduce the paper's architecture:
///  * ModifierHook — the Strategy Control attachment point. During data
///    collection it pulls modifiers from modifiers::StrategyControl; in
///    learning-enabled mode it queries the machine-learned model through
///    the bridge (Figure 5). Default: always the null modifier (the
///    out-of-the-box compiler).
///  * JitEventListener — the lightweight method profiling of section 4.2
///    (TSC-timestamped enter/exit events and compile records). The
///    collect module implements it to build archives.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_RUNTIME_VIRTUALMACHINE_H
#define JITML_RUNTIME_VIRTUALMACHINE_H

#include "codegen/CodeGenerator.h"
#include "features/FeatureVector.h"
#include "modifiers/Modifier.h"
#include "runtime/AsyncCompiler.h"
#include "runtime/CodeCache.h"
#include "runtime/CompilationControl.h"
#include "runtime/Heap.h"
#include "runtime/SimClock.h"

#include <array>
#include <functional>
#include <memory>
#include <optional>

namespace jitml {

/// Outcome of executing one method body.
struct ExecResult {
  bool Exceptional = false;
  Value Ret;         ///< valid when !Exceptional
  uint32_t ExcRef = NullRef; ///< valid when Exceptional

  static ExecResult ok(Value V) {
    ExecResult R;
    R.Ret = V;
    return R;
  }
  static ExecResult exception(uint32_t Ref) {
    ExecResult R;
    R.Exceptional = true;
    R.ExcRef = Ref;
    return R;
  }
};

/// Everything the instrumentation needs to know about one compilation.
struct CompileEvent {
  uint32_t MethodIndex = 0;
  OptLevel Level = OptLevel::Cold;
  PlanModifier Modifier;
  FeatureVector Features;
  double CompileCycles = 0.0;
  bool IsExplorationRecompile = false;
};

/// Profiling callbacks (TR_jitPTTMethodEnter/Exit analogues).
class JitEventListener {
public:
  virtual ~JitEventListener();
  /// Called on entry of an instrumented (compiled) method.
  virtual void onMethodEnter(uint32_t MethodIndex, const TscSample &Now) = 0;
  /// Called on every exit path, including exceptional unwinds.
  virtual void onMethodExit(uint32_t MethodIndex, const TscSample &Now,
                            bool Exceptional) = 0;
  virtual void onCompile(const CompileEvent &Event) = 0;
};

class VirtualMachine {
public:
  using ModifierHook = std::function<PlanModifier(
      uint32_t MethodIndex, OptLevel Level, const FeatureVector &Features)>;
  /// Called right after an exploration recompile was issued; lets the
  /// strategy control freeze methods that hit their modifier budget.
  using RecompileGate = std::function<bool(uint32_t MethodIndex)>;

  /// Background-compilation mode. Off by default: synchronous compilation
  /// stays fully deterministic, which the collection/measurement harness
  /// and most tests rely on. When enabled, compile requests are queued and
  /// served by worker threads while the interpreter keeps running; compile
  /// cycles then no longer advance the interpreter's clock (the compiler
  /// has its own core), and a full queue simply means the method keeps
  /// interpreting until a slot frees up.
  struct AsyncConfig {
    bool Enabled = false;
    unsigned Workers = 2;
    size_t QueueCapacity = 64;
    /// Max compile requests served by one batched model round trip.
    size_t MaxPredictBatch = 8;
  };

  struct Config {
    SimClock::Config Clock;
    CostModel Cost;
    CompilationControl::Config Control;
    AsyncConfig Async;
    /// false = pure interpreter (no JIT at all).
    bool EnableJit = true;
    /// Instrument compiled methods with enter/exit profiling events.
    bool InstrumentMethods = false;
    unsigned MaxCallDepth = 512;
  };

  VirtualMachine(const Program &P, const Config &C);
  ~VirtualMachine();

  /// Runs the program's entry method with integer arguments. Returns the
  /// result, or the exception that escaped main.
  ExecResult run(const std::vector<Value> &Args = {});

  /// Invokes an arbitrary method with the \p NumArgs arguments at \p Args
  /// (used by both engines for calls, with \p Args pointing into the
  /// caller's frame). \p Depth guards against runaway recursion.
  ExecResult invoke(uint32_t MethodIndex, const Value *Args, size_t NumArgs,
                    unsigned Depth);

  /// Adapter over the span form for tests, the fuzzer and the examples.
  ExecResult invoke(uint32_t MethodIndex, const std::vector<Value> &Args,
                    unsigned Depth = 0) {
    return invoke(MethodIndex, Args.data(), Args.size(), Depth);
  }

  /// Forces a compilation at \p Level right now (tests, examples).
  void compileMethod(uint32_t MethodIndex, OptLevel Level,
                     bool IsExploration = false);

  /// Compiles with an explicit plan and modifier, bypassing the modifier
  /// hook — the workhorse behind compileMethod and the plan-exploration
  /// tooling.
  void compileWithPlan(uint32_t MethodIndex, const CompilationPlan &Plan,
                       const PlanModifier &Modifier,
                       bool IsExploration = false);

  /// Set hooks before execution starts. In async mode the hook is shared
  /// by the worker threads and must be thread-safe (ResilientModelClient
  /// and LearnedStrategyProvider are).
  void setModifierHook(ModifierHook H);
  /// Async mode only: lets one bridge round trip serve a whole worker
  /// backlog (the PredictBatch message). Ignored in sync mode.
  void setBatchModifierHook(AsyncCompilePipeline::BatchModifierFn H);
  void setListener(JitEventListener *L) { Listener = L; }
  void setRecompileGate(RecompileGate G) { Gate = std::move(G); }

  /// True when background compilation workers are running.
  bool asyncEnabled() const { return AsyncPipe != nullptr; }

  /// Async mode: blocks until every queued/in-flight compilation has been
  /// installed and its bookkeeping applied, then reclaims retired code.
  /// Call from the interpreter thread between invocations (not from a
  /// hook or listener). No-op in sync mode.
  void drainCompilations();

  /// Async mode: the pipeline's queue counters (overflows, coalesces,
  /// depth high-water mark). Zeroes in sync mode.
  CompilationQueue::Counters asyncQueueCounters() const;

  const CodeCache &codeCache() const { return Code; }

  const Program &program() const { return Prog; }
  Heap &heap() { return TheHeap; }
  SimClock &clock() { return Clock; }
  CompilationControl &control() { return Control; }
  const Config &config() const { return Cfg; }
  const CostModel &costModel() const { return Cfg.Cost; }

  Value getGlobal(uint32_t Slot) const { return Globals[Slot]; }
  void setGlobal(uint32_t Slot, Value V) { Globals[Slot] = V; }

  /// Compiled body of a method, or nullptr while interpreted.
  const NativeMethod *nativeOf(uint32_t MethodIndex) const;

  /// Loop class of a method, classified once from the IL this VM keeps
  /// for it (the IL compiles clone and the features are extracted from).
  LoopClass loopClassOf(uint32_t MethodIndex) {
    return Inputs.loopClass(MethodIndex);
  }

  // --- Statistics for the harness ---
  struct Stats {
    double AppCycles = 0.0;     ///< cycles spent executing the program
    double CompileCycles = 0.0; ///< cycles spent compiling
    uint64_t Compilations = 0;
    uint64_t ExplorationRecompiles = 0;
    uint64_t Invocations = 0;
    uint64_t InterpretedInvocations = 0;
    uint64_t ExceptionsRaised = 0;
    /// Compilations that ran with the null modifier, i.e. the unmodified
    /// hand-tuned plan — the strategy control's fallback path.
    uint64_t NullModifierCompilations = 0;
    /// Modifier hook invocations that threw; the compilation proceeded
    /// with the null modifier instead of aborting the VM.
    uint64_t HookFailures = 0;
    // --- Async pipeline (all zero in sync mode) ---
    /// Cycles spent compiling on worker threads. Unlike CompileCycles
    /// these do not advance the interpreter's clock: the background
    /// compiler runs on its own core.
    double AsyncCompileCycles = 0.0;
    uint64_t AsyncCompileRequests = 0; ///< requests accepted by the queue
    uint64_t AsyncCoalescedRequests = 0; ///< merged into a pending request
    /// Requests rejected by a full queue; the method kept interpreting
    /// (backpressure falls back to interpretation, never blocks).
    uint64_t AsyncQueueOverflows = 0;
    uint64_t AsyncInstalls = 0; ///< worker compilations that became current
    /// Worker compilations that lost the install race to a newer ticket.
    uint64_t AsyncStaleCompiles = 0;
    /// Interpreter-thread wall cycles (what the application experiences).
    double totalCycles() const { return AppCycles + CompileCycles; }
  };
  const Stats &stats() const { return Stat; }

  // Internal (used by the execution engines; not part of the public API).
  ExecResult raise(RtExceptionKind Kind);
  void charge(double Cycles) {
    Clock.advance(Cycles);
    Stat.AppCycles += Cycles;
  }
  void noteException() { ++Stat.ExceptionsRaised; }

private:
  friend ExecResult interpretMethod(VirtualMachine &, uint32_t,
                                    const Value *, size_t, unsigned);
  friend ExecResult executeNative(VirtualMachine &, const NativeMethod &,
                                  const Value *, size_t, unsigned);
  friend class RegisterClock;
  class FrameLease; // runtime/ExecInternal.h

  /// Operand-stack slots the interpreter reserves for \p MethodIndex: the
  /// verifier's MaxStack, or, when the program skipped the verifier, the
  /// verifier run here once. False when the verifier rejects the method.
  bool stackBoundOf(uint32_t MethodIndex, uint32_t &Bound);

  /// Applies buffered worker completions to the single-threaded VM state
  /// (CompilationControl, statistics, listener) on the interpreter thread.
  void flushAsyncCompletions();
  /// Routes a trigger to the pipeline (async) or compiles inline (sync).
  void serviceCompileRequest(const CompileRequest &Req);
  uint64_t nextInstallTicket();

  const Program &Prog;
  Config Cfg;
  SimClock Clock;
  Heap TheHeap;
  CompilationControl Control;
  std::vector<Value> Globals;
  CodeCache Code; ///< per-method compiled bodies (atomic handoff)
  /// The interpreter thread's IL, features and loop class per method;
  /// async workers keep their own (see CompileInputs).
  CompileInputs Inputs;
  ModifierHook Hook;
  RecompileGate Gate;
  JitEventListener *Listener = nullptr;
  Stats Stat;
  /// Interpreter charge per opcode (dispatch + intrinsic cost), indexed by
  /// the opcode's byte.
  std::array<double, 256> InterpCosts;
  std::vector<uint32_t> StackBounds; ///< cache behind stackBoundOf()
  /// Engine frame storage, one buffer per call depth, reused by every
  /// activation at that depth (see FrameLease).
  std::vector<std::vector<Value>> Frames;
  /// One past the depth of the innermost live engine activation (0 when
  /// none is live).
  unsigned FrameTop = 0;
  uint64_t SyncTicket = 0; ///< install sequence when no pipeline exists
  /// Declared last: destroyed first, so workers are joined before any
  /// state they reference goes away.
  std::unique_ptr<AsyncCompilePipeline> AsyncPipe;
};

} // namespace jitml

#endif // JITML_RUNTIME_VIRTUALMACHINE_H
