//===- runtime/VirtualMachine.cpp -----------------------------------------===//

#include "runtime/VirtualMachine.h"

#include "bytecode/Verifier.h"
#include "runtime/ExecInternal.h"
#include "support/Telemetry.h"

using namespace jitml;

JitEventListener::~JitEventListener() = default;

VirtualMachine::VirtualMachine(const Program &P, const Config &C)
    : Prog(P), Cfg(C), Clock(C.Clock), Control(C.Control), Inputs(P) {
  Globals.resize(P.numGlobals());
  Code.reset(P.numMethods());
  fillInterpCosts(Cfg.Cost, InterpCosts);
  StackBounds.assign(P.numMethods(), UINT32_MAX);
  if (Cfg.Async.Enabled && Cfg.EnableJit) {
    AsyncCompilePipeline::Config PC;
    PC.Workers = Cfg.Async.Workers;
    PC.QueueCapacity = Cfg.Async.QueueCapacity;
    PC.MaxPredictBatch = Cfg.Async.MaxPredictBatch;
    AsyncPipe = std::make_unique<AsyncCompilePipeline>(Prog, Cfg.Cost, Code,
                                                       PC);
  }
}

VirtualMachine::~VirtualMachine() {
  if (AsyncPipe) {
    // Discard queued work, let in-flight compiles finish, join workers.
    AsyncPipe->shutdown(false);
    flushAsyncCompletions();
  }
}

void VirtualMachine::setModifierHook(ModifierHook H) {
  Hook = std::move(H);
  if (AsyncPipe)
    AsyncPipe->setModifierHook(Hook);
}

void VirtualMachine::setBatchModifierHook(
    AsyncCompilePipeline::BatchModifierFn H) {
  if (AsyncPipe)
    AsyncPipe->setBatchModifierHook(std::move(H));
}

const NativeMethod *VirtualMachine::nativeOf(uint32_t MethodIndex) const {
  return Code.lookup(MethodIndex);
}

bool VirtualMachine::stackBoundOf(uint32_t MethodIndex, uint32_t &Bound) {
  constexpr uint32_t Unknown = UINT32_MAX, Rejected = UINT32_MAX - 1;
  uint32_t &Cached = StackBounds[MethodIndex];
  if (Cached == Unknown) {
    Cached = Prog.methodAt(MethodIndex).MaxStack;
    // Zero is also what a program that skipped the verifier carries: verify
    // the method here, once, rather than interpret it without a bound.
    if (Cached == 0 && !checkMethod(Prog, MethodIndex, Cached).ok())
      Cached = Rejected;
  }
  Bound = Cached;
  return Cached != Rejected;
}

ExecResult VirtualMachine::raise(RtExceptionKind Kind) {
  ++Stat.ExceptionsRaised;
  return ExecResult::exception(TheHeap.allocException(Kind));
}

uint64_t VirtualMachine::nextInstallTicket() {
  return AsyncPipe ? AsyncPipe->takeTicket() : ++SyncTicket;
}

void VirtualMachine::compileMethod(uint32_t MethodIndex, OptLevel Level,
                                   bool IsExploration) {
  if (!Hook) {
    compileWithPlan(MethodIndex, planForLevel(Level), PlanModifier(),
                    IsExploration);
    return;
  }
  // "The Strategy Control extension computes the features for the method
  // being compiled" just prior to optimization (Figure 5 step d).
  PlanModifier Modifier;
  try {
    Modifier = Hook(MethodIndex, Level, Inputs.features(MethodIndex));
  } catch (...) {
    // A misbehaving strategy hook must never take the VM down: compile
    // with the unmodified hand-tuned plan instead.
    ++Stat.HookFailures;
    Modifier = PlanModifier();
  }
  compileWithPlan(MethodIndex, planForLevel(Level), Modifier, IsExploration);
}

void VirtualMachine::compileWithPlan(uint32_t MethodIndex,
                                     const CompilationPlan &Plan,
                                     const PlanModifier &Modifier,
                                     bool IsExploration) {
  OptLevel Level = Plan.Level;
  uint64_t StartUs = telemetryNowUs();
  CompiledBody Body =
      compileMethodBody(Inputs.ils(), MethodIndex, Plan, Modifier, Cfg.Cost);
  double TotalCompile = Body.CompileCycles;

  bool Installed =
      Code.install(MethodIndex, std::move(Body.Native), nextInstallTicket());
  // Name lookups once per process, not per compile.
  static TelemetryCounter &SyncCompiles =
      MetricRegistry::global().counter("vm.sync_compiles");
  static TelemetryHistogram &SyncCompileUs =
      MetricRegistry::global().histogram("vm.sync_compile");
  SyncCompiles.add();
  SyncCompileUs.record(telemetryNowUs() - StartUs);
  if (TraceEmitter::global().enabled()) {
    TraceEvent E;
    E.Stage = "compile";
    E.StartUs = StartUs;
    E.DurUs = telemetryNowUs() - StartUs;
    E.Method = MethodIndex;
    E.Level = (int)Level;
    E.Cycles = TotalCompile;
    E.Detail = Installed ? "installed" : "stale";
    E.Ok = Installed;
    TraceEmitter::global().record(E);
  }
  if (Installed)
    Control.noteCompiled(MethodIndex, Level);

  // Synchronous compilation: the compiler competes with the application
  // for the same core, so compile cycles advance the clock too.
  Clock.advance(TotalCompile);
  Stat.CompileCycles += TotalCompile;
  ++Stat.Compilations;
  if (Modifier.raw() == PlanModifier().raw())
    ++Stat.NullModifierCompilations;
  if (IsExploration)
    ++Stat.ExplorationRecompiles;

  if (Listener) {
    CompileEvent Event;
    Event.MethodIndex = MethodIndex;
    Event.Level = Level;
    Event.Modifier = Modifier;
    Event.Features = Inputs.features(MethodIndex);
    Event.CompileCycles = TotalCompile;
    Event.IsExplorationRecompile = IsExploration;
    Listener->onCompile(Event);
  }
}

void VirtualMachine::flushAsyncCompletions() {
  if (!AsyncPipe)
    return;
  for (const CompileCompletion &C : AsyncPipe->takeCompletions()) {
    if (C.Installed) {
      Control.noteCompiled(C.MethodIndex, C.Level);
      ++Stat.AsyncInstalls;
    } else {
      ++Stat.AsyncStaleCompiles;
    }
    // Worker compile cycles never advance the interpreter clock — the
    // background compiler runs on its own core.
    Stat.AsyncCompileCycles += C.CompileCycles;
    ++Stat.Compilations;
    if (C.HookFailed)
      ++Stat.HookFailures;
    if (C.Modifier.raw() == PlanModifier().raw())
      ++Stat.NullModifierCompilations;
    if (C.IsExplorationRecompile)
      ++Stat.ExplorationRecompiles;
    if (Listener) {
      CompileEvent Event;
      Event.MethodIndex = C.MethodIndex;
      Event.Level = C.Level;
      Event.Modifier = C.Modifier;
      Event.Features = Inputs.features(C.MethodIndex);
      Event.CompileCycles = C.CompileCycles;
      Event.IsExplorationRecompile = C.IsExplorationRecompile;
      Listener->onCompile(Event);
    }
  }
}

void VirtualMachine::serviceCompileRequest(const CompileRequest &Req) {
  if (!AsyncPipe) {
    compileMethod(Req.MethodIndex, Req.Level, Req.IsExplorationRecompile);
    return;
  }
  switch (AsyncPipe->request(Req.MethodIndex, Req.Level,
                             Req.IsExplorationRecompile,
                             Control.invocationsOf(Req.MethodIndex))) {
  case CompilationQueue::EnqueueResult::Enqueued:
    ++Stat.AsyncCompileRequests;
    break;
  case CompilationQueue::EnqueueResult::Coalesced:
    ++Stat.AsyncCoalescedRequests;
    break;
  case CompilationQueue::EnqueueResult::Overflow:
    // Backpressure: keep interpreting; the trigger will re-fire.
    ++Stat.AsyncQueueOverflows;
    break;
  case CompilationQueue::EnqueueResult::Closed:
    break;
  }
}

void VirtualMachine::drainCompilations() {
  if (!AsyncPipe)
    return;
  AsyncPipe->drain();
  flushAsyncCompletions();
  // Quiescent (no invocation in progress by contract): old bodies are
  // safe to free now.
  Code.reclaimRetired();
}

CompilationQueue::Counters VirtualMachine::asyncQueueCounters() const {
  return AsyncPipe ? AsyncPipe->queueCounters()
                   : CompilationQueue::Counters();
}

ExecResult VirtualMachine::invoke(uint32_t MethodIndex, const Value *Args,
                                  size_t NumArgs, unsigned Depth) {
  if (Depth > Cfg.MaxCallDepth)
    return raise(RtExceptionKind::StackOverflow);
  // Apply finished background compilations before dispatching: a relaxed
  // flag check keeps the cost negligible when nothing completed.
  if (AsyncPipe && AsyncPipe->hasCompletions())
    flushAsyncCompletions();
  const MethodInfo &M = Prog.methodAt(MethodIndex);
  assert(NumArgs == M.numArgs() && "invoke with wrong argument count");
  ++Stat.Invocations;

  const NativeMethod *Native = Code.lookup(MethodIndex);
  // Call overhead: leaf-optimized callees skip most of the frame setup.
  charge(Native && Native->Leaf ? Cfg.Cost.LeafCallOverhead
                                : Cfg.Cost.CallOverhead);
  // Synchronized methods lock the receiver (or the class for statics).
  if (M.hasFlag(MF_Synchronized))
    charge(Cfg.Cost.MonitorCost);

  bool Instrument = Cfg.InstrumentMethods && Listener && Native;
  if (Instrument)
    Listener->onMethodEnter(MethodIndex, Clock.readTimestamp());

  double CyclesBefore = Clock.cycles();
  ExecResult Result;
  if (Native) {
    Result = executeNative(*this, *Native, Args, NumArgs, Depth);
  } else {
    ++Stat.InterpretedInvocations;
    Result = interpretMethod(*this, MethodIndex, Args, NumArgs, Depth);
  }
  double Spent = Clock.cycles() - CyclesBefore;

  if (M.hasFlag(MF_Synchronized))
    charge(Cfg.Cost.MonitorCost);
  if (Instrument)
    Listener->onMethodExit(MethodIndex, Clock.readTimestamp(),
                           Result.Exceptional);

  // Compilation control: invocation counters + time sampling.
  if (Cfg.EnableJit) {
    std::optional<CompileRequest> Req =
        Control.onInvocationEnd(MethodIndex, Spent, loopClassOf(MethodIndex));
    if (Req) {
      bool Allowed = true;
      if (Req->IsExplorationRecompile && Gate)
        Allowed = Gate(Req->MethodIndex);
      if (Allowed)
        serviceCompileRequest(*Req);
      else
        Control.freezeExploration(Req->MethodIndex);
    }
  }
  return Result;
}

ExecResult VirtualMachine::run(const std::vector<Value> &Args) {
  assert(Prog.entryMethod() >= 0 && "program has no entry method");
  return invoke((uint32_t)Prog.entryMethod(), Args.data(), Args.size(), 0);
}
