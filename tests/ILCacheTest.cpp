//===- tests/ILCacheTest.cpp - one IL per method, shared by every reader --===//
//
// The VM and each async worker keep one IL per method (ILCache) with its
// features and loop class (CompileInputs). Compiles optimize a clone of
// the cached IL, the inliner imports callees from the same cache, and the
// strategy hook reads the cached features. These tests pin that none of
// it is visible in what the compiler produces:
//
//   * the cached IL is generateIL's output, unannotated; a clone is
//     indistinguishable from it, and optimizing the clone leaves it
//     untouched;
//   * compiling through one long-lived cache gives the same code and the
//     same compile cycles, to the bit, as compiling from fresh IL;
//   * the features the hook sees, the features a CompileEvent records and
//     the features of freshly generated IL are the same vector (a mismatch
//     would be train/predict skew).
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenerator.h"
#include "features/FeatureExtractor.h"
#include "il/ILGenerator.h"
#include "il/ILPrinter.h"
#include "il/LoopInfo.h"
#include "opt/Optimizer.h"
#include "runtime/VirtualMachine.h"
#include "support/Rng.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>

using namespace jitml;

namespace {

std::vector<Program> allStandIns() {
  std::vector<Program> Out;
  for (const WorkloadSpec &S : specJvm98Suite())
    Out.push_back(buildWorkload(S));
  for (const WorkloadSpec &S : daCapoSuite())
    Out.push_back(buildWorkload(S));
  return Out;
}

/// A fixed, arbitrary modifier per (method, level).
PlanModifier seededModifier(uint32_t Method, OptLevel Level) {
  uint64_t Bits =
      mix64(0x11ca5eedULL ^ ((uint64_t)Method << 8) ^ (uint64_t)Level);
  return PlanModifier::fromRaw(Bits & ((1ULL << NumTransformations) - 1));
}

uint64_t bitsOf(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

} // namespace

TEST(ILCache, CloneMatchesSourceAndOptimizingItLeavesSourceAlone) {
  for (const Program &P : allStandIns()) {
    ILCache ILs(P);
    for (uint32_t M = 0; M < P.numMethods(); ++M) {
      const MethodIL &Src = ILs.get(M);
      std::string Before = printMethodIL(Src);
      uint64_t EpochBefore = Src.modEpoch();
      // The cache keeps generateIL's output as is: block frequencies (in
      // the print) unannotated, since the inliner reads them raw.
      std::unique_ptr<MethodIL> Fresh = generateIL(P, M);
      EXPECT_EQ(Before, printMethodIL(*Fresh)) << P.methodAt(M).Name;
      EXPECT_EQ(EpochBefore, Fresh->modEpoch());

      std::unique_ptr<MethodIL> C = Src.clone();
      EXPECT_EQ(printMethodIL(*C), Before) << P.methodAt(M).Name;
      EXPECT_EQ(C->numNodes(), Src.numNodes());
      EXPECT_EQ(C->numBlocks(), Src.numBlocks());
      EXPECT_EQ(C->numLocals(), Src.numLocals());
      EXPECT_EQ(C->entryBlock(), Src.entryBlock());
      EXPECT_EQ(C->modEpoch(), EpochBefore);
      EXPECT_EQ(C->countLiveNodes(), Src.countLiveNodes());
      EXPECT_EQ(extractFeatures(*C), extractFeatures(Src));

      // Inlining imports callees from the same cache that holds Src.
      optimize(*C, planForLevel(OptLevel::Scorching),
               BitSet64::allOne(NumTransformations), &ILs);
      EXPECT_EQ(printMethodIL(Src), Before) << P.methodAt(M).Name;
      EXPECT_EQ(Src.modEpoch(), EpochBefore);
    }
  }
}

TEST(ILCache, CachedCompilesMatchFreshOnesBitForBit) {
  const CostModel &Cost = CostModel::defaults();
  for (const Program &P : allStandIns()) {
    // One cache for every compile of the program: later compiles inline
    // callee IL that earlier ones already read.
    ILCache Shared(P);
    for (uint32_t M = 0; M < P.numMethods(); ++M)
      for (unsigned L = 0; L < NumOptLevels; ++L) {
        const CompilationPlan &Plan = planForLevel((OptLevel)L);
        PlanModifier Mod = seededModifier(M, (OptLevel)L);
        CompiledBody Cached = compileMethodBody(Shared, M, Plan, Mod, Cost);
        CompiledBody Adapter = compileMethodBody(P, M, Plan, Mod, Cost);

        // The layer calls on freshly generated IL, with no clone and no
        // cache passed to the optimizer.
        std::unique_ptr<MethodIL> IL = generateIL(P, M);
        LoopInfo::annotateFrequencies(*IL);
        OptimizeResult Opt = optimize(*IL, Plan, Mod.enabledMask());
        NativeMethod Fresh =
            generateCode(*IL, Opt.CodegenOptions, Plan.Level, Cost);
        double FreshCycles = Opt.CompileCycles + Fresh.CompileCycles;

        std::string Where =
            P.methodAt(M).Name + " at " + optLevelName((OptLevel)L);
        std::string Code = printNativeMethod(Fresh);
        EXPECT_EQ(printNativeMethod(*Cached.Native), Code) << Where;
        EXPECT_EQ(printNativeMethod(*Adapter.Native), Code) << Where;
        EXPECT_EQ(bitsOf(Cached.CompileCycles), bitsOf(FreshCycles)) << Where;
        EXPECT_EQ(bitsOf(Adapter.CompileCycles), bitsOf(FreshCycles))
            << Where;
        EXPECT_EQ(bitsOf(Cached.Native->ICacheFactor),
                  bitsOf(Fresh.ICacheFactor))
            << Where;
      }
  }
}

namespace {

/// Records what the hooks and the listener saw, from any thread.
struct FeatureLog : JitEventListener {
  std::mutex Mu;
  std::vector<std::pair<uint32_t, FeatureVector>> Hook, Events;

  void onMethodEnter(uint32_t, const TscSample &) override {}
  void onMethodExit(uint32_t, const TscSample &, bool) override {}
  void onCompile(const CompileEvent &E) override {
    std::lock_guard<std::mutex> Lock(Mu);
    Events.emplace_back(E.MethodIndex, E.Features);
  }
  void noteHook(uint32_t M, const FeatureVector &F) {
    std::lock_guard<std::mutex> Lock(Mu);
    Hook.emplace_back(M, F);
  }
};

/// Runs \p P three times on an adaptive VM whose hook and listener record
/// every feature vector, and checks each against fresh IL's features.
void expectNoFeatureSkew(const Program &P, bool Async) {
  VirtualMachine::Config Cfg;
  Cfg.Async.Enabled = Async;
  VirtualMachine VM(P, Cfg);
  FeatureLog Log;
  VM.setListener(&Log);
  VM.setModifierHook(
      [&Log](uint32_t M, OptLevel L, const FeatureVector &F) {
        Log.noteHook(M, F);
        return seededModifier(M, L);
      });
  VM.setBatchModifierHook(
      [&Log](const std::vector<AsyncCompilePipeline::BatchPredictItem> &Items) {
        std::vector<PlanModifier> Out;
        for (const AsyncCompilePipeline::BatchPredictItem &I : Items) {
          Log.noteHook(I.MethodIndex, I.Features);
          Out.push_back(seededModifier(I.MethodIndex, I.Level));
        }
        return Out;
      });
  for (int I = 0; I < 3; ++I)
    ASSERT_FALSE(VM.run({Value::ofI(I)}).Exceptional);
  VM.drainCompilations();

  ASSERT_FALSE(Log.Events.empty()) << "nothing was compiled";
  EXPECT_EQ(Log.Hook.size(), Log.Events.size());
  std::map<uint32_t, FeatureVector> Fresh;
  auto FreshOf = [&](uint32_t M) -> const FeatureVector & {
    auto It = Fresh.find(M);
    if (It == Fresh.end())
      It = Fresh.emplace(M, extractFeatures(*generateIL(P, M))).first;
    return It->second;
  };
  for (const auto &[M, F] : Log.Hook)
    EXPECT_EQ(F, FreshOf(M)) << "hook features of " << P.methodAt(M).Name;
  for (const auto &[M, F] : Log.Events)
    EXPECT_EQ(F, FreshOf(M)) << "event features of " << P.methodAt(M).Name;
}

} // namespace

TEST(ILCache, HookEventAndFreshFeaturesAgreeSync) {
  for (const WorkloadSpec &S : trainingBenchmarks())
    expectNoFeatureSkew(buildWorkload(S), /*Async=*/false);
}

TEST(ILCache, HookEventAndFreshFeaturesAgreeAsync) {
  for (const WorkloadSpec &S : trainingBenchmarks())
    expectNoFeatureSkew(buildWorkload(S), /*Async=*/true);
}
