//===- opt/Optimizer.cpp --------------------------------------------------===//

#include "opt/Optimizer.h"

#include "opt/Passes.h"
#include "support/FaultInjection.h"
#include "support/Memo.h"
#include "support/Telemetry.h"
#include "verify/PassVerifier.h"

#include <array>
#include <vector>

using namespace jitml;

namespace {

/// opt.pass.corrupt: structural damage the ILVerifier must catch — an
/// extra successor edge on the entry block breaks the terminator/arity
/// invariant without touching any tree.
void corruptIL(MethodIL &IL) {
  Block &Entry = IL.block(IL.entryBlock());
  Entry.Succs.push_back(IL.entryBlock());
}

/// opt.pass.miscompile: semantic damage that stays structurally valid —
/// bump the first integer constant in a reachable tree. The verifier
/// cannot see it; only differential execution can.
void miscompileIL(MethodIL &IL) {
  for (BlockId B = 0; B < IL.numBlocks(); ++B) {
    const Block &Blk = IL.block(B);
    if (!Blk.Reachable)
      continue;
    for (NodeId Root : Blk.Trees) {
      std::vector<NodeId> Stack{Root};
      while (!Stack.empty()) {
        NodeId Id = Stack.back();
        Stack.pop_back();
        Node &N = IL.node(Id);
        if (N.Op == ILOp::Const && isIntegerType(N.Type)) {
          ++N.ConstI;
          return;
        }
        for (NodeId Kid : N.Kids)
          Stack.push_back(Kid);
      }
    }
  }
}

} // namespace

bool jitml::runTransformation(PassContext &Ctx, TransformationKind K) {
  switch (K) {
  case TransformationKind::ConstantFolding:
    return runConstantFolding(Ctx);
  case TransformationKind::ExpressionSimplification:
    return runExpressionSimplification(Ctx);
  case TransformationKind::StrengthReduction:
    return runStrengthReduction(Ctx);
  case TransformationKind::Reassociation:
    return runReassociation(Ctx);
  case TransformationKind::SignExtensionElimination:
    return runSignExtensionElimination(Ctx);
  case TransformationKind::FPSimplification:
    return runFPSimplification(Ctx);
  case TransformationKind::FPStrengthReduction:
    return runFPStrengthReduction(Ctx);
  case TransformationKind::BCDSimplification:
    return runBCDSimplification(Ctx);
  case TransformationKind::LongDoubleFastPath:
    return runLongDoubleFastPath(Ctx);
  case TransformationKind::LocalCopyPropagation:
    return runLocalCopyPropagation(Ctx);
  case TransformationKind::LocalValueNumbering:
    return runLocalValueNumbering(Ctx);
  case TransformationKind::RedundantLoadElimination:
    return runRedundantLoadElimination(Ctx);
  case TransformationKind::DeadTreeElimination:
    return runDeadTreeElimination(Ctx);
  case TransformationKind::DeadStoreElimination:
    return runDeadStoreElimination(Ctx);
  case TransformationKind::Rematerialization:
    return runRematerialization(Ctx);
  case TransformationKind::StoreSinking:
    return runStoreSinking(Ctx);
  case TransformationKind::GuardMerging:
    return runGuardMerging(Ctx);
  case TransformationKind::ThrowFastPathing:
    return runThrowFastPathing(Ctx);
  case TransformationKind::AllocationSinking:
    return runAllocationSinking(Ctx);
  case TransformationKind::GlobalCopyPropagation:
    return runGlobalCopyPropagation(Ctx);
  case TransformationKind::GlobalValueNumbering:
    return runGlobalValueNumbering(Ctx);
  case TransformationKind::GlobalDeadStoreElimination:
    return runGlobalDeadStoreElimination(Ctx);
  case TransformationKind::PartialRedundancyElimination:
    return runPartialRedundancyElimination(Ctx);
  case TransformationKind::UnreachableCodeElimination:
    return runUnreachableCodeElimination(Ctx);
  case TransformationKind::BlockMerging:
    return runBlockMerging(Ctx);
  case TransformationKind::BranchFolding:
    return runBranchFolding(Ctx);
  case TransformationKind::JumpThreading:
    return runJumpThreading(Ctx);
  case TransformationKind::TailDuplication:
    return runTailDuplication(Ctx);
  case TransformationKind::ColdBlockOutlining:
    return runColdBlockOutlining(Ctx);
  case TransformationKind::NullCheckElimination:
    return runNullCheckElimination(Ctx);
  case TransformationKind::BoundsCheckElimination:
    return runBoundsCheckElimination(Ctx);
  case TransformationKind::DivCheckElimination:
    return runDivCheckElimination(Ctx);
  case TransformationKind::CastCheckElimination:
    return runCastCheckElimination(Ctx);
  case TransformationKind::Devirtualization:
    return runDevirtualization(Ctx);
  case TransformationKind::InlineTrivial:
    return runInlining(Ctx, /*CalleeNodeBudget=*/12, /*GrowthBudget=*/64);
  case TransformationKind::InlineSmall:
    return runInlining(Ctx, /*CalleeNodeBudget=*/40, /*GrowthBudget=*/256);
  case TransformationKind::InlineAggressive:
    return runInlining(Ctx, /*CalleeNodeBudget=*/120, /*GrowthBudget=*/1024);
  case TransformationKind::EscapeAnalysis:
    return runEscapeAnalysis(Ctx);
  case TransformationKind::MonitorElision:
    return runMonitorElision(Ctx);
  case TransformationKind::LoopCanonicalization:
    return runLoopCanonicalization(Ctx);
  case TransformationKind::LoopInvariantCodeMotion:
    return runLoopInvariantCodeMotion(Ctx);
  case TransformationKind::LoopUnrolling:
    return runLoopUnrolling(Ctx, 2);
  case TransformationKind::LoopUnrollingAggressive:
    return runLoopUnrolling(Ctx, 4);
  case TransformationKind::LoopFullUnrolling:
    return runLoopUnrolling(Ctx, 0);
  case TransformationKind::LoopPeeling:
    return runLoopPeeling(Ctx);
  case TransformationKind::LoopBoundsVersioning:
    return runLoopBoundsVersioning(Ctx);
  case TransformationKind::LoopStrengthReduction:
    return runLoopStrengthReduction(Ctx);
  case TransformationKind::InductionVariableElimination:
    return runInductionVariableElimination(Ctx);
  case TransformationKind::EmptyLoopRemoval:
    return runEmptyLoopRemoval(Ctx);
  case TransformationKind::IdiomRecognition:
    return runIdiomRecognition(Ctx);
  case TransformationKind::PrefetchInsertion:
    return runPrefetchInsertion(Ctx);
  case TransformationKind::ImplicitExceptionChecks:
    return runImplicitExceptionChecks(Ctx);
  case TransformationKind::RegisterCoalescing:
  case TransformationKind::InstructionScheduling:
  case TransformationKind::PeepholeOptimization:
  case TransformationKind::ConstantEncoding:
  case TransformationKind::ProfileGuidedLayout:
  case TransformationKind::LeafRoutineOptimization:
    return false; // codegen-stage: handled by the code generator
  }
  return false;
}

namespace {

/// Per-kind record of a pass body that ran and made no change. Valid only
/// while the IL's modification epoch still equals Epoch: passes are
/// deterministic functions of the IL, so an unchanged epoch (byte-identical
/// IL) guarantees a rerun would again do nothing and charge the same
/// cycles. Epochs strictly increase, so a stale entry can never false-hit.
///
/// Charges holds the body's exact charge() sequence (run-length encoded).
/// A hit replays it addition-by-addition rather than adding one recorded
/// total: FP addition is not associative, so only the original sequence of
/// additions reproduces the memo-off CompileCycles figure to the last bit.
struct MemoEntry {
  uint64_t Epoch = 0;
  std::vector<ChargeRec> Charges;
  bool Valid = false;
};

struct MemoCounters {
  TelemetryCounter *Hits;
  TelemetryCounter *Misses;
  MemoCounters() {
    MetricRegistry &R = MetricRegistry::global();
    Hits = &R.counter("opt.memo.hits");
    Misses = &R.counter("opt.memo.misses");
  }
};

MemoCounters &memoCounters() {
  static MemoCounters C;
  return C;
}

} // namespace

OptimizeResult jitml::optimize(MethodIL &IL, const CompilationPlan &Plan,
                               const BitSet64 &EnabledMask, ILCache *Callees) {
  assert(EnabledMask.width() == NumTransformations &&
         "modifier mask must cover all 58 transformations");
  OptimizeResult Result;
  PassContext Ctx(IL, Callees);
  // Plans repeat cleanup passes heavily (a scorching plan has 170+ entries
  // over 58 kinds); once a kind has run to no effect, later occurrences hit
  // here until something actually changes the IL. All charge() accounting
  // on the hit path replays exactly what a rerun would charge.
  std::array<MemoEntry, NumTransformations> Memo;
  std::vector<ChargeRec> ChargeScratch; ///< reused recording buffer
  for (size_t EI = 0; EI < Plan.Entries.size(); ++EI) {
    TransformationKind K = Plan.Entries[EI];
    if (!EnabledMask.test((unsigned)K)) {
      ++Result.EntriesDisabled;
      continue;
    }
    const TransformationInfo &Info = transformationInfo(K);
    if (Info.Stage == TransformStage::Codegen) {
      // Codegen options are recorded once; repeated entries are free.
      if (!Result.CodegenOptions.contains(K)) {
        Result.CodegenOptions.insert(K);
        Ctx.charge(Info.BaseCost);
      }
      ++Result.EntriesRun;
      continue;
    }
    // "Before applying a transformation prescribed by a plan, the compiler
    // checks for method characteristics that might make the transformation
    // meaningless." The guard itself costs a cheap scan.
    Ctx.charge(IL.countLiveNodes() * 0.05);
    if (!transformationApplicable(K, IL, Ctx.guardFacts())) {
      ++Result.EntriesSkippedInapplicable;
      continue;
    }
    Ctx.charge(Info.BaseCost + Info.CostPerNode * IL.countLiveNodes());
    MemoEntry &M = Memo[(unsigned)K];
    if (memoEnabled() && M.Valid && M.Epoch == IL.modEpoch()) {
      // The body ran at this exact IL state and did nothing: skip it and
      // replay its recorded charges one by one, so the accumulator sees
      // the same additions a rerun would make. No ChangedPasses/coverage
      // updates — the recorded run returned false.
      for (const ChargeRec &R : M.Charges)
        for (uint32_t I = 0; I < R.Count; ++I)
          Ctx.charge(R.Amount);
      memoCounters().Hits->add();
    } else {
      uint64_t EpochBefore = IL.modEpoch();
      bool Record = memoEnabled();
      if (Record) {
        ChargeScratch.clear();
        Ctx.setChargeLog(&ChargeScratch);
      }
      bool Changed = runTransformation(Ctx, K);
      if (Record)
        Ctx.setChargeLog(nullptr);
      memoCounters().Misses->add();
      if (Changed) {
        Result.ChangedPasses.insert(K);
        if (verify::coverageEnabled())
          verify::notePassCoverage((unsigned)Plan.Level, (unsigned)K);
      } else if (Record && IL.modEpoch() == EpochBefore) {
        // No report of change AND no possible write (the epoch also covers
        // mutable accessor handouts) — safe to skip identical reruns.
        M.Epoch = EpochBefore;
        M.Charges.swap(ChargeScratch);
        M.Valid = true;
      }
    }
    ++Result.EntriesRun;
    // Chaos hooks: corrupt damages structure (the verifier must catch
    // it); miscompile damages semantics only (the fuzzer must catch it).
    // Evaluated on memo hits too, keeping fault-point ordinals aligned
    // with a memo-off run.
    if (JITML_FAULT_POINT("opt.pass.corrupt"))
      corruptIL(IL);
    if (JITML_FAULT_POINT("opt.pass.miscompile"))
      miscompileIL(IL);
    if (verify::verifyIlMode() != verify::VerifyIlMode::Off &&
        !verify::checkAfterPass(IL, Info.Name, (int)EI))
      break; // IL no longer trusted; feeding it to more passes can crash
  }
  Result.CompileCycles = Ctx.compileCycles();
  return Result;
}
