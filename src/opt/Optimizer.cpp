//===- opt/Optimizer.cpp --------------------------------------------------===//

#include "opt/Optimizer.h"

#include "opt/Passes.h"
#include "support/FaultInjection.h"
#include "verify/PassVerifier.h"

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

OptimizeResult jitml::optimize(MethodIL &IL, const CompilationPlan &Plan,
                               const BitSet64 &EnabledMask, ILCache *Callees) {
  assert(EnabledMask.width() == NumTransformations &&
         "modifier mask must cover all 58 transformations");
  OptimizeResult Result;
  PassContext Ctx(IL, Callees);
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
    if (runTransformation(Ctx, K)) {
      Result.ChangedPasses.insert(K);
      if (verify::coverageEnabled())
        verify::notePassCoverage((unsigned)Plan.Level, (unsigned)K);
    }
    ++Result.EntriesRun;
    // Chaos hooks: corrupt damages structure (the verifier must catch
    // it); miscompile damages semantics only (the fuzzer must catch it).
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
