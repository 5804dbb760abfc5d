//===- opt/Transformation.h - The 58 controllable transformations -*-C++-*===//
///
/// \file
/// The catalog of code transformations the optimizer can apply. "In this
/// implementation, there are 58 distinct code transformations that are
/// controllable, leading to a search space of 2^58" (paper section 5).
/// A compilation-plan modifier is a 58-bit mask over this enum: a cleared
/// bit disables every occurrence of that transformation in the plan.
///
/// Each kind carries registry metadata: its engine stage (tree IL vs code
/// generation), a relative compile-cost coefficient (cycles charged per IL
/// node examined), and an applicability guard — "before applying a
/// transformation prescribed by a plan, the compiler checks for method
/// characteristics that might make the transformation meaningless", e.g.
/// loop transformations are never applied to loop-free methods.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_OPT_TRANSFORMATION_H
#define JITML_OPT_TRANSFORMATION_H

#include "support/BitSet64.h"

#include <cstdint>

namespace jitml {

class MethodIL;

enum class TransformationKind : uint8_t {
  // --- Expression-level (tree) transformations ---
  ConstantFolding = 0,
  ExpressionSimplification,
  StrengthReduction,
  Reassociation,
  SignExtensionElimination,
  FPSimplification,
  FPStrengthReduction,
  BCDSimplification,
  LongDoubleFastPath,
  // --- Local (block-scoped) transformations ---
  LocalCopyPropagation,
  LocalValueNumbering,
  RedundantLoadElimination,
  DeadTreeElimination,
  DeadStoreElimination,
  Rematerialization,
  StoreSinking,
  GuardMerging,
  ThrowFastPathing,
  AllocationSinking,
  // --- Control flow / global transformations ---
  GlobalCopyPropagation,
  GlobalValueNumbering,
  GlobalDeadStoreElimination,
  PartialRedundancyElimination,
  UnreachableCodeElimination,
  BlockMerging,
  BranchFolding,
  JumpThreading,
  TailDuplication,
  ColdBlockOutlining,
  // --- Check eliminations ---
  NullCheckElimination,
  BoundsCheckElimination,
  DivCheckElimination,
  CastCheckElimination,
  // --- Calls ---
  Devirtualization,
  InlineTrivial,
  InlineSmall,
  InlineAggressive,
  // --- Objects ---
  EscapeAnalysis,
  MonitorElision,
  // --- Loops ---
  LoopCanonicalization,
  LoopInvariantCodeMotion,
  LoopUnrolling,
  LoopUnrollingAggressive,
  LoopFullUnrolling,
  LoopPeeling,
  LoopBoundsVersioning,
  LoopStrengthReduction,
  InductionVariableElimination,
  EmptyLoopRemoval,
  IdiomRecognition,
  PrefetchInsertion,
  // --- Code-generation stage ---
  RegisterCoalescing,
  InstructionScheduling,
  PeepholeOptimization,
  ConstantEncoding,
  ProfileGuidedLayout,
  ImplicitExceptionChecks,
  LeafRoutineOptimization,
};

constexpr unsigned NumTransformations = 58;
static_assert((unsigned)TransformationKind::LeafRoutineOptimization ==
                  NumTransformations - 1,
              "the paper's search space is 2^58");

/// Where the transformation's engine runs.
enum class TransformStage : uint8_t {
  Tree,    ///< operates on the IL
  Codegen, ///< toggles behaviour inside the code generator
};

/// Registry metadata for one transformation kind.
struct TransformationInfo {
  const char *Name;
  TransformStage Stage;
  /// Compile cycles charged per live IL node when the pass runs; models the
  /// relative expense of the pass (inlining/global passes cost more than
  /// peephole rewrites).
  double CostPerNode;
  /// Fixed setup cost in compile cycles charged whenever the pass runs.
  double BaseCost;
};

const TransformationInfo &transformationInfo(TransformationKind K);
const char *transformationName(TransformationKind K);

/// The cheap method characteristics the applicability guards test, filled
/// by one scan over the IL. The optimizer caches one of these per IL epoch
/// in PassContext instead of rescanning the whole method before every plan
/// entry (scorching plans consult the guard 170+ times per compile).
struct GuardFacts {
  bool HasLoops = false;
  bool HasAllocation = false;
  bool HasMonitors = false;
  bool HasCalls = false;
  bool HasVirtualCalls = false;
  bool HasFP = false;
  bool HasDecimal = false;
  bool HasLongDouble = false;
  bool HasThrow = false;
  bool HasCasts = false;
  bool HasCheckCast = false;
  bool HasMemoryLoads = false;
  bool HasChecks = false;
  bool UsesUnsafe = false;

  bool operator==(const GuardFacts &) const = default;
};

/// One scan of \p IL for the guard predicates above.
GuardFacts scanGuardFacts(const MethodIL &IL);

/// Applicability guard: true when running \p K on \p IL can possibly do
/// something (e.g. loop passes require loops). Inapplicable passes are
/// skipped without charging their full cost.
bool transformationApplicable(TransformationKind K, const MethodIL &IL);
/// Same, against pre-scanned facts for \p IL (avoids the full-method scan).
bool transformationApplicable(TransformationKind K, const MethodIL &IL,
                              const GuardFacts &F);

/// A set of transformation kinds as a 58-bit mask (used both for modifiers
/// and for the codegen option set).
class TransformSet {
public:
  TransformSet() : Bits(BitSet64::allZero(NumTransformations)) {}
  explicit TransformSet(BitSet64 B) : Bits(B) {}

  bool contains(TransformationKind K) const {
    return Bits.test((unsigned)K);
  }
  void insert(TransformationKind K) { Bits.set((unsigned)K); }
  void remove(TransformationKind K) { Bits.reset((unsigned)K); }
  const BitSet64 &bits() const { return Bits; }

private:
  BitSet64 Bits;
};

} // namespace jitml

#endif // JITML_OPT_TRANSFORMATION_H
