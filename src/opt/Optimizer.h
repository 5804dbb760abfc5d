//===- opt/Optimizer.h - Plan-driven optimizer ------------------*- C++ -*-===//
///
/// \file
/// The Optimizer of Figure 1: applies a compilation plan (possibly
/// restricted by a compilation-plan modifier) to a method's IL. "A modifier
/// does not change the order in which the transformations are applied":
/// the enabled-mask can only skip plan entries. The optimizer also tracks
/// compile effort — the C_i input of the ranking function — and collects
/// the set of codegen-stage options for the code generator.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_OPT_OPTIMIZER_H
#define JITML_OPT_OPTIMIZER_H

#include "opt/PassContext.h"
#include "opt/Plan.h"

namespace jitml {

/// Outcome of running the optimizer on one method.
struct OptimizeResult {
  /// Simulated compile cycles spent by the optimization stage.
  double CompileCycles = 0.0;
  /// Codegen-stage transformations that were enabled by the plan/modifier
  /// (consumed by codegen::CodeGenerator).
  TransformSet CodegenOptions;
  /// Plan entries actually executed / skipped by the applicability guard /
  /// disabled by the modifier.
  uint32_t EntriesRun = 0;
  uint32_t EntriesSkippedInapplicable = 0;
  uint32_t EntriesDisabled = 0;
  /// Tree-stage transformations that reported changing the IL at least
  /// once — the per-method coverage signal the differential fuzzer steers
  /// by (see verify/PassVerifier.h).
  TransformSet ChangedPasses;
};

/// Runs a single transformation engine (tree-stage only). Exposed for unit
/// tests; codegen-stage kinds are a no-op here.
bool runTransformation(PassContext &Ctx, TransformationKind K);

/// Applies \p Plan to \p IL. \p EnabledMask holds one bit per
/// TransformationKind (bit set = transformation enabled); pass
/// BitSet64::allOne(NumTransformations) for the unmodified plan. The
/// inliner reads callee IL from \p Callees; without it, from a cache kept
/// for this call.
OptimizeResult optimize(MethodIL &IL, const CompilationPlan &Plan,
                        const BitSet64 &EnabledMask,
                        ILCache *Callees = nullptr);

} // namespace jitml

#endif // JITML_OPT_OPTIMIZER_H
