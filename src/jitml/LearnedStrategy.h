//===- jitml/LearnedStrategy.h - Model-driven plan selection ----*- C++ -*-===//
///
/// \file
/// The learning-enabled side of Figure 5: when the compiler is about to
/// optimize a method, the strategy control computes its features, the
/// model renormalizes them with the training-time scaling parameters,
/// predicts a class label, and maps the label back to a 58-bit modifier
/// through the lookup table.
///
/// The provider can be wired to a VirtualMachine directly (in-process) or
/// placed behind the bridge's named-pipe server so the model lives in a
/// separate process, exactly like the paper's prototype.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_JITML_LEARNEDSTRATEGY_H
#define JITML_JITML_LEARNEDSTRATEGY_H

#include "bridge/ModelService.h"
#include "bridge/ResilientClient.h"
#include "jitml/ModelSet.h"
#include "modifiers/Modifier.h"
#include "runtime/VirtualMachine.h"

namespace jitml {

/// Thread-safe: the model set is immutable after construction and the
/// prediction counter is atomic, so the async pipeline's workers may share
/// one provider without locking.
class LearnedStrategyProvider : public ModelBackend {
public:
  explicit LearnedStrategyProvider(ModelSet Models)
      : Models(std::move(Models)) {}

  /// Predicts the modifier for a compilation; the null modifier when the
  /// level has no trained model (veryHot/scorching, or a failed fold).
  PlanModifier modifierFor(OptLevel Level, const FeatureVector &Features);

  /// ModelBackend: same prediction, bridge-flavored inputs.
  std::optional<uint64_t>
  predictModifier(OptLevel Level,
                  const std::vector<double> &RawFeatures) override;

  const ModelSet &models() const { return Models; }

  uint64_t predictions() const {
    return Predictions.load(std::memory_order_relaxed);
  }

private:
  ModelSet Models;
  std::atomic<uint64_t> Predictions{0};
};

/// Hook adapter: plugs a provider into VirtualMachine::setModifierHook.
VirtualMachine::ModifierHook makeLearnedHook(LearnedStrategyProvider &P);

/// Hook adapter over the hardened client: cache-first, deadline-bounded,
/// and falling back to the unmodified hand-tuned plan whenever the model
/// service cannot answer — a slow or dead service degrades compilation
/// quality, never availability.
VirtualMachine::ModifierHook makeResilientHook(ResilientModelClient &Client);

} // namespace jitml

#endif // JITML_JITML_LEARNEDSTRATEGY_H
