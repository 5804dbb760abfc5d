//===- jitml/LearnedStrategy.cpp ------------------------------------------===//

#include "jitml/LearnedStrategy.h"

using namespace jitml;

PlanModifier
LearnedStrategyProvider::modifierFor(OptLevel Level,
                                     const FeatureVector &Features) {
  const LevelModel &LM = Models.Levels[(unsigned)Level];
  if (!LM.Valid)
    return PlanModifier(); // original plan for uncovered levels
  ++Predictions;
  std::vector<double> X = LM.Scale.apply(Features);
  int32_t Label = LM.Model.predict(X);
  uint64_t Bits = 0;
  if (!LM.Labels.modifierFor(Label, Bits))
    return PlanModifier(); // unknown label: fail safe to the null modifier
  return PlanModifier::fromRaw(Bits);
}

std::optional<uint64_t> LearnedStrategyProvider::predictModifier(
    OptLevel Level, const std::vector<double> &RawFeatures) {
  if (RawFeatures.size() != NumFeatures)
    return std::nullopt;
  FeatureVector F;
  for (unsigned I = 0; I < NumFeatures; ++I)
    F.set(I, (uint32_t)RawFeatures[I]);
  return modifierFor(Level, F).raw();
}

VirtualMachine::ModifierHook
jitml::makeLearnedHook(LearnedStrategyProvider &P) {
  return [&P](uint32_t MethodIndex, OptLevel Level,
              const FeatureVector &Features) {
    (void)MethodIndex; // prediction is purely feature-driven (section 7)
    return P.modifierFor(Level, Features);
  };
}

VirtualMachine::ModifierHook
jitml::makeResilientHook(ResilientModelClient &Client) {
  return [&Client](uint32_t MethodIndex, OptLevel Level,
                   const FeatureVector &Features) {
    (void)MethodIndex;
    std::optional<uint64_t> Bits = Client.requestModifier(Level, Features);
    return Bits ? PlanModifier::fromRaw(*Bits) : PlanModifier();
  };
}
