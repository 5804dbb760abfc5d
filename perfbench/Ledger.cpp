//===- perfbench/Ledger.cpp -----------------------------------------------===//

#include "Ledger.h"

#include <algorithm>
#include <chrono>

using namespace perfbench;

namespace {
thread_local Ledger::Span *Current = nullptr;
} // namespace

const char *perfbench::layerMetric(Layer L) {
  static const char *const Names[NumLayers] = {
      "unattributed_pct", "ilgen_pct",     "features_pct", "opt_pct",
      "codegen_pct",      "exec_pct",      "jit_pct",      "model_pct",
      "collect_pct",      "rank_pct",      "normalize_pct", "train_pct",
      "bridge_pct",       "daemon_pct"};
  return Names[(unsigned)L];
}

uint64_t perfbench::nowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Ledger::Span::Span(Ledger *L, Layer K) : L(L), K(K) {
  if (!L)
    return;
  Parent = Current;
  Current = this;
  StartNs = nowNs();
}

Ledger::Span::~Span() {
  if (!L)
    return;
  uint64_t Dur = nowNs() - StartNs;
  // Child time read from the program's microsecond histograms can exceed
  // the span by rounding; the span's self time then clamps at zero.
  L->addSelf(K, Dur - std::min(Dur, ChildNs));
  if (Parent)
    Parent->ChildNs += Dur;
  else
    L->Root.fetch_add(Dur, std::memory_order_relaxed);
  Current = Parent;
}

void Ledger::Span::addChild(Layer Child, uint64_t Ns) {
  if (!L)
    return;
  L->addSelf(Child, Ns);
  ChildNs += Ns;
}

void Ledger::moveSelf(Layer From, Layer To, uint64_t Ns) {
  Ns = std::min(Ns, selfNs(From));
  Self[(unsigned)From].fetch_sub(Ns, std::memory_order_relaxed);
  addSelf(To, Ns);
}
