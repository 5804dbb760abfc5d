//===- perfbench/Ledger.h - Per-layer self-time ledger ----------*- C++ -*-===//
///
/// \file
/// The traced half of the benchmark. Each workload operation opens a root
/// span (Layer::Op) and nests one span around every call it makes into a
/// layer of the system. A span's self time is its duration minus the time
/// its children cover; the ledger sums self time per layer, so the shares
/// it reports add up to the traced operations' wall time.
///
/// Time spent inside the program that the benchmark cannot wrap from
/// outside (compiles inside a VirtualMachine, requests inside the serving
/// daemon) is read from the program's MetricRegistry histograms and added
/// as a child of the span that was open around it (Span::addChild), or
/// moved between layers after the run (moveSelf).
///
/// With a null Ledger a Span reads no clock and records nothing, so the
/// untraced run that yields the end-to-end metrics carries no tracing cost.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <atomic>
#include <cstdint>

namespace perfbench {

enum class Layer : unsigned {
  Op,        ///< the operation itself: benchmark code between layer calls
  IlGen,     ///< bytecode -> tree IL, plus block frequency annotation
  Features,  ///< method feature extraction
  Opt,       ///< the plan-driven optimizer passes
  Codegen,   ///< instruction selection and layout
  Exec,      ///< VM execution outside the JIT and the model
  Jit,       ///< compiles inside a VirtualMachine
  Model,     ///< in-process model prediction
  Collect,   ///< collection runs outside their JIT time
  Rank,      ///< Eq. 2 ranking and selection
  Normalize, ///< Eq. 3 scaling fit and label mapping
  Train,     ///< Crammer-Singer SVM training
  Bridge,    ///< client and transport side of a daemon round trip
  Daemon,    ///< time inside the serving daemon
  Count
};

constexpr unsigned NumLayers = (unsigned)Layer::Count;

/// Metric name of a layer's share ("ilgen_pct", ...).
const char *layerMetric(Layer L);

/// Monotonic wall-clock nanoseconds.
uint64_t nowNs();

class Ledger {
public:
  /// RAII span. Spans nest per thread; a span must end on the thread that
  /// opened it.
  class Span {
  public:
    Span(Ledger *L, Layer K);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /// Counts \p Ns measured inside the program as a child of this span
    /// attributed to layer \p K.
    void addChild(Layer K, uint64_t Ns);

  private:
    Ledger *L;
    Layer K;
    Span *Parent = nullptr;
    uint64_t StartNs = 0;
    uint64_t ChildNs = 0;
  };

  /// Moves up to \p Ns of self time from layer \p From to layer \p To
  /// (attribution of time measured by the program after the run).
  void moveSelf(Layer From, Layer To, uint64_t Ns);

  uint64_t selfNs(Layer K) const {
    return Self[(unsigned)K].load(std::memory_order_relaxed);
  }
  /// Sum of the root spans' durations: the traced operations' wall time.
  uint64_t rootNs() const { return Root.load(std::memory_order_relaxed); }

private:
  void addSelf(Layer K, uint64_t Ns) {
    Self[(unsigned)K].fetch_add(Ns, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> Self[NumLayers] = {};
  std::atomic<uint64_t> Root{0};
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
