//===- runtime/ExecInternal.h - Engine entry points (private) --*- C++ -*-===//
///
/// \file
/// Internal interface between the VM facade and its two execution engines:
/// the engine entry points, the register-resident clock the engines charge
/// through, the pooled per-depth frame storage, and the decoder that turns
/// a compiled body's cost model into its executor charges once. Not
/// installed; include only from runtime/*.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_RUNTIME_EXECINTERNAL_H
#define JITML_RUNTIME_EXECINTERNAL_H

#include "runtime/VirtualMachine.h"

namespace jitml {

/// Executes \p MethodIndex by interpreting its bytecode.
ExecResult interpretMethod(VirtualMachine &VM, uint32_t MethodIndex,
                           const Value *Args, size_t NumArgs, unsigned Depth);

/// Executes compiled native code (decoded by decodeCharges).
ExecResult executeNative(VirtualMachine &VM, const NativeMethod &Code,
                         const Value *Args, size_t NumArgs, unsigned Depth);

/// The interpreter's charge per opcode byte under \p CM (dispatch plus the
/// operation's intrinsic cost), built once per VM.
void fillInterpCosts(const CostModel &CM, std::array<double, 256> &Costs);

/// Fills in \p Code's executor charges (NativeBlock::Charges, EntryCharge,
/// the layout bits and MaxCallArgs) from \p CM. Each charge is computed
/// with the same operands and operations as a per-execution computation
/// would use, so decoding once moves no simulated cycle.
void decodeCharges(NativeMethod &Code, const CostModel &CM);

/// The clock's cycle total and the VM's AppCycles, held in locals for the
/// length of one engine activation. charge() adds to each total exactly
/// what VirtualMachine::charge adds, in the order the charges arrive, and
/// leaves the fast path only when the clock reaches its next migration
/// point. store() writes both totals back: call it before anything else
/// can read them (VirtualMachine::invoke, returning), and load() after
/// such a call.
///
/// Every call an engine loop makes into the heap, the program or the VM
/// goes through around(), and the migration path stores and reloads too,
/// so no total is live across a call. That lets the compiler keep all
/// three values in registers (x86-64 has no callee-saved FP registers);
/// one such call left outside around() can push them back to the stack
/// on every charge.
class RegisterClock {
public:
  explicit RegisterClock(VirtualMachine &VM) : VM(VM) { load(); }

  void charge(double C) {
    Cycles += C;
    App += C;
    if (Cycles >= NextMigration) {
      store();
      load();
    }
  }
  void store() {
    VM.Stat.AppCycles = App; // first: App is then dead across migrate()
    VM.Clock.advanceTo(Cycles);
  }
  void load() {
    Cycles = VM.Clock.cycles();
    NextMigration = VM.Clock.nextMigration();
    App = VM.Stat.AppCycles;
  }
  /// Returns \p Call(), run with both totals written back.
  template <typename CallT> auto around(CallT &&Call) {
    store();
    auto Result = Call();
    load();
    return Result;
  }

private:
  VirtualMachine &VM;
  double Cycles = 0.0, NextMigration = 0.0, App = 0.0;
};

/// One engine activation's frame: the VM's storage for call depth \p Depth,
/// grown to at least \p Size values and reused by every later activation
/// at that depth. Calls nest strictly, and only the engines re-enter
/// VirtualMachine::invoke, one depth deeper, so the frame at a depth is
/// never live twice. Arguments passed as a span into the caller's frame
/// stay valid while the callee runs: the callee grows only its own
/// depth's buffer, and growing the outer table moves buffers without
/// reallocating them.
class VirtualMachine::FrameLease {
public:
  FrameLease(VirtualMachine &VM, unsigned Depth, size_t Size)
      : VM(VM), SavedTop(VM.FrameTop) {
    assert((VM.FrameTop == 0 || Depth == VM.FrameTop) &&
           "engine activation not one call deeper than the live one");
    if (Depth >= VM.Frames.size())
      VM.Frames.resize(Depth + 1);
    std::vector<Value> &F = VM.Frames[Depth];
    if (F.size() < Size)
      F.resize(Size);
    Base = F.data();
    VM.FrameTop = Depth + 1;
  }
  ~FrameLease() { VM.FrameTop = SavedTop; }
  FrameLease(const FrameLease &) = delete;
  FrameLease &operator=(const FrameLease &) = delete;

  Value *data() const { return Base; }

private:
  VirtualMachine &VM;
  unsigned SavedTop;
  Value *Base = nullptr;
};

} // namespace jitml

#endif // JITML_RUNTIME_EXECINTERNAL_H
