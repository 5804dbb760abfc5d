//===- runtime/Heap.h - Simulated object heap -------------------*- C++ -*-===//
///
/// \file
/// The VM's heap: objects (field slots + class id) and arrays (element
/// slots + element type). References are indices into the heap table;
/// index 0 is the null reference. Every cell's slots live in one flat
/// vector (the cell records an offset and a length), so an allocation is
/// an append rather than a heap allocation of its own. There is no
/// collector — the heap lives for one VM invocation and is dropped
/// wholesale, which is sufficient for the paper's experiments (allocation
/// cost is modeled by the executor's cost model, reclamation is not
/// measured).
///
//===----------------------------------------------------------------------===//

#ifndef JITML_RUNTIME_HEAP_H
#define JITML_RUNTIME_HEAP_H

#include "bytecode/Program.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace jitml {

/// A runtime value: integer, floating and reference lanes. Instructions
/// are statically typed, so no tag is needed.
struct Value {
  int64_t I = 0;
  double F = 0.0;
  uint32_t R = 0;

  static Value ofI(int64_t V) {
    Value X;
    X.I = V;
    return X;
  }
  static Value ofF(double V) {
    Value X;
    X.F = V;
    return X;
  }
  static Value ofR(uint32_t V) {
    Value X;
    X.R = V;
    return X;
  }
};

constexpr uint32_t NullRef = 0;

/// Built-in exception kinds raised by the runtime itself. They are encoded
/// as negative class ids so they never match a program class filter.
enum class RtExceptionKind : int32_t {
  NullPointer = -2,
  ArrayIndexOutOfBounds = -3,
  ArithmeticDivByZero = -4,
  ClassCast = -5,
  NegativeArraySize = -6,
  StackOverflow = -7,
  /// The interpreter was asked to run a method the bytecode verifier
  /// rejects (only possible for a program that skipped the verifier).
  VerifyError = -8,
};

class Heap {
public:
  Heap() { Cells.emplace_back(); /* slot 0 = null */ }

  /// Allocates an instance of \p ClassIndex with zeroed fields.
  uint32_t allocObject(const Program &P, uint32_t ClassIndex);

  /// Allocates an array of \p Length elements of \p ElemType.
  uint32_t allocArray(DataType ElemType, uint32_t Length);

  /// Allocates a runtime exception object (kind encoded as class id).
  uint32_t allocException(RtExceptionKind Kind);

  bool isNull(uint32_t Ref) const { return Ref == NullRef; }

  /// Class index of an object, or the negative RtExceptionKind encoding,
  /// or -1 for arrays.
  int32_t classOf(uint32_t Ref) const { return cell(Ref).ClassIndex; }
  bool isArray(uint32_t Ref) const { return cell(Ref).IsArray; }
  DataType elemType(uint32_t Ref) const { return cell(Ref).ElemType; }

  uint32_t arrayLength(uint32_t Ref) const { return cell(Ref).Length; }
  uint32_t numFields(uint32_t Ref) const { return cell(Ref).Length; }

  Value getSlot(uint32_t Ref, uint32_t Index) const {
    const Cell &C = cell(Ref);
    assert(Index < C.Length && "heap slot out of range");
    return Slots[C.Offset + Index];
  }
  void setSlot(uint32_t Ref, uint32_t Index, Value V) {
    const Cell &C = cell(Ref);
    assert(Index < C.Length && "heap slot out of range");
    Slots[C.Offset + Index] = V;
  }

  size_t numCells() const { return Cells.size(); }
  uint64_t bytesAllocated() const { return BytesAllocated; }

private:
  struct Cell {
    int32_t ClassIndex = -1;
    uint32_t Length = 0; ///< slot count
    size_t Offset = 0;   ///< first slot in Slots
    DataType ElemType = DataType::Void;
    bool IsArray = false;
  };

  /// Appends a cell with \p Length zeroed slots; returns its reference.
  uint32_t append(Cell C, uint32_t Length);

  const Cell &cell(uint32_t Ref) const {
    assert(Ref != NullRef && Ref < Cells.size() && "bad heap reference");
    return Cells[Ref];
  }

  std::vector<Cell> Cells;
  std::vector<Value> Slots; ///< every cell's slots, back to back
  uint64_t BytesAllocated = 0;
};

} // namespace jitml

#endif // JITML_RUNTIME_HEAP_H
