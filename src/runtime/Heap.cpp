//===- runtime/Heap.cpp ---------------------------------------------------===//

#include "runtime/Heap.h"

using namespace jitml;

uint32_t Heap::append(Cell C, uint32_t Length) {
  C.Offset = Slots.size();
  C.Length = Length;
  Slots.resize(Slots.size() + Length);
  Cells.push_back(C);
  return (uint32_t)Cells.size() - 1;
}

uint32_t Heap::allocObject(const Program &P, uint32_t ClassIndex) {
  Cell C;
  C.ClassIndex = (int32_t)ClassIndex;
  uint32_t Fields = (uint32_t)P.classAt(ClassIndex).FieldTypes.size();
  BytesAllocated += 16 + 8 * (uint64_t)Fields;
  return append(C, Fields);
}

uint32_t Heap::allocArray(DataType ElemType, uint32_t Length) {
  Cell C;
  C.IsArray = true;
  C.ElemType = ElemType;
  BytesAllocated += 16 + 8 * (uint64_t)Length;
  return append(C, Length);
}

uint32_t Heap::allocException(RtExceptionKind Kind) {
  Cell C;
  C.ClassIndex = (int32_t)Kind;
  BytesAllocated += 16;
  return append(C, 0);
}
