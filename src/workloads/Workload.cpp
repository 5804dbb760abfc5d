//===- workloads/Workload.cpp - Suite definitions -------------------------===//

#include "workloads/Workload.h"

#include <stdexcept>

using namespace jitml;

namespace {

WorkloadSpec spec(const char *Name, const char *Code, Suite S, uint64_t Seed,
                  ArchetypeMix Mix, unsigned WorkScale, bool Poly,
                  bool StrictFp, unsigned UnsafePm, unsigned BigDecPm) {
  WorkloadSpec W;
  W.Name = Name;
  W.Code = Code;
  W.BenchSuite = S;
  W.Seed = Seed;
  W.Mix = Mix;
  W.WorkScale = WorkScale;
  W.PolymorphicDispatch = Poly;
  W.StrictFpMethods = StrictFp;
  W.UnsafePerMille = UnsafePm;
  W.BigDecimalPerMille = BigDecPm;
  return W;
}

ArchetypeMix mix(unsigned IntK, unsigned FpK, unsigned ObjK, unsigned ArrK,
                 unsigned BrK, unsigned DecK, unsigned VirtK, unsigned LdK,
                 unsigned Calls) {
  ArchetypeMix M;
  M.IntKernels = IntK;
  M.FpKernels = FpK;
  M.ObjectKernels = ObjK;
  M.ArrayKernels = ArrK;
  M.BranchKernels = BrK;
  M.DecimalKernels = DecK;
  M.VirtualKernels = VirtK;
  M.LongDoubleKernels = LdK;
  M.CallsPerKernel = Calls;
  return M;
}

std::vector<WorkloadSpec> makeSpecJvm98() {
  // The method-mix profiles mirror each benchmark's published character.
  std::vector<WorkloadSpec> S;
  // _201_compress: tight integer compression loops over byte arrays.
  S.push_back(spec("compress", "co", Suite::SpecJvm98, 201,
                   mix(5, 0, 0, 3, 1, 0, 0, 0, 28), 65, false, false, 40, 0));
  // _202_jess: expert system — rule matching, branchy, object churn.
  S.push_back(spec("jess", "js", Suite::SpecJvm98, 202,
                   mix(1, 0, 3, 1, 4, 0, 2, 0, 24), 50, true, false, 0, 0));
  // _209_db: in-memory database: objects, scans, a little BigDecimal.
  S.push_back(spec("db", "db", Suite::SpecJvm98, 209,
                   mix(1, 0, 5, 3, 1, 0, 0, 0, 24), 55, false, false, 0,
                   350));
  // _213_javac: the JDK compiler — heavy branching and exceptions.
  S.push_back(spec("javac", "jc", Suite::SpecJvm98, 213,
                   mix(1, 0, 2, 1, 6, 0, 3, 0, 20), 45, true, false, 0, 0));
  // _222_mpegaudio: FP decode kernels.
  S.push_back(spec("mpegaudio", "mp", Suite::SpecJvm98, 222,
                   mix(2, 6, 0, 1, 0, 0, 0, 1, 28), 65, false, true, 0, 0));
  // _227_mtrt: multithreaded ray tracer — FP + virtual dispatch.
  S.push_back(spec("mtrt", "mt", Suite::SpecJvm98, 227,
                   mix(1, 5, 2, 1, 0, 0, 3, 0, 24), 55, true, false, 0, 0));
  // _205_raytrace: the single-threaded sibling of mtrt.
  S.push_back(spec("raytrace", "rt", Suite::SpecJvm98, 205,
                   mix(1, 5, 2, 1, 0, 0, 3, 0, 24), 60, true, false, 0, 0));
  // _228_jack: parser generator — scanning and exception-driven control.
  S.push_back(spec("jack", "jk", Suite::SpecJvm98, 228,
                   mix(2, 0, 1, 3, 4, 0, 0, 0, 24), 50, false, false, 0, 0));
  return S;
}

std::vector<WorkloadSpec> makeDaCapo() {
  std::vector<WorkloadSpec> S;
  // avrora: AVR microcontroller simulation — integer + branch heavy.
  S.push_back(spec("avrora", "av", Suite::DaCapo, 9001,
                   mix(4, 0, 1, 2, 4, 0, 1, 0, 24), 55, false, false, 30, 0));
  // batik: SVG rendering — FP paths plus object graphs.
  S.push_back(spec("batik", "ba", Suite::DaCapo, 9002,
                   mix(1, 4, 3, 1, 1, 0, 1, 0, 20), 50, true, false, 0, 0));
  // eclipse: IDE workloads — virtual dispatch and branching everywhere.
  S.push_back(spec("eclipse", "ec", Suite::DaCapo, 9003,
                   mix(1, 0, 3, 1, 4, 0, 4, 0, 20), 45, true, false, 0, 0));
  // fop: XSL-FO to PDF — object construction and layout branching.
  S.push_back(spec("fop", "fo", Suite::DaCapo, 9004,
                   mix(1, 1, 4, 1, 3, 0, 1, 0, 20), 45, true, false, 0, 0));
  // h2: the banking benchmark — transactions over objects with
  // fixed-point (BCD) money arithmetic and real synchronization.
  S.push_back(spec("h2", "h2", Suite::DaCapo, 9005,
                   mix(1, 0, 5, 1, 1, 3, 0, 0, 24), 55, false, false, 0,
                   500));
  // jython: Python on the JVM — branchy interpreter loops, dispatch.
  S.push_back(spec("jython", "jy", Suite::DaCapo, 9006,
                   mix(2, 0, 2, 1, 5, 0, 3, 0, 20), 45, true, false, 0, 0));
  // luindex: document indexing — array scanning and integer hashing.
  S.push_back(spec("luindex", "lu", Suite::DaCapo, 9007,
                   mix(3, 0, 1, 5, 1, 0, 0, 0, 28), 65, false, false, 0, 0));
  // lusearch: index querying — scans plus branching.
  S.push_back(spec("lusearch", "ls", Suite::DaCapo, 9008,
                   mix(2, 0, 1, 4, 3, 0, 0, 0, 24), 55, false, false, 0, 0));
  // pmd: source analysis — AST walking: branches and virtual calls.
  S.push_back(spec("pmd", "pm", Suite::DaCapo, 9009,
                   mix(1, 0, 2, 1, 5, 0, 3, 0, 20), 45, true, false, 0, 0));
  // sunflow: ray tracing — almost pure FP.
  S.push_back(spec("sunflow", "sf", Suite::DaCapo, 9010,
                   mix(1, 6, 1, 1, 0, 0, 2, 1, 24), 60, true, true, 0, 0));
  // tomcat: servlet container — objects, synchronization, dispatch.
  S.push_back(spec("tomcat", "tc", Suite::DaCapo, 9011,
                   mix(1, 0, 4, 1, 3, 0, 3, 0, 20), 45, true, false, 0, 0));
  // xalan: XSLT — array/string processing with branchy dispatch.
  S.push_back(spec("xalan", "xa", Suite::DaCapo, 9012,
                   mix(2, 0, 1, 4, 3, 0, 2, 0, 24), 50, true, false, 0, 0));
  return S;
}

} // namespace

const std::vector<WorkloadSpec> &jitml::specJvm98Suite() {
  static const std::vector<WorkloadSpec> Suite = makeSpecJvm98();
  return Suite;
}

const std::vector<WorkloadSpec> &jitml::daCapoSuite() {
  static const std::vector<WorkloadSpec> Suite = makeDaCapo();
  return Suite;
}

const std::vector<WorkloadSpec> &jitml::trainingBenchmarks() {
  // Section 8.1: "data collection was limited to five SPECjvm98
  // benchmarks": compress, db, mpegaudio, mtrt, raytrace.
  static const std::vector<WorkloadSpec> Training = [] {
    std::vector<WorkloadSpec> T;
    for (const char *Code : {"co", "db", "mp", "mt", "rt"})
      for (const WorkloadSpec &S : specJvm98Suite())
        if (S.Code == Code)
          T.push_back(S);
    return T;
  }();
  return Training;
}

const WorkloadSpec &jitml::workloadByCode(const std::string &Code) {
  for (const WorkloadSpec &S : specJvm98Suite())
    if (S.Code == Code)
      return S;
  for (const WorkloadSpec &S : daCapoSuite())
    if (S.Code == Code)
      return S;
  throw std::invalid_argument("unknown workload code '" + Code + "'");
}
