//===- perfbench/src/Corpus.h - Seeded MiniC corpus -------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The minic workload's inputs: MiniC programs rendered from a fixed set
/// of templates with sizes drawn from the seed. Run-heavy templates
/// (matmul, list traversal, struct churn, escaping locals, global
/// arrays) spend their time in VM loops; the compile-heavy one (many
/// small functions) spends it in the compiler.
///
/// Every program's expected exit code is computed here, in C++, by a
/// reference implementation of its template — never by the compiler
/// under test. A defect program carries exactly one memory or type
/// error on one known line; the defect does not change the exit code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Defect : uint8_t { None, HeapOverflow, TypeConfusion, UseAfterFree };

const char *defectName(Defect D);

struct Program {
  std::string Name;
  std::string Source;
  unsigned Lines = 0;
  int64_t ExpectedExit = 0;
  Defect Seeded = Defect::None;
  /// 1-based source line of the defect's erring access (0 = clean).
  unsigned DefectLine = 0;
};

/// Template parameters. The renderers are exposed so tests can check
/// the expected-exit oracle on hand-computed inputs.
struct MatmulParams { unsigned N, K, M, A, B; };
struct ListParams { unsigned Len, Rounds, W; };
struct ChurnParams { unsigned Rounds, Id0, Kind; };
struct EscapeParams { unsigned Calls, K0; };
struct GlobalParams { unsigned Iters, Scale; };
struct FuncsParams { unsigned V0; std::vector<unsigned> A, B, C; };

Program renderMatmul(const MatmulParams &P, Defect D = Defect::None);
Program renderList(const ListParams &P, Defect D = Defect::None);
Program renderChurn(const ChurnParams &P, Defect D = Defect::None);
Program renderEscape(const EscapeParams &P, Defect D = Defect::None);
Program renderGlobal(const GlobalParams &P, Defect D = Defect::None);
Program renderFuncs(const FuncsParams &P, Defect D = Defect::None);

/// The corpus for \p Seed: a committed number of programs per template,
/// exactly one program per defect kind (placement drawn from the seed).
std::vector<Program> generateCorpus(uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
