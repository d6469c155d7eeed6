//===- perfbench/src/Corpus.cpp - Seeded MiniC corpus ---------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "Common.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

using namespace perfbench;

namespace {

/// Appends lines and remembers how many there are, so a renderer knows
/// the line number of the statement it just wrote.
class SourceBuilder {
public:
  unsigned line(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    char Buf[256];
    va_list Ap;
    va_start(Ap, Fmt);
    std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
    va_end(Ap);
    Text += Buf;
    Text += '\n';
    return ++Lines;
  }
  Program finish(std::string Name, int64_t Result, Defect D,
                 unsigned DefectLine) {
    Program P;
    P.Name = std::move(Name);
    P.Source = std::move(Text);
    P.Lines = Lines;
    P.ExpectedExit = Result % 251;
    P.Seeded = D;
    P.DefectLine = DefectLine;
    return P;
  }

private:
  std::string Text;
  unsigned Lines = 0;
};

/// File-scope declarations the defect needs (before any function).
/// Returns the line of the erring access when it lies here.
unsigned defectPrelude(SourceBuilder &B, Defect D) {
  switch (D) {
  case Defect::TypeConfusion:
    B.line("struct tag_a { long a; long b; };");
    B.line("struct tag_b { int x; int y; };");
    return 0;
  case Defect::UseAfterFree:
    // The stale pointer is read in a callee: its parameter is
    // type-checked on entry, which is where EffectiveSan sees the FREE
    // type. (A pointer already checked in the caller keeps the bounds
    // it had before the free.)
    return B.line("long peek(long *p) { return p[1]; }");
  default:
    return 0;
  }
}

/// The defect's statements inside main, after `long r` holds the
/// result. Each reads one value through the erring access and folds it
/// in multiplied by zero, so the exit code is the clean program's under
/// every variant. Returns the erring access's line.
unsigned defectBlock(SourceBuilder &B, Defect D) {
  unsigned Line = 0;
  switch (D) {
  case Defect::None:
    return 0;
  case Defect::HeapOverflow:
    B.line("  long *dq = (long *)malloc(4 * sizeof(long)); dq[0] = 1; "
           "dq[1] = 2; dq[2] = 3; dq[3] = 4;");
    Line = B.line("  long dv = dq[4];");
    B.line("  free(dq);");
    B.line("  r = r + dv * 0;");
    break;
  case Defect::TypeConfusion:
    B.line("  struct tag_a *ta = (struct tag_a *)malloc(sizeof(struct "
           "tag_a)); ta->a = 7; ta->b = 9;");
    Line = B.line("  struct tag_b *tb = (struct tag_b *)ta; long tv = tb->x;");
    B.line("  free(ta);");
    B.line("  r = r + tv * 0;");
    break;
  case Defect::UseAfterFree:
    B.line("  long *du = (long *)malloc(2 * sizeof(long)); du[0] = 5; "
           "du[1] = 6;");
    B.line("  free(du);");
    B.line("  long uv = peek(du);");
    B.line("  r = r + uv * 0;");
    break;
  }
  return Line;
}

Program finishMain(SourceBuilder &B, const char *Name, int64_t Result,
                   Defect D, unsigned PreludeLine) {
  unsigned Line = defectBlock(B, D);
  B.line("  return (int)(r %% 251);");
  B.line("}");
  return B.finish(Name, Result, D, Line ? Line : PreludeLine);
}

} // namespace

const char *perfbench::defectName(Defect D) {
  switch (D) {
  case Defect::None:
    return "none";
  case Defect::HeapOverflow:
    return "heap-overflow";
  case Defect::TypeConfusion:
    return "type-confusion";
  case Defect::UseAfterFree:
    return "use-after-free";
  }
  return "?";
}

Program perfbench::renderMatmul(const MatmulParams &P, Defect D) {
  SourceBuilder B;
  unsigned PreludeLine = defectPrelude(B, D);
  B.line("long matmul(long *a, long *b, long *c, int n, int k, int m) {");
  B.line("  int i; int j; int t;");
  B.line("  for (i = 0; i < n; i = i + 1) {");
  B.line("    for (j = 0; j < m; j = j + 1) {");
  B.line("      long acc = 0;");
  B.line("      for (t = 0; t < k; t = t + 1)");
  B.line("        acc = acc + a[i * k + t] * b[t * m + j];");
  B.line("      c[i * m + j] = acc;");
  B.line("    }");
  B.line("  }");
  B.line("  return c[(n - 1) * m + (m - 1)];");
  B.line("}");
  B.line("int main() {");
  B.line("  int n = %u; int k = %u; int m = %u;", P.N, P.K, P.M);
  B.line("  long *a = (long *)malloc(n * k * sizeof(long));");
  B.line("  long *b = (long *)malloc(k * m * sizeof(long));");
  B.line("  long *c = (long *)malloc(n * m * sizeof(long));");
  B.line("  int i;");
  B.line("  for (i = 0; i < n * k; i = i + 1) a[i] = i %% %u;", P.A);
  B.line("  for (i = 0; i < k * m; i = i + 1) b[i] = i %% %u;", P.B);
  B.line("  long top = matmul(a, b, c, n, k, m);");
  B.line("  long s = 0;");
  B.line("  for (i = 0; i < n * m; i = i + 1) s = (s + c[i]) %% 1000003;");
  B.line("  free(a); free(b); free(c);");
  B.line("  long r = top + s;");

  std::vector<int64_t> A(P.N * P.K), Bm(P.K * P.M), C(P.N * P.M);
  for (size_t I = 0; I < A.size(); ++I)
    A[I] = int64_t(I % P.A);
  for (size_t I = 0; I < Bm.size(); ++I)
    Bm[I] = int64_t(I % P.B);
  for (unsigned I = 0; I < P.N; ++I)
    for (unsigned J = 0; J < P.M; ++J) {
      int64_t Acc = 0;
      for (unsigned T = 0; T < P.K; ++T)
        Acc += A[I * P.K + T] * Bm[T * P.M + J];
      C[I * P.M + J] = Acc;
    }
  int64_t S = 0;
  for (int64_t V : C)
    S = (S + V) % 1000003;
  return finishMain(B, "matmul.c", C.back() + S, D, PreludeLine);
}

Program perfbench::renderList(const ListParams &P, Defect D) {
  SourceBuilder B;
  unsigned PreludeLine = defectPrelude(B, D);
  B.line("struct cell { long weight; struct cell *next; };");
  B.line("long traverse(struct cell *head) {");
  B.line("  long acc = 0;");
  B.line("  while (head != NULL) {");
  B.line("    acc = acc + head->weight;");
  B.line("    head = head->next;");
  B.line("  }");
  B.line("  return acc;");
  B.line("}");
  B.line("int main() {");
  B.line("  struct cell *head = NULL;");
  B.line("  int i;");
  B.line("  for (i = 0; i < %u; i = i + 1) {", P.Len);
  B.line("    struct cell *fresh = (struct cell *)malloc(sizeof(struct "
         "cell));");
  B.line("    fresh->weight = (i * %u) %% 101;", P.W);
  B.line("    fresh->next = head;");
  B.line("    head = fresh;");
  B.line("  }");
  B.line("  long t = 0;");
  B.line("  for (i = 0; i < %u; i = i + 1) t = (t + traverse(head)) %% "
         "1000003;",
         P.Rounds);
  B.line("  while (head != NULL) {");
  B.line("    struct cell *next = head->next;");
  B.line("    free(head);");
  B.line("    head = next;");
  B.line("  }");
  B.line("  long r = t;");

  int64_t Sum = 0;
  for (unsigned I = 0; I < P.Len; ++I)
    Sum += int64_t(I) * P.W % 101;
  int64_t T = 0;
  for (unsigned K = 0; K < P.Rounds; ++K)
    T = (T + Sum) % 1000003;
  return finishMain(B, "list.c", T, D, PreludeLine);
}

Program perfbench::renderChurn(const ChurnParams &P, Defect D) {
  SourceBuilder B;
  unsigned PreludeLine = defectPrelude(B, D);
  B.line("struct base { long id; long kind; };");
  B.line("struct derived { struct base b; long payload[4]; };");
  B.line("long churn(struct derived *d, int rounds) {");
  B.line("  long acc = 0;");
  B.line("  int i;");
  B.line("  for (i = 0; i < rounds; i = i + 1) {");
  B.line("    struct base *up = (struct base *)d;");
  B.line("    acc = (acc + up->id + up->kind) %% 1000003;");
  B.line("    d->b.id = d->b.id + 1;");
  B.line("    d->b.id = (d->b.id + acc %% 3) %% 1000;");
  B.line("    d->payload[i %% 4] = d->payload[i %% 4] + acc %% 5;");
  B.line("  }");
  B.line("  return acc;");
  B.line("}");
  B.line("int main() {");
  B.line("  struct derived *d = (struct derived *)malloc(sizeof(struct "
         "derived));");
  B.line("  d->b.id = %u; d->b.kind = %u;", P.Id0, P.Kind);
  B.line("  d->payload[0] = 0; d->payload[1] = 0; d->payload[2] = 0; "
         "d->payload[3] = 0;");
  B.line("  long u = churn(d, %u);", P.Rounds);
  B.line("  long r = u + d->payload[0] + d->payload[1] + d->payload[2] + "
         "d->payload[3];");
  B.line("  free(d);");

  int64_t Acc = 0, Id = P.Id0, Payload[4] = {0, 0, 0, 0};
  for (unsigned I = 0; I < P.Rounds; ++I) {
    Acc = (Acc + Id + P.Kind) % 1000003;
    Id = Id + 1;
    Id = (Id + Acc % 3) % 1000;
    Payload[I % 4] += Acc % 5;
  }
  return finishMain(B, "churn.c",
                    Acc + Payload[0] + Payload[1] + Payload[2] + Payload[3],
                    D, PreludeLine);
}

Program perfbench::renderEscape(const EscapeParams &P, Defect D) {
  SourceBuilder B;
  unsigned PreludeLine = defectPrelude(B, D);
  B.line("long fill(long *p, int n, long k) {");
  B.line("  long s = 0;");
  B.line("  int i;");
  B.line("  for (i = 0; i < n; i = i + 1) {");
  B.line("    p[i] = (k + i * 3) %% 13;");
  B.line("    s = s + p[i];");
  B.line("  }");
  B.line("  return s;");
  B.line("}");
  B.line("long frame(long k) {");
  B.line("  long buf[8];");
  B.line("  long s = fill(buf, 8, k);");
  B.line("  return s + buf[k %% 8];");
  B.line("}");
  B.line("int main() {");
  B.line("  long r = 0;");
  B.line("  int i;");
  B.line("  for (i = 0; i < %u; i = i + 1) r = (r + frame(i + %u)) %% "
         "1000003;",
         P.Calls, P.K0);

  int64_t R = 0;
  for (unsigned I = 0; I < P.Calls; ++I) {
    int64_t K = int64_t(I) + P.K0, S = 0, Buf[8];
    for (int J = 0; J < 8; ++J) {
      Buf[J] = (K + J * 3) % 13;
      S += Buf[J];
    }
    R = (R + S + Buf[K % 8]) % 1000003;
  }
  return finishMain(B, "escape.c", R, D, PreludeLine);
}

Program perfbench::renderGlobal(const GlobalParams &P, Defect D) {
  SourceBuilder B;
  unsigned PreludeLine = defectPrelude(B, D);
  B.line("long g_hist[16];");
  B.line("long g_scale;");
  B.line("int main() {");
  B.line("  int i;");
  B.line("  g_scale = %u;", P.Scale);
  B.line("  for (i = 0; i < 16; i = i + 1) g_hist[i] = 0;");
  B.line("  for (i = 0; i < %u; i = i + 1) {", P.Iters);
  B.line("    long *slot = &g_hist[(i * 7 + 3) %% 16];");
  B.line("    *slot = (*slot + i %% 5 + g_scale) %% 10007;");
  B.line("  }");
  B.line("  long r = 0;");
  B.line("  for (i = 0; i < 16; i = i + 1) r = r + g_hist[i] * (i + 1);");

  int64_t Hist[16] = {};
  for (unsigned I = 0; I < P.Iters; ++I) {
    int64_t &Slot = Hist[(I * 7 + 3) % 16];
    Slot = (Slot + I % 5 + P.Scale) % 10007;
  }
  int64_t R = 0;
  for (int I = 0; I < 16; ++I)
    R += Hist[I] * (I + 1);
  return finishMain(B, "global.c", R, D, PreludeLine);
}

Program perfbench::renderFuncs(const FuncsParams &P, Defect D) {
  SourceBuilder B;
  unsigned PreludeLine = defectPrelude(B, D);
  int64_t V = P.V0;
  for (size_t F = 0; F < P.A.size(); ++F) {
    B.line("long f%zu(long x) {", F);
    B.line("  long y = x * %u + %u;", P.A[F], P.B[F]);
    B.line("  if (y %% 3 == 0)");
    B.line("    y = y + %u;", P.C[F]);
    B.line("  return y %% 1009;");
    B.line("}");
    int64_t Y = V * P.A[F] + P.B[F];
    if (Y % 3 == 0)
      Y += P.C[F];
    V = Y % 1009;
  }
  B.line("int main() {");
  B.line("  long v = %u;", P.V0);
  for (size_t F = 0; F < P.A.size(); ++F)
    B.line("  v = f%zu(v);", F);
  B.line("  long r = v;");
  return finishMain(B, "funcs.c", V, D, PreludeLine);
}

std::vector<Program> perfbench::generateCorpus(uint64_t Seed) {
  // Committed composition: programs per template. Sizes vary by about
  // +-5% around fixed centres, so every seed's corpus does nearly the
  // same amount of work while the programs themselves differ.
  constexpr unsigned PerRunTemplate = 3, FuncsPrograms = 6;
  constexpr unsigned Total = 5 * PerRunTemplate + FuncsPrograms;
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x5eed);

  // Exactly one program per defect kind, at seeded positions.
  std::vector<Defect> Defects(Total, Defect::None);
  std::vector<unsigned> Slots(Total);
  for (unsigned I = 0; I < Total; ++I)
    Slots[I] = I;
  for (unsigned I = Total - 1; I > 0; --I)
    std::swap(Slots[I], Slots[R.range(0, I)]);
  Defects[Slots[0]] = Defect::HeapOverflow;
  Defects[Slots[1]] = Defect::TypeConfusion;
  Defects[Slots[2]] = Defect::UseAfterFree;

  std::vector<Program> Corpus;
  auto Name = [&](Program P) {
    P.Name = std::to_string(Corpus.size()) + "_" + P.Name;
    Corpus.push_back(std::move(P));
  };
  auto Next = [&] { return Defects[Corpus.size()]; };
  for (unsigned I = 0; I < PerRunTemplate; ++I) {
    Name(renderMatmul({unsigned(R.range(19, 21)), unsigned(R.range(19, 21)),
                       unsigned(R.range(19, 21)), unsigned(R.range(5, 13)),
                       unsigned(R.range(3, 11))},
                      Next()));
    Name(renderList({unsigned(R.range(190, 210)), unsigned(R.range(19, 21)),
                     unsigned(R.range(1, 100))},
                    Next()));
    Name(renderChurn({unsigned(R.range(2850, 3150)), unsigned(R.range(0, 999)),
                      unsigned(R.range(0, 99))},
                     Next()));
    Name(renderEscape({unsigned(R.range(380, 420)), unsigned(R.range(0, 999))},
                      Next()));
    Name(renderGlobal({unsigned(R.range(3800, 4200)), unsigned(R.range(0, 99))},
                      Next()));
  }
  for (unsigned I = 0; I < FuncsPrograms; ++I) {
    FuncsParams P;
    P.V0 = unsigned(R.range(0, 1008));
    unsigned N = unsigned(R.range(72, 88));
    for (unsigned F = 0; F < N; ++F) {
      P.A.push_back(unsigned(R.range(2, 97)));
      P.B.push_back(unsigned(R.range(0, 997)));
      P.C.push_back(unsigned(R.range(1, 50)));
    }
    Name(renderFuncs(P, Next()));
  }
  return Corpus;
}
