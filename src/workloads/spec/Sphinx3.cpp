//===- workloads/spec/Sphinx3.cpp - 482.sphinx3 stand-in ------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A speech-recognition kernel standing in for 482.sphinx3: Gaussian
/// mixture model scoring of feature frames plus a small Viterbi beam
/// over an HMM lattice. Two seeded issues, matching Figure 7: structs
/// cast to (int[]) to compute checksums (Section 6.1 lists sphinx3
/// together with gcc for this idiom).
///
//===----------------------------------------------------------------------===//

#include "workloads/Support.h"
#include "workloads/spec/SpecWorkloads.h"

namespace sphinxw {

struct GaussianDensity {
  float Mean[13];
  float Var[13];
  float LogDet;
  int MixtureId;
};

struct FrameHeader {
  long Timestamp;
  int FrameId;
  int NumFeatures;
};

} // namespace sphinxw

EFFECTIVE_REFLECT(sphinxw::GaussianDensity, Mean, Var, LogDet, MixtureId);
EFFECTIVE_REFLECT(sphinxw::FrameHeader, Timestamp, FrameId, NumFeatures);

namespace effective {
namespace workloads {
namespace {

using namespace sphinxw;

constexpr int FeatDim = 13;
constexpr int NumGaussians = 64;
constexpr int NumStates = 32;

template <typename P>
float scoreGaussian(CheckedPtr<GaussianDensity, P> G,
                    CheckedPtr<float, P> Feat) {
  auto Mean = G.field(&GaussianDensity::Mean);
  auto Var = G.field(&GaussianDensity::Var);
  float Score = G->LogDet;
  for (int D = 0; D < FeatDim; ++D) {
    float Diff = Feat[D] - Mean[D];
    Score -= Diff * Diff * Var[D];
  }
  return Score;
}

template <typename P> uint64_t runSphinx3(Runtime &RT, unsigned Scale) {
  Rng R(0x5f1);
  uint64_t Checksum = 0x5f1;

  auto Gaussians = allocArray<GaussianDensity, P>(RT, NumGaussians);
  for (int G = 0; G < NumGaussians; ++G) {
    auto Mean = (Gaussians + G).field(&GaussianDensity::Mean);
    auto Var = (Gaussians + G).field(&GaussianDensity::Var);
    for (int D = 0; D < FeatDim; ++D) {
      Mean[D] = static_cast<float>(R.nextDouble() * 4 - 2);
      Var[D] = static_cast<float>(0.5 + R.nextDouble());
    }
    Gaussians[G].LogDet = static_cast<float>(-R.nextDouble() * 4);
    Gaussians[G].MixtureId = G / 8;
  }

  auto Feat = allocArray<float, P>(RT, FeatDim);
  auto Trellis = allocArray<float, P>(RT, 2 * NumStates);
  auto BestGauss = allocArray<int, P>(RT, NumStates);

  unsigned Frames = 30 * Scale;
  // Frame F writes half F % 2 from the other half, so frame 0 reads
  // the upper half: that is where the initial state goes. The lower
  // half is written before it is first read.
  for (int S = 0; S < NumStates; ++S)
    Trellis[NumStates + S] = S == 0 ? 0 : -1e30f;

  for (unsigned F = 0; F < Frames; ++F) {
    for (int D = 0; D < FeatDim; ++D)
      Feat[D] = static_cast<float>(R.nextDouble() * 4 - 2);
    // Score all Gaussians; keep the best per state's mixture.
    for (int S = 0; S < NumStates; ++S) {
      float Best = -1e30f;
      int BestId = 0;
      for (int G = S % 8; G < NumGaussians; G += 8) {
        float Score = scoreGaussian<P>(Gaussians + G, Feat);
        if (Score > Best) {
          Best = Score;
          BestId = G;
        }
      }
      BestGauss[S] = BestId;
      // Viterbi: stay or advance from S-1.
      int Cur = (F % 2) * NumStates;
      int Prev = ((F + 1) % 2) * NumStates;
      float Stay = Trellis[Prev + S];
      float Advance = S > 0 ? Trellis[Prev + S - 1] : -1e30f;
      Trellis[Cur + S] = (Stay > Advance ? Stay : Advance) + Best;
    }
  }

  float FinalBest = -1e30f;
  int Cur = ((Frames + 1) % 2) * NumStates;
  for (int S = 0; S < NumStates; ++S)
    if (Trellis[Cur + S] > FinalBest)
      FinalBest = Trellis[Cur + S];
  Checksum = mixChecksum(Checksum, static_cast<uint64_t>(
                                       FinalBest > -1e29f
                                           ? FinalBest * -1
                                           : 0));
  Checksum = mixChecksum(Checksum,
                         static_cast<uint64_t>(BestGauss[NumStates - 1]));

  // Seeded issues: structs checksummed as (int[]) — one on the density
  // table, one on a frame header.
  if constexpr (isInstrumented<P>()) {
    {
      auto AsInt = CheckedPtr<int, P>::fromCast(Gaussians);
      // Mean[0] is a float at offset 0: the int cast itself mismatches.
      (void)AsInt; // issue 1
    }
    {
      auto Header = allocOne<FrameHeader, P>(RT);
      Header->Timestamp = 12345;
      auto AsInt = CheckedPtr<int, P>::fromCast(Header); // issue 2
      (void)AsInt;
      freeArray(RT, Header);
    }
  }

  freeArray(RT, Gaussians);
  freeArray(RT, Feat);
  freeArray(RT, Trellis);
  freeArray(RT, BestGauss);
  return Checksum;
}

} // namespace
} // namespace workloads
} // namespace effective

const effective::workloads::Workload effective::workloads::Sphinx3Workload =
    {{"sphinx3", "C", 13.1, /*SeededIssues=*/2},
     EFFSAN_WORKLOAD_ENTRIES(runSphinx3)};
