//===- perfbench/GibbsLda.cpp - Workload gibbs-lda ------------*- C++ -*-===//
///
/// \file
/// LDA (paper Section 7.2) with K=4 topics over V=300 words, ~200
/// documents of mean length 60 (~12k tokens), heuristic schedule:
/// conjugate Gibbs on theta and phi, enumerated Gibbs on z. Four chains
/// on a four-thread pool through Infer::sampleChains, interpreter
/// backend, diagnostics and per-draw log joint on. Sweeps over discrete
/// data dominate: exec, mcmc, diag and parallel carry the time, compile
/// is under 1%.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <set>

#include "Batch.h"
#include "Workloads.h"
#include "models/PaperModels.h"
#include "support/Format.h"
#include "support/RNG.h"

extern "C" void lda_floor_sweep(int64_t NumDocs, const int64_t *DocLen,
                                const int64_t *Words, int64_t K, int64_t V,
                                const double *Theta, const double *Phi,
                                int64_t *Z, uint64_t *RngState);

using namespace augur;
using namespace perfbench;

namespace {

constexpr int64_t K = 4, V = 300, Docs = 200, MeanLen = 60;
constexpr int64_t Band = V / K;
constexpr int TopWords = 10, CheckDraws = 10;
/// A topic's top words may span this many bands: uncollapsed Gibbs
/// settles into a merged-topic mode (one topic over two bands, another
/// band split in two) in a few percent of chains at this size, which is
/// a valid mode, not a wrong sampler. A sampler that learns nothing puts
/// a topic's top words in three or four bands.
constexpr size_t MaxBands = 2;

/// A banded corpus: topic t owns words [t*Band, (t+1)*Band); each
/// document mostly keeps one topic and drifts to another now and then.
struct Corpus {
  std::vector<int64_t> Lens, Words;
  std::vector<std::vector<int64_t>> Rows;
};

Corpus makeCorpus(uint64_t Seed) {
  RNG Rng(Seed);
  Corpus C;
  for (int64_t D = 0; D < Docs; ++D) {
    int64_t Len = MeanLen / 2 + Rng.uniformInt(MeanLen);
    int64_t T = Rng.uniformInt(K);
    std::vector<int64_t> Row;
    for (int64_t I = 0; I < Len; ++I) {
      if (Rng.uniform() < 0.05)
        T = Rng.uniformInt(K);
      Row.push_back(T * Band + Rng.uniformInt(Band));
    }
    C.Lens.push_back(Len);
    C.Words.insert(C.Words.end(), Row.begin(), Row.end());
    C.Rows.push_back(std::move(Row));
  }
  return C;
}

/// Each recovered topic's top words (posterior mean of phi over the last
/// draws of a chain) must come from the generator's bands: the reference
/// is the generator, not the compiler.
std::string checkBands(const std::vector<SampleSet> &Sets) {
  for (const auto &S : Sets) {
    auto It = S.Draws.find("phi");
    if (It == S.Draws.end() || It->second.empty())
      return "no phi draws";
    const auto &Draws = It->second;
    std::vector<double> Mean(size_t(K * V), 0.0);
    size_t From = Draws.size() > CheckDraws ? Draws.size() - CheckDraws : 0;
    for (size_t I = From; I < Draws.size(); ++I) {
      const auto &F = Draws[I].realVec().flat();
      if (F.size() != Mean.size())
        return "phi draw has the wrong shape";
      for (size_t J = 0; J < F.size(); ++J)
        Mean[J] += F[J];
    }
    for (int64_t T = 0; T < K; ++T) {
      std::vector<int64_t> Ids(static_cast<size_t>(V));
      for (int64_t W = 0; W < V; ++W)
        Ids[size_t(W)] = W;
      std::partial_sort(Ids.begin(), Ids.begin() + TopWords, Ids.end(),
                        [&](int64_t A, int64_t B) {
                          return Mean[size_t(T * V + A)] >
                                 Mean[size_t(T * V + B)];
                        });
      std::set<int64_t> Bands;
      for (int I = 0; I < TopWords; ++I)
        Bands.insert(Ids[size_t(I)] / Band);
      if (Bands.size() > MaxBands)
        return strFormat("chain %d topic %lld: top %d words span %zu bands",
                         S.ChainId, (long long)T, TopWords, Bands.size());
    }
  }
  return "";
}

} // namespace

double perfbench::ldaFloorRatio(MCMCProgram &P,
                                const std::vector<int64_t> &Lens,
                                const std::vector<int64_t> &Words, int64_t K,
                                int64_t V, double ZUpdateMs) {
  const auto &Theta = P.state().at("theta").realVec().flat();
  const auto &Phi = P.state().at("phi").realVec().flat();
  if (Theta.size() != Lens.size() * size_t(K) ||
      Phi.size() != size_t(K * V) || Words.empty())
    return 0.0;
  std::vector<int64_t> Z(Words.size());
  uint64_t Rng = 0x5EED;
  std::vector<double> Ms;
  for (int R = 0; R < 15; ++R) {
    uint64_t T0 = nowNs();
    {
      Span S("exec.floor");
      lda_floor_sweep(int64_t(Lens.size()), Lens.data(), Words.data(), K, V,
                      Theta.data(), Phi.data(), Z.data(), &Rng);
    }
    Ms.push_back(double(nowNs() - T0) / 1e6);
  }
  for (int64_t T : Z)
    if (T < 0 || T >= K)
      return 0.0;
  double Floor = median(Ms);
  return Floor > 0 ? ZUpdateMs / Floor : 0.0;
}

void perfbench::runGibbsLda(const RunOptions &RO, NativeDirs &Dirs,
                            Report &R) {
  Corpus C = makeCorpus(RO.Seed);
  BatchWorkload W;
  W.Source = models::LDA;
  W.Opts.Par.Chains = 4;
  W.Opts.Par.NumThreads = 4;
  W.Opts.Diag.Enabled = true;
  W.Args = {Value::intScalar(K),
            Value::intScalar(Docs),
            Value::intScalar(V),
            Value::realVec(BlockedReal::flat(K, 0.5)),
            Value::realVec(BlockedReal::flat(V, 0.1)),
            Value::intVec(BlockedInt::flat(C.Lens))};
  W.Data["w"] = Value::intVec(BlockedInt::ragged(C.Rows),
                              Type::vec(Type::vec(Type::intTy())));
  W.Draws = 60;
  W.Elems = double(C.Words.size());
  W.Check = checkBands;
  W.ExtraLayers = [&](MCMCProgram &P, const UpdateProbe &UP, Layers &L) {
    auto It = UP.UpdateMs.find("z");
    if (It != UP.UpdateMs.end())
      L.set("exec.floor_ratio",
            ldaFloorRatio(P, C.Lens, C.Words, K, V, It->second));
  };
  R.note(strFormat("gibbs-lda: K=%lld V=%lld docs=%lld tokens=%zu",
                   (long long)K, (long long)V, (long long)Docs,
                   C.Words.size()));
  runBatch(RO, W, Dirs, R);
}
