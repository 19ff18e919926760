/*===- perfbench/lda_floor.c - Hand-written LDA z-draw floor ------------===*
 *
 * The hardware floor for LDA's z update: one sweep that draws every
 * token's topic from the categorical p(k) ~ theta[d][k] * phi[k][w] over
 * the document-topic and topic-word tables, written directly in C. It
 * does the same work per token as the compiled enumerated-Gibbs update
 * of the paper's (uncollapsed) LDA, with nothing else: no interpreter,
 * no log-space scoring, no bookkeeping. exec.floor_ratio reads the
 * compiled update as a multiple of this.
 *
 *===---------------------------------------------------------------------===*/

#include <stdint.h>

void lda_floor_sweep(int64_t NumDocs, const int64_t *DocLen,
                     const int64_t *Words, int64_t K, int64_t V,
                     const double *Theta, const double *Phi, int64_t *Z,
                     uint64_t *RngState) {
  double Cum[K];
  uint64_t S = *RngState ? *RngState : 0x9E3779B97F4A7C15ull;
  int64_t T = 0;
  for (int64_t D = 0; D < NumDocs; ++D) {
    const double *Row = Theta + D * K;
    for (int64_t J = 0; J < DocLen[D]; ++J, ++T) {
      int64_t W = Words[T];
      double Total = 0.0;
      for (int64_t Kk = 0; Kk < K; ++Kk) {
        Total += Row[Kk] * Phi[Kk * V + W];
        Cum[Kk] = Total;
      }
      /* xorshift64*: a uniform in [0, 1), scaled to the mass. */
      S ^= S >> 12;
      S ^= S << 25;
      S ^= S >> 27;
      double U = (double)((S * 2685821657736338717ull) >> 11) *
                 (1.0 / 9007199254740992.0) * Total;
      int64_t Pick = 0;
      while (Pick < K - 1 && Cum[Pick] <= U)
        ++Pick;
      Z[T] = Pick;
    }
  }
  *RngState = S;
}
