#include "moccuda/dnn.h"

#include <cmath>
#include <cstring>
#include <mutex>

namespace paralift::moccuda {

void parallelFor(ThreadPool &pool, int64_t n,
                 const std::function<void(int64_t)> &fn) {
  if (n <= 0)
    return;
  pool.parallel([&](unsigned tid, runtime::Team &team) {
    int64_t per = (n + team.size() - 1) / team.size();
    int64_t lo = tid * per;
    int64_t hi = std::min<int64_t>(n, lo + per);
    for (int64_t i = lo; i < hi; ++i)
      fn(i);
  });
}

namespace {
constexpr int kBlockK = 64;

// The GEMM loops below are pinned: not inlined, and each aligned to 64
// bytes, as vm::Interp::step is. resnet-train's latency moved 5-15% when
// 8 KB of code added elsewhere in the library shifted these loops, with
// no change here, so growth in other files must not move them.
#define PARALIFT_PINNED __attribute__((noinline, aligned(64)))

PARALIFT_PINNED void gemmPanel(int n0, int n1, int N, int K, const float *a,
                               const float *B, float *c) {
  // One row of C: c[j] += sum_k a[k] * B[k*N + j], K-blocked for locality.
  for (int k0 = 0; k0 < K; k0 += kBlockK) {
    int k1 = std::min(K, k0 + kBlockK);
    for (int k = k0; k < k1; ++k) {
      float av = a[k];
      if (av == 0.0f)
        continue;
      const float *brow = B + static_cast<size_t>(k) * N;
      for (int j = n0; j < n1; ++j)
        c[j] += av * brow[j];
    }
  }
}
} // namespace

void sgemm(ThreadPool &pool, int M, int N, int K, const float *A,
           const float *B, float *C, bool accumulate) {
  if (!accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  parallelFor(pool, M, [&](int64_t i) {
    gemmPanel(0, N, N, K, A + static_cast<size_t>(i) * K, B,
              C + static_cast<size_t>(i) * N);
  });
}

void sgemmTA(ThreadPool &pool, int M, int N, int K, const float *A,
             const float *B, float *C, bool accumulate) {
  if (!accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  // A is [K, M]: C[i,j] += A[k,i] * B[k,j].
  parallelFor(pool, M, [&](int64_t i) {
    float *c = C + static_cast<size_t>(i) * N;
    for (int k = 0; k < K; ++k) {
      float av = A[static_cast<size_t>(k) * M + i];
      if (av == 0.0f)
        continue;
      const float *brow = B + static_cast<size_t>(k) * N;
      for (int j = 0; j < N; ++j)
        c[j] += av * brow[j];
    }
  });
}

void sgemmTB(ThreadPool &pool, int M, int N, int K, const float *A,
             const float *B, float *C, bool accumulate) {
  if (!accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  // B is [N, K]: C[i,j] += A[i,k] * B[j,k].
  parallelFor(pool, M, [&](int64_t i) {
    const float *arow = A + static_cast<size_t>(i) * K;
    float *c = C + static_cast<size_t>(i) * N;
    for (int j = 0; j < N; ++j) {
      const float *brow = B + static_cast<size_t>(j) * K;
      float acc = c[j];
      for (int k = 0; k < K; ++k)
        acc += arow[k] * brow[k];
      c[j] = acc;
    }
  });
}

int convOutDim(int in, int k, int pad, int stride) {
  return (in + 2 * pad - k) / stride + 1;
}

namespace {
/// im2col for one image: out[(c*kh*kw), (oh*ow)].
void im2col(const Tensor &x, int n, const ConvParams &p, int oh, int ow,
            float *col) {
  int idx = 0;
  for (int c = 0; c < x.c; ++c)
    for (int ki = 0; ki < p.kh; ++ki)
      for (int kj = 0; kj < p.kw; ++kj) {
        for (int i = 0; i < oh; ++i) {
          int ih = i * p.stride + ki - p.pad;
          for (int j = 0; j < ow; ++j) {
            int iw = j * p.stride + kj - p.pad;
            col[idx++] = (ih >= 0 && ih < x.h && iw >= 0 && iw < x.w)
                             ? x.at(n, c, ih, iw)
                             : 0.0f;
          }
        }
      }
}

/// One output row of the forward GEMM: yrow[s] = sum_k wrow[k] *
/// col[k, s] over S = oh * ow columns.
PARALIFT_PINNED void convForwardRow(const float *wrow, const float *col,
                                    float *yrow, int K, int S) {
  std::memset(yrow, 0, sizeof(float) * S);
  for (int k = 0; k < K; ++k) {
    float wv = wrow[k];
    if (wv == 0.0f)
      continue;
    const float *crow = col + static_cast<size_t>(k) * S;
    for (int s = 0; s < S; ++s)
      yrow[s] += wv * crow[s];
  }
}

/// One image's share of a weight-gradient row: dwrow[k] += drow . col[k].
PARALIFT_PINNED void convWeightGradRow(float *dwrow, const float *drow,
                                       const float *col, int K, int S) {
  for (int k = 0; k < K; ++k) {
    const float *crow = col + static_cast<size_t>(k) * S;
    float acc = 0.0f;
    for (int s = 0; s < S; ++s)
      acc += drow[s] * crow[s];
    dwrow[k] += acc;
  }
}

/// One row of the column gradient: dcrow[s] = sum_oc w[oc * K] *
/// dout[oc, s], `w` pointing at the row's weight of out-channel 0.
PARALIFT_PINNED void convColGradRow(float *dcrow, const float *dout,
                                    const float *w, int K, int OC, int S) {
  std::memset(dcrow, 0, sizeof(float) * S);
  for (int oc = 0; oc < OC; ++oc) {
    float wv = w[static_cast<size_t>(oc) * K];
    if (wv == 0.0f)
      continue;
    const float *drow = dout + static_cast<size_t>(oc) * S;
    for (int s = 0; s < S; ++s)
      dcrow[s] += wv * drow[s];
  }
}

/// col2im accumulate for one image.
void col2im(const float *col, int n, const ConvParams &p, int oh, int ow,
            Tensor &dx) {
  int idx = 0;
  for (int c = 0; c < dx.c; ++c)
    for (int ki = 0; ki < p.kh; ++ki)
      for (int kj = 0; kj < p.kw; ++kj) {
        for (int i = 0; i < oh; ++i) {
          int ih = i * p.stride + ki - p.pad;
          for (int j = 0; j < ow; ++j) {
            int iw = j * p.stride + kj - p.pad;
            if (ih >= 0 && ih < dx.h && iw >= 0 && iw < dx.w)
              dx.at(n, c, ih, iw) += col[idx];
            ++idx;
          }
        }
      }
}
} // namespace

void convIm2colForward(ThreadPool &pool, const Tensor &x, const Tensor &w,
                       Tensor &y, const ConvParams &p) {
  int oh = convOutDim(x.h, p.kh, p.pad, p.stride);
  int ow = convOutDim(x.w, p.kw, p.pad, p.stride);
  y = Tensor(x.n, w.n, oh, ow);
  int K = x.c * p.kh * p.kw;
  size_t colSz = static_cast<size_t>(K) * oh * ow;
  // Classic lowering + GEMM, parallel at both stages. Unlike the direct
  // baselines, the GEMM stage distributes (image, out-channel) row
  // products, so the kernel scales with the team even at batch size 1 —
  // the organization MocCUDA inherits from the cuDNN GPU backend.
  std::vector<float> cols(static_cast<size_t>(x.n) * colSz);
  parallelFor(pool, x.n, [&](int64_t n) {
    im2col(x, static_cast<int>(n), p, oh, ow, cols.data() + n * colSz);
  });
  parallelFor(pool, static_cast<int64_t>(x.n) * w.n, [&](int64_t t) {
    int n = static_cast<int>(t / w.n);
    int oc = static_cast<int>(t % w.n);
    convForwardRow(&w.data[static_cast<size_t>(oc) * K],
                   cols.data() + static_cast<size_t>(n) * colSz,
                   &y.data[(static_cast<size_t>(n) * w.n + oc) * oh * ow], K,
                   oh * ow);
  });
}

void convIm2colBackward(ThreadPool &pool, const Tensor &x, const Tensor &w,
                        const Tensor &dy, Tensor &dx, Tensor &dw,
                        const ConvParams &p) {
  int oh = dy.h, ow = dy.w;
  int K = x.c * p.kh * p.kw;
  dx = Tensor(x.n, x.c, x.h, x.w);
  dw = Tensor(w.n, w.c, w.h, w.w);
  size_t colSz = static_cast<size_t>(K) * oh * ow;

  // Stage 1: lowering, parallel over images.
  std::vector<float> cols(static_cast<size_t>(x.n) * colSz);
  parallelFor(pool, x.n, [&](int64_t n) {
    im2col(x, static_cast<int>(n), p, oh, ow, cols.data() + n * colSz);
  });

  // Stage 2: dW[oc, k] = sum_n dY[n, oc, :] . col[n, k, :], parallel over
  // output channels (deterministic accumulation order over n).
  parallelFor(pool, w.n, [&](int64_t oc) {
    float *dwrow = dw.data.data() + static_cast<size_t>(oc) * K;
    for (int n = 0; n < x.n; ++n)
      convWeightGradRow(
          dwrow, &dy.data[(static_cast<size_t>(n) * w.n + oc) * oh * ow],
          cols.data() + static_cast<size_t>(n) * colSz, K, oh * ow);
  });

  // Stage 3: dCol[k, s] = sum_oc W[oc, k] * dY[oc, s] (parallel over k
  // rows), then a serial per-image col2im scatter (overlapping windows
  // make a parallel scatter racy).
  std::vector<float> dcol(colSz);
  for (int n = 0; n < x.n; ++n) {
    const float *dout = &dy.data[static_cast<size_t>(n) * w.n * oh * ow];
    parallelFor(pool, K, [&](int64_t k) {
      convColGradRow(dcol.data() + static_cast<size_t>(k) * oh * ow, dout,
                     w.data.data() + k, K, w.n, oh * ow);
    });
    col2im(dcol.data(), n, p, oh, ow, dx);
  }
}

void convNaiveForward(ThreadPool &pool, const Tensor &x, const Tensor &w,
                      Tensor &y, const ConvParams &p) {
  int oh = convOutDim(x.h, p.kh, p.pad, p.stride);
  int ow = convOutDim(x.w, p.kw, p.pad, p.stride);
  y = Tensor(x.n, w.n, oh, ow);
  // The PyTorch-native style: six nested loops, no memory optimization.
  parallelFor(pool, x.n, [&](int64_t n) {
    for (int oc = 0; oc < w.n; ++oc)
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j) {
          float acc = 0.0f;
          for (int c = 0; c < x.c; ++c)
            for (int ki = 0; ki < p.kh; ++ki)
              for (int kj = 0; kj < p.kw; ++kj) {
                int ih = i * p.stride + ki - p.pad;
                int iw = j * p.stride + kj - p.pad;
                if (ih >= 0 && ih < x.h && iw >= 0 && iw < x.w)
                  acc += x.at(static_cast<int>(n), c, ih, iw) *
                         w.at(oc, c, ki, kj);
              }
          y.at(static_cast<int>(n), oc, i, j) = acc;
        }
  });
}

void convDirectForward(ThreadPool &pool, const Tensor &x, const Tensor &w,
                       Tensor &y, const ConvParams &p) {
  int oh = convOutDim(x.h, p.kh, p.pad, p.stride);
  int ow = convOutDim(x.w, p.kw, p.pad, p.stride);
  y = Tensor(x.n, w.n, oh, ow);
  // oneDNN-style: direct convolution with channel-blocked accumulation,
  // cache-friendly on commodity CPUs (the layout the paper says misfits
  // HBM machines).
  parallelFor(pool, static_cast<int64_t>(x.n) * w.n, [&](int64_t t) {
    int n = static_cast<int>(t / w.n);
    int oc = static_cast<int>(t % w.n);
    for (int c = 0; c < x.c; ++c)
      for (int ki = 0; ki < p.kh; ++ki)
        for (int kj = 0; kj < p.kw; ++kj) {
          float wv = w.at(oc, c, ki, kj);
          if (wv == 0.0f)
            continue;
          for (int i = 0; i < oh; ++i) {
            int ih = i * p.stride + ki - p.pad;
            if (ih < 0 || ih >= x.h)
              continue;
            for (int j = 0; j < ow; ++j) {
              int iw = j * p.stride + kj - p.pad;
              if (iw >= 0 && iw < x.w)
                y.at(n, oc, i, j) += wv * x.at(n, c, ih, iw);
            }
          }
        }
  });
}

void batchNormForward(ThreadPool &pool, Tensor &x, BatchNormState &bn) {
  int C = x.c;
  bn.mean.assign(C, 0.0f);
  bn.invStd.assign(C, 0.0f);
  if (bn.gamma.empty()) {
    bn.gamma.assign(C, 1.0f);
    bn.beta.assign(C, 0.0f);
  }
  int64_t per = static_cast<int64_t>(x.n) * x.h * x.w;
  parallelFor(pool, C, [&](int64_t c) {
    double sum = 0, sq = 0;
    for (int n = 0; n < x.n; ++n)
      for (int i = 0; i < x.h; ++i)
        for (int j = 0; j < x.w; ++j) {
          float v = x.at(n, static_cast<int>(c), i, j);
          sum += v;
          sq += static_cast<double>(v) * v;
        }
    float mean = static_cast<float>(sum / per);
    float var = static_cast<float>(sq / per) - mean * mean;
    float invStd = 1.0f / std::sqrt(var + 1e-5f);
    bn.mean[c] = mean;
    bn.invStd[c] = invStd;
    for (int n = 0; n < x.n; ++n)
      for (int i = 0; i < x.h; ++i)
        for (int j = 0; j < x.w; ++j) {
          float &v = x.at(n, static_cast<int>(c), i, j);
          v = bn.gamma[c] * (v - mean) * invStd + bn.beta[c];
        }
  });
}

void batchNormBackward(ThreadPool &pool, const Tensor &x, const Tensor &dy,
                       Tensor &dx, BatchNormState &bn,
                       std::vector<float> &dGamma,
                       std::vector<float> &dBeta) {
  // x here is the *normalized output*; recover xhat = (x - beta) / gamma.
  int C = x.c;
  dx = Tensor(x.n, x.c, x.h, x.w);
  dGamma.assign(C, 0.0f);
  dBeta.assign(C, 0.0f);
  int64_t m = static_cast<int64_t>(x.n) * x.h * x.w;
  parallelFor(pool, C, [&](int64_t c) {
    double sumDy = 0, sumDyXhat = 0;
    for (int n = 0; n < x.n; ++n)
      for (int i = 0; i < x.h; ++i)
        for (int j = 0; j < x.w; ++j) {
          float g = dy.at(n, static_cast<int>(c), i, j);
          float xhat = (x.at(n, static_cast<int>(c), i, j) - bn.beta[c]) /
                       (bn.gamma[c] != 0.0f ? bn.gamma[c] : 1.0f);
          sumDy += g;
          sumDyXhat += static_cast<double>(g) * xhat;
        }
    dBeta[c] = static_cast<float>(sumDy);
    dGamma[c] = static_cast<float>(sumDyXhat);
    float scale = bn.gamma[c] * bn.invStd[c];
    for (int n = 0; n < x.n; ++n)
      for (int i = 0; i < x.h; ++i)
        for (int j = 0; j < x.w; ++j) {
          float g = dy.at(n, static_cast<int>(c), i, j);
          float xhat = (x.at(n, static_cast<int>(c), i, j) - bn.beta[c]) /
                       (bn.gamma[c] != 0.0f ? bn.gamma[c] : 1.0f);
          dx.at(n, static_cast<int>(c), i, j) =
              scale * (g - static_cast<float>(sumDy) / m -
                       xhat * static_cast<float>(sumDyXhat) / m);
        }
  });
}

void reluForward(ThreadPool &pool, Tensor &x) {
  parallelFor(pool, static_cast<int64_t>(x.size()), [&](int64_t i) {
    if (x.data[i] < 0.0f)
      x.data[i] = 0.0f;
  });
}

void reluBackward(ThreadPool &pool, const Tensor &y, Tensor &dy) {
  parallelFor(pool, static_cast<int64_t>(y.size()), [&](int64_t i) {
    if (y.data[i] <= 0.0f)
      dy.data[i] = 0.0f;
  });
}

void addInPlace(ThreadPool &pool, Tensor &dst, const Tensor &src) {
  parallelFor(pool, static_cast<int64_t>(dst.size()),
              [&](int64_t i) { dst.data[i] += src.data[i]; });
}

void avgPoolForward(ThreadPool &pool, const Tensor &x, Tensor &y) {
  y = Tensor(x.n, x.c, x.h / 2, x.w / 2);
  parallelFor(pool, static_cast<int64_t>(x.n) * x.c, [&](int64_t t) {
    int n = static_cast<int>(t / x.c), c = static_cast<int>(t % x.c);
    for (int i = 0; i < y.h; ++i)
      for (int j = 0; j < y.w; ++j)
        y.at(n, c, i, j) =
            0.25f * (x.at(n, c, 2 * i, 2 * j) + x.at(n, c, 2 * i + 1, 2 * j) +
                     x.at(n, c, 2 * i, 2 * j + 1) +
                     x.at(n, c, 2 * i + 1, 2 * j + 1));
  });
}

void avgPoolBackward(ThreadPool &pool, const Tensor &dy, Tensor &dx) {
  dx = Tensor(dy.n, dy.c, dy.h * 2, dy.w * 2);
  parallelFor(pool, static_cast<int64_t>(dy.n) * dy.c, [&](int64_t t) {
    int n = static_cast<int>(t / dy.c), c = static_cast<int>(t % dy.c);
    for (int i = 0; i < dy.h; ++i)
      for (int j = 0; j < dy.w; ++j) {
        float g = 0.25f * dy.at(n, c, i, j);
        dx.at(n, c, 2 * i, 2 * j) = g;
        dx.at(n, c, 2 * i + 1, 2 * j) = g;
        dx.at(n, c, 2 * i, 2 * j + 1) = g;
        dx.at(n, c, 2 * i + 1, 2 * j + 1) = g;
      }
  });
}

void fcForward(ThreadPool &pool, const Tensor &x, const std::vector<float> &w,
               int classes, Tensor &y) {
  int features = static_cast<int>(x.size()) / x.n;
  y = Tensor(x.n, classes, 1, 1);
  sgemmTB(pool, x.n, classes, features, x.data.data(), w.data(),
          y.data.data());
}

void fcBackward(ThreadPool &pool, const Tensor &x, const std::vector<float> &w,
                int classes, const Tensor &dy, Tensor &dx,
                std::vector<float> &dw) {
  int features = static_cast<int>(x.size()) / x.n;
  dx = Tensor(x.n, x.c, x.h, x.w);
  dw.assign(w.size(), 0.0f);
  // dX[n, f] = dY[n, k] * W[k, f]
  sgemm(pool, x.n, features, classes, dy.data.data(), w.data(),
        dx.data.data());
  // dW[k, f] = sum_n dY[n, k] * X[n, f]
  sgemmTA(pool, classes, features, x.n, dy.data.data(), x.data.data(),
          dw.data());
}

float softmaxNllForwardBackward(ThreadPool &pool, const Tensor &logits,
                                const std::vector<int> &labels,
                                Tensor &dLogits) {
  int classes = logits.c;
  dLogits = Tensor(logits.n, classes, 1, 1);
  std::vector<float> losses(logits.n, 0.0f);
  parallelFor(pool, logits.n, [&](int64_t n) {
    const float *row = &logits.data[static_cast<size_t>(n) * classes];
    float maxv = row[0];
    for (int k = 1; k < classes; ++k)
      maxv = std::max(maxv, row[k]);
    float denom = 0.0f;
    for (int k = 0; k < classes; ++k)
      denom += std::exp(row[k] - maxv);
    float logDenom = std::log(denom) + maxv;
    losses[n] = logDenom - row[labels[n]];
    float *drow = &dLogits.data[static_cast<size_t>(n) * classes];
    for (int k = 0; k < classes; ++k) {
      float p = std::exp(row[k] - logDenom);
      drow[k] = (p - (k == labels[n] ? 1.0f : 0.0f)) / logits.n;
    }
  });
  float total = 0.0f;
  for (float l : losses)
    total += l;
  return total / logits.n;
}

} // namespace paralift::moccuda
