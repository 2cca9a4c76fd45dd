// The MocCUDA use case (§V/§VI-C): a residual CNN trained with four
// interchangeable backends, reproducing the comparison of Fig. 15:
//  - Native:          naive direct convolution ("PyTorch native CPU");
//  - OneDnnLike:      cache-blocked direct convolution ("oneDNN/DNNL");
//  - MocCudaExpert:   Im2Col+GEMM convolutions with expert-written
//                     elementwise/loss kernels;
//  - MocCudaPolygeist: same, but the custom PyTorch CUDA kernels
//                     (ClassNLLCriterion-style loss with __syncthreads,
//                     elementwise add, ReLU) are transpiled from CUDA
//                     source by ParaLift and executed through the VM —
//                     dispatched via the CUDART stream emulation.
#pragma once

#include "driver/compiler.h"
#include "moccuda/cudart.h"
#include "moccuda/dnn.h"

#include <memory>
#include <random>

namespace paralift::moccuda {

enum class Backend { Native, OneDnnLike, MocCudaExpert, MocCudaPolygeist };

const char *backendName(Backend b);

/// CUDA kernels transpiled by ParaLift. The kernel module is compiled
/// once per process through a shared CompilerSession (every MiniResNet
/// instance — the Fig. 15 sweep constructs dozens — reuses the compiled
/// IR; only the executor is per-instance).
class PolygeistKernels {
public:
  explicit PolygeistKernels(unsigned maxThreads);

  void add(float *dst, const float *src, int n);
  void relu(float *x, int n);
  /// Returns the mean NLL loss and fills dLogits.
  float nllLoss(const float *logits, const int32_t *labels, float *dLogits,
                int batch, int classes);

  void setNumThreads(unsigned n);

  /// The CUDA source the kernels are transpiled from: nll_kernel and the
  /// elementwise kernels, each launched by its own `run_*` host function.
  static const char *source();

private:
  std::unique_ptr<driver::Executor> exec_;
};

/// A small residual network: conv-bn-relu, one residual block, average
/// pool, fully connected, softmax/NLL. Enough depth to exercise every
/// MocCUDA component while staying measurable on the VM-era hardware.
class MiniResNet {
public:
  MiniResNet(Backend backend, ThreadPool &pool, int channels = 8,
             int classes = 10);

  /// Forward + backward + SGD step; returns the batch loss.
  float trainStep(const Tensor &images, const std::vector<int32_t> &labels);

  /// Forward only; returns logits.
  Tensor forward(const Tensor &images);

  Backend backend() const { return backend_; }

private:
  void convForward(const Tensor &x, const Tensor &w, Tensor &y);
  void applyRelu(Tensor &x);
  void residualAdd(Tensor &dst, const Tensor &src);

  Backend backend_;
  ThreadPool &pool_;
  int channels_, classes_;
  ConvParams convParams_;
  Tensor w1_, w2_, w3_; ///< conv weights
  BatchNormState bn1_, bn2_, bn3_;
  std::vector<float> fc_;
  std::unique_ptr<PolygeistKernels> polygeist_;
  struct StreamDeleter {
    void operator()(McudaStream *s) const { mcudaStreamDestroy(s); }
  };
  std::unique_ptr<McudaStream, StreamDeleter> stream_;

  // Saved activations for backward.
  Tensor x0_, a1_, a2_, a3_, pooled_;
};

} // namespace paralift::moccuda
