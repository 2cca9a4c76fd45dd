// The MocCUDA use case (§V/§VI-C): a residual CNN trained with four
// interchangeable backends, reproducing the comparison of Fig. 15:
//  - Native:          naive direct convolution ("PyTorch native CPU");
//  - OneDnnLike:      cache-blocked direct convolution ("oneDNN/DNNL");
//  - MocCudaExpert:   Im2Col+GEMM convolutions with expert-written
//                     elementwise/loss kernels;
//  - MocCudaPolygeist: same, but the custom PyTorch CUDA kernels
//                     (ClassNLLCriterion-style loss with __syncthreads,
//                     elementwise add, ReLU) are transpiled from CUDA
//                     source by ParaLift and run as native code built by
//                     the native tier (native/native.h), or on the VM when
//                     that build fails.
#pragma once

#include "driver/compiler.h"
#include "moccuda/cudart.h"
#include "moccuda/dnn.h"
#include "native/native.h"

#include <memory>
#include <random>

namespace paralift::moccuda {

enum class Backend { Native, OneDnnLike, MocCudaExpert, MocCudaPolygeist };

const char *backendName(Backend b);

/// CUDA kernels transpiled by ParaLift. The kernel module is compiled
/// once per process through a shared CompilerSession, and built into
/// native code once per process (every MiniResNet instance — the Fig. 15
/// sweep constructs dozens — reuses both; only the executor, whose
/// thread-less handle borrows teams from the team runtime, is
/// per-instance). When the native build fails (no working C compiler,
/// say), a one-line note goes to stderr and every instance runs the
/// kernels on the VM instead, with byte-identical results.
class PolygeistKernels {
public:
  explicit PolygeistKernels(unsigned maxThreads);

  /// True when the kernels run as native code, false on the VM.
  bool isNative() const { return native_ != nullptr; }

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
  std::vector<vm::Slot> run(const std::string &fn,
                            const std::vector<driver::Executor::Arg> &args);

  std::unique_ptr<native::Executor> native_;
  std::unique_ptr<driver::Executor> vm_; ///< when the native build failed
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
