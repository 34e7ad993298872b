// Serial-vs-blocked-vs-parallel GEMM throughput on the shapes the inference
// and training paths actually run (plus the canonical 512^3). Prints a table
// and, with --out=<prefix>, emits <prefix>micro_matmul.json for
// tools/summarize_bench.py.
//
// Flags (on top of the shared bench flags): --threads=N pins the worker
// count of the shared pool (must be set before the first parallel call),
// --reps=N timing repetitions (best-of).

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sttr::bench {
namespace {

/// The seed repository's GEMM: plain i-k-j with no blocking. Kept verbatim
/// as the baseline the speedup criterion is defined against.
Tensor SeedMatMul(const Tensor& a, const Tensor& b) {
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  STTR_CHECK_EQ(k, b.rows());
  Tensor c({n, m});
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b.row(kk);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

struct GemmResult {
  std::string kernel;
  size_t n, k, m, threads;
  double seconds = 0.0;
  double gflops = 0.0;
  double speedup_vs_seed = 1.0;
};

template <typename Fn>
double BestOf(size_t reps, const Fn& fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

void AppendJson(std::ostringstream& json, const GemmResult& r, bool first) {
  if (!first) json << ",\n";
  json << "    {\"kernel\": \"" << r.kernel << "\", \"n\": " << r.n
       << ", \"k\": " << r.k << ", \"m\": " << r.m
       << ", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds
       << ", \"gflops\": " << r.gflops
       << ", \"speedup_vs_seed\": " << r.speedup_vs_seed << "}";
}

int Main(int argc, char** argv) {
  FlagParser flags;
  STTR_CHECK_OK(flags.Parse(argc, argv));
  // Pin the shared pool's size before anything instantiates it.
  if (flags.Has("threads")) {
    const std::string t = flags.GetString("threads", "");
    setenv("STTR_NUM_THREADS", t.c_str(), /*overwrite=*/1);
  }
  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 5));
  const size_t threads = GlobalThreadPool().num_threads();

  struct Shape {
    size_t n, k, m;
  };
  // 512^3 is the acceptance shape; the next two are the MLP tower's first
  // layer on a ~100-candidate eval batch and a training-sized batch. The
  // last four are the paper-scale tower after the factorized layer 0
  // (128->64->32->16->1) on one cold /recommend's 8,790 candidates: the
  // narrow ones exercise the 16-, 8-, 4-, 2- and 1-column strips.
  const std::vector<Shape> shapes = {
      {106, 128, 128}, {640, 128, 128}, {256, 256, 256}, {512, 512, 512},
      {8790, 128, 64}, {8790, 64, 32},  {8790, 32, 16},   {8790, 16, 1}};

  std::cout << "[micro_matmul] threads=" << threads << " reps=" << reps
            << "\n";
  std::cout << "kernel        n     k     m    seconds      GFLOP/s  speedup\n";

  std::ostringstream json;
  json << "{\n  \"bench\": \"micro_matmul\", \"threads\": " << threads
       << ",\n  \"results\": [\n";
  bool first = true;
  Rng rng(opts.seed == 0 ? 42 : opts.seed);
  for (const Shape& s : shapes) {
    const Tensor a = Tensor::RandomNormal({s.n, s.k}, rng);
    const Tensor b = Tensor::RandomNormal({s.k, s.m}, rng);
    const double flops = 2.0 * static_cast<double>(s.n) *
                         static_cast<double>(s.k) * static_cast<double>(s.m);

    // Keep the comparison honest: all kernels must agree.
    const Tensor ref = SeedMatMul(a, b);
    STTR_CHECK(MatMul(a, b).AllClose(ref, 1e-3, 1e-4));
    STTR_CHECK(ParallelMatMul(a, b).AllClose(ref, 1e-3, 1e-4));

    // The volatile sink keeps the optimizer from discarding the products.
    volatile float sink = 0.0f;
    const double t_seed = BestOf(reps, [&] { sink = SeedMatMul(a, b)[0]; });
    const double t_blocked = BestOf(reps, [&] { sink = MatMul(a, b)[0]; });
    const double t_parallel =
        BestOf(reps, [&] { sink = ParallelMatMul(a, b)[0]; });
    (void)sink;

    const GemmResult rows[] = {
        {"seed_naive", s.n, s.k, s.m, 1, t_seed, flops / t_seed / 1e9, 1.0},
        {"blocked", s.n, s.k, s.m, 1, t_blocked, flops / t_blocked / 1e9,
         t_seed / t_blocked},
        {"parallel", s.n, s.k, s.m, threads, t_parallel,
         flops / t_parallel / 1e9, t_seed / t_parallel},
    };
    for (const GemmResult& r : rows) {
      std::printf("%-10s %5zu %5zu %5zu %10.6f %12.2f %8.2fx\n",
                  r.kernel.c_str(), r.n, r.k, r.m, r.seconds, r.gflops,
                  r.speedup_vs_seed);
      AppendJson(json, r, first);
      first = false;
    }
  }
  json << "\n  ]\n}\n";

  if (!opts.out_prefix.empty()) {
    const std::string path = opts.out_prefix + "micro_matmul.json";
    std::ofstream out(path);
    out << json.str();
    std::cout << "wrote " << path << "\n";
  } else {
    std::cout << json.str();
  }
  return 0;
}

}  // namespace
}  // namespace sttr::bench

int main(int argc, char** argv) { return sttr::bench::Main(argc, argv); }
