#include "harness/runner.hh"

#include <chrono>

#include "harness/session.hh"

namespace harness {

RunResult
runKernel(const arch::MachineConfig &cfg, kernels::Kernel &kernel,
          const RunOptions &opts)
{
    const auto t0 = std::chrono::steady_clock::now();
    Session session(cfg, kernel.params().seed);
    const std::chrono::duration<double> construct =
        std::chrono::steady_clock::now() - t0;
    if (!opts.restoreFrom.empty())
        session.restoreFrom(opts.restoreFrom);
    RunResult r = session.run(kernel, opts);
    r.sessionConstructSec = construct.count();
    if (!opts.checkpointAt.empty())
        session.checkpointTo(opts.checkpointAt);
    return r;
}

RunResult
runKernel(const arch::MachineConfig &cfg, kernels::KernelFactory factory,
          const kernels::Params &params, const RunOptions &opts)
{
    auto kernel = factory(params);
    return runKernel(cfg, *kernel, opts);
}

} // namespace harness
