#include "exec/annotate.hpp"

#include "blas3/call_shape.hpp"
#include "blas3/routine.hpp"
#include "engine/evaluation_engine.hpp"
#include "exec/tape.hpp"
#include "gpusim/simulator.hpp"

namespace oa::exec {

Status annotate_artifact(libgen::Artifact& artifact,
                         const gpusim::DeviceModel& device) {
  for (libgen::ArtifactEntry& entry : artifact.entries) {
    entry.exec.clear();
    const blas3::Variant* v = blas3::find_variant(entry.variant);
    if (v == nullptr) continue;
    auto eval = libgen::reconstruct(entry, *v, {entry.candidate()});
    if (!eval.is_ok()) continue;
    const ir::Program& program = eval->program;
    const ir::Env int_params =
        blas3::CallShape::square(*v, entry.tuned_size).env();
    const std::map<std::string, bool> bool_params =
        engine::bools_for(eval->candidate);
    std::vector<libgen::ExecRecord> records;
    bool complete = true;
    for (const ir::Kernel& kernel : program.kernels) {
      // Gated like execution, so a spilled kernel is recorded under
      // the key serving looks up.
      auto ck = gpusim::compile_kernel(program, kernel, int_params,
                                       bool_params);
      if (!ck.is_ok() || !gpusim::gate_launch(device, *ck).is_ok()) {
        complete = false;
        break;
      }
      auto lowered = lower_kernel(*ck);
      if (!lowered.is_ok()) {
        complete = false;
        break;
      }
      libgen::ExecRecord r;
      r.kernel = kernel.name;
      r.key = kernel_key(*ck);
      r.tape_ops = lowered->tape_ops;
      r.segments = static_cast<int64_t>(lowered->segments.size());
      records.push_back(std::move(r));
    }
    // All-or-nothing: a half-annotated entry would misrepresent what
    // the serving process caches.
    if (complete) entry.exec = std::move(records);
  }
  return Status::ok();
}

}  // namespace oa::exec
