#include "gpusim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace oa::gpusim {

namespace {

/// Linear interpolation between two counter snapshots.
Counters lerp(const Counters& a, const Counters& b, double t) {
  auto mix = [t](int64_t x, int64_t y) {
    return static_cast<int64_t>(std::llround(x + (y - x) * t));
  };
  Counters c;
  c.gld_coherent = mix(a.gld_coherent, b.gld_coherent);
  c.gld_incoherent = mix(a.gld_incoherent, b.gld_incoherent);
  c.gst_coherent = mix(a.gst_coherent, b.gst_coherent);
  c.gst_incoherent = mix(a.gst_incoherent, b.gst_incoherent);
  c.gld_request = mix(a.gld_request, b.gld_request);
  c.gst_request = mix(a.gst_request, b.gst_request);
  c.local_read = mix(a.local_read, b.local_read);
  c.local_store = mix(a.local_store, b.local_store);
  c.instructions = mix(a.instructions, b.instructions);
  c.shared_load = mix(a.shared_load, b.shared_load);
  c.shared_store = mix(a.shared_store, b.shared_store);
  c.shared_bank_conflict_replays =
      mix(a.shared_bank_conflict_replays, b.shared_bank_conflict_replays);
  c.global_bytes = mix(a.global_bytes, b.global_bytes);
  c.flops = mix(a.flops, b.flops);
  c.barriers = mix(a.barriers, b.barriers);
  return c;
}

}  // namespace

StatusOr<int64_t> gate_launch(const DeviceModel& device, CompiledKernel& ck) {
  const int64_t threads = ck.launch.threads_per_block();
  if (threads > device.max_threads_per_block) {
    return failed_precondition(
        str_format("%lld threads/block exceeds the device limit",
                   static_cast<long long>(threads)));
  }
  // Register budget: spill register blocks that do not fit.
  const int64_t reg_budget = std::min<int64_t>(
      kMaxRegistersPerThread,
      device.registers_per_sm / std::max<int64_t>(1, threads));
  if (device.base_regs_per_thread + ck.regs_per_thread > reg_budget) {
    for (CArray& a : ck.arrays) {
      if (a.space == ir::MemSpace::kRegister) a.spilled = true;
    }
    ck.regs_per_thread = 0;
  }
  const int64_t regs =
      (device.base_regs_per_thread + ck.regs_per_thread) * threads;
  int64_t occ = device.max_blocks_per_sm;
  if (regs > 0) occ = std::min(occ, device.registers_per_sm / regs);
  if (ck.shared_bytes > 0) {
    occ = std::min(occ, device.shared_mem_per_sm / ck.shared_bytes);
  }
  occ = std::min<int64_t>(occ, device.max_threads_per_sm / threads);
  if (occ <= 0) {
    return failed_precondition("kernel '" + ck.name +
                               "' does not fit on an SM");
  }
  return occ;
}

double Simulator::wave_time(const Counters& c, int64_t blocks,
                            int64_t warps_per_block,
                            int64_t occupancy) const {
  const int64_t sm_active = std::min<int64_t>(dev_.sm_count, blocks);
  const int64_t per_sm =
      std::min(occupancy, (blocks + sm_active - 1) / sm_active);
  const double active_warps =
      static_cast<double>(std::max<int64_t>(1, per_sm * warps_per_block));
  const double clock_hz = dev_.clock_ghz * 1e9;

  // Issue-limited time.
  const double issue_cycles =
      static_cast<double>(c.instructions + c.shared_bank_conflict_replays) *
      dev_.cycles_per_warp_instruction() / dev_.issue_efficiency;
  double compute = issue_cycles / (sm_active * clock_hz);
  // Shallow pipelines stall without a few warps in flight.
  compute *= std::max(1.0, 6.0 / active_warps);

  // Bandwidth-limited time; few resident warps also expose latency.
  const double bw = dev_.mem_bandwidth_gbs * 1e9 *
                    (static_cast<double>(sm_active) / dev_.sm_count);
  double mem = static_cast<double>(c.global_bytes) / bw;
  mem *= std::clamp(static_cast<double>(dev_.latency_hiding_warps) /
                        active_warps,
                    1.0, 6.0);
  return std::max(compute, mem);
}

StatusOr<KernelStats> Simulator::run_kernel(const ir::Program& program,
                                            const ir::Kernel& kernel,
                                            const RunOptions& options,
                                            bool functional,
                                            GlobalBuffers* buffers) const {
  OA_ASSIGN_OR_RETURN(
      CompiledKernel ck,
      compile_kernel(program, kernel, options.int_params,
                     options.bool_params));
  OA_ASSIGN_OR_RETURN(const int64_t occ, gate_launch(dev_, ck));
  const int64_t threads = ck.launch.threads_per_block();

  KernelStats stats;
  stats.name = kernel.name;
  stats.launch = ck.launch;
  stats.blocks_per_sm = occ;
  const int64_t warps_per_block = (threads + dev_.warp_size - 1) /
                                  dev_.warp_size;

  // Waves: serialized grid-Y kernels run one row of blocks at a time.
  const bool serial = ck.launch.serial_grid_y;
  const int64_t num_waves = serial ? ck.launch.grid_y : 1;
  const int64_t blocks_per_wave =
      serial ? ck.launch.grid_x : ck.launch.num_blocks();

  if (functional) {
    // Execute every block; parallelize within a wave (blocks of a wave
    // are independent; waves are ordered).
    std::vector<Counters> wave_counters(static_cast<size_t>(num_waves));
    for (int64_t wave = 0; wave < num_waves; ++wave) {
      std::mutex mu;
      Counters wc;
      Status first_error = Status::ok();
      ThreadPool::shared().parallel_for(
          static_cast<size_t>(blocks_per_wave), [&](size_t idx) {
            const int64_t by =
                serial ? wave : static_cast<int64_t>(idx) / ck.launch.grid_x;
            const int64_t bx =
                serial ? static_cast<int64_t>(idx)
                       : static_cast<int64_t>(idx) % ck.launch.grid_x;
            BlockSim sim(ck, dev_, /*functional=*/true, buffers);
            Counters c;
            Status s = sim.run(by, bx, 0, static_cast<int>(threads), c);
            std::lock_guard<std::mutex> lock(mu);
            if (!s.is_ok() && first_error.is_ok()) first_error = s;
            wc += c;
          });
      OA_RETURN_IF_ERROR(first_error);
      wave_counters[static_cast<size_t>(wave)] = wc;
    }
    for (int64_t wave = 0; wave < num_waves; ++wave) {
      stats.counters += wave_counters[static_cast<size_t>(wave)];
      stats.seconds += wave_time(wave_counters[static_cast<size_t>(wave)],
                                 blocks_per_wave, warps_per_block, occ);
      stats.seconds += dev_.launch_overhead_s;
    }
    return stats;
  }

  // ---- Performance mode: sampled simulation -----------------------
  // Batched pricing: the member kernel is sampled once and the batch
  // dimension priced analytically on top — a per-member lane-affine
  // decomposition, so the warp-analytic fast path keeps covering
  // batched variants. The batch count is a *runtime* value carried by
  // RunOptions ("BATCH", default 1), never baked into the member IR.
  int64_t batch = 1;
  if (program.batched) {
    auto bit = options.int_params.find("BATCH");
    if (bit != options.int_params.end()) {
      batch = std::max<int64_t>(1, bit->second);
    }
  }
  const bool batch_tiled =
      program.batch_grouping == ir::BatchGrouping::kBatchTiled;

  // Detailed simulation of one block, with warp sampling.
  auto simulate_block = [&](int64_t by, int64_t bx) -> StatusOr<Counters> {
    BlockSim sim(ck, dev_, /*functional=*/false, nullptr,
                 options.fastpath);
    Counters c;
    const int nwarps = static_cast<int>(warps_per_block);
    const int sample = options.warps_per_block_sample;
    if (sample <= 0 || nwarps <= sample) {
      OA_RETURN_IF_ERROR(
          sim.run(by, bx, 0, static_cast<int>(threads), c));
      stats.fastpath += sim.fastpath_stats();
      return c;
    }
    // First and last warps, linearly scaled.
    Counters first, last;
    OA_RETURN_IF_ERROR(sim.run(by, bx, 0, dev_.warp_size, first));
    BlockSim sim2(ck, dev_, /*functional=*/false, nullptr,
                  options.fastpath);
    OA_RETURN_IF_ERROR(sim2.run(by, bx,
                                static_cast<int>(threads) - dev_.warp_size,
                                static_cast<int>(threads), last));
    stats.fastpath += sim.fastpath_stats();
    stats.fastpath += sim2.fastpath_stats();
    c = first.scaled(nwarps - 1) + last;
    return c;
  };

  if (!serial) {
    // Classify the whole grid by signature.
    struct ClassInfo {
      int64_t by, bx;
      int64_t count = 0;
    };
    std::map<int64_t, ClassInfo> classes;
    for (int64_t by = 0; by < ck.launch.grid_y; ++by) {
      for (int64_t bx = 0; bx < ck.launch.grid_x; ++bx) {
        const int64_t sig = ck.signature(by, bx);
        auto [it, inserted] = classes.try_emplace(sig, ClassInfo{by, bx, 0});
        it->second.count += 1;
      }
    }
    std::vector<ClassInfo> ordered;
    ordered.reserve(classes.size());
    for (auto& [sig, info] : classes) ordered.push_back(info);
    std::sort(ordered.begin(), ordered.end(),
              [](const ClassInfo& a, const ClassInfo& b) {
                return a.by != b.by ? a.by < b.by : a.bx < b.bx;
              });

    std::vector<Counters> per_class(ordered.size());
    if (static_cast<int>(ordered.size()) <= options.max_sampled_classes) {
      for (size_t i = 0; i < ordered.size(); ++i) {
        OA_ASSIGN_OR_RETURN(per_class[i],
                            simulate_block(ordered[i].by, ordered[i].bx));
      }
    } else {
      // Sample endpoints plus evenly spaced interior classes, linearly
      // interpolating between samples (counters are affine in the block
      // row for the BLAS3 trapezoids).
      const int budget = std::max(2, options.max_sampled_classes);
      std::vector<size_t> picks;
      for (int s = 0; s < budget; ++s) {
        picks.push_back(static_cast<size_t>(
            static_cast<double>(s) * (ordered.size() - 1) / (budget - 1) +
            0.5));
      }
      picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
      std::map<size_t, Counters> sampled;
      for (size_t p : picks) {
        OA_ASSIGN_OR_RETURN(Counters c,
                            simulate_block(ordered[p].by, ordered[p].bx));
        sampled[p] = c;
      }
      for (size_t i = 0; i < ordered.size(); ++i) {
        auto hi = sampled.lower_bound(i);
        if (hi->first == i) {
          per_class[i] = hi->second;
          continue;
        }
        auto lo = std::prev(hi);
        const double t = static_cast<double>(i - lo->first) /
                         static_cast<double>(hi->first - lo->first);
        per_class[i] = lerp(lo->second, hi->second, t);
      }
    }
    for (size_t i = 0; i < ordered.size(); ++i) {
      stats.counters += per_class[i].scaled(ordered[i].count);
    }
    const double member_time = wave_time(stats.counters, blocks_per_wave,
                                         warps_per_block, occ);
    if (batch > 1 && batch_tiled) {
      // One fused launch carries batch x member blocks: wave
      // quantization amortizes across members and the launch overhead
      // is paid once.
      stats.counters = stats.counters.scaled(batch);
      stats.seconds = wave_time(stats.counters, blocks_per_wave * batch,
                                warps_per_block, occ) +
                      dev_.launch_overhead_s;
    } else if (batch > 1) {
      // Per-member grouping: one member grid (and one launch overhead)
      // per batch member, back to back.
      stats.counters = stats.counters.scaled(batch);
      stats.seconds = (member_time + dev_.launch_overhead_s) *
                      static_cast<double>(batch);
    } else {
      stats.seconds = member_time + dev_.launch_overhead_s;
    }
    return stats;
  }

  // Serial kernel: one class per wave (blocks within a wave share the
  // signature — verified here on the first/last column).
  std::vector<Counters> wave_counters(static_cast<size_t>(num_waves));
  const int budget = std::max(2, options.max_sampled_classes);
  std::vector<int64_t> picks;
  if (num_waves <= budget) {
    for (int64_t w = 0; w < num_waves; ++w) picks.push_back(w);
  } else {
    for (int s = 0; s < budget; ++s) {
      picks.push_back(static_cast<int64_t>(
          static_cast<double>(s) * (num_waves - 1) / (budget - 1) + 0.5));
    }
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
  }
  std::map<int64_t, Counters> sampled;
  for (int64_t w : picks) {
    OA_ASSIGN_OR_RETURN(Counters c, simulate_block(w, 0));
    if (ck.launch.grid_x > 1 &&
        ck.signature(w, 0) != ck.signature(w, ck.launch.grid_x - 1)) {
      // Boundary column differs (problem size not a tile multiple):
      // sample it separately and scale the interior.
      OA_ASSIGN_OR_RETURN(Counters last,
                          simulate_block(w, ck.launch.grid_x - 1));
      sampled[w] = c.scaled(blocks_per_wave - 1) + last;
    } else {
      sampled[w] = c.scaled(blocks_per_wave);
    }
  }
  for (int64_t w = 0; w < num_waves; ++w) {
    auto hi = sampled.lower_bound(w);
    if (hi != sampled.end() && hi->first == w) {
      wave_counters[static_cast<size_t>(w)] = hi->second;
      continue;
    }
    auto lo = std::prev(hi);
    if (hi == sampled.end()) {
      wave_counters[static_cast<size_t>(w)] = lo->second;
      continue;
    }
    const double t = static_cast<double>(w - lo->first) /
                     static_cast<double>(hi->first - lo->first);
    wave_counters[static_cast<size_t>(w)] = lerp(lo->second, hi->second, t);
  }
  for (int64_t w = 0; w < num_waves; ++w) {
    stats.counters += wave_counters[static_cast<size_t>(w)];
    stats.seconds += wave_time(wave_counters[static_cast<size_t>(w)],
                               blocks_per_wave, warps_per_block, occ);
    stats.seconds += dev_.launch_overhead_s;
  }
  if (batch > 1) {
    // Wave-serialized batched kernels (not reachable from the GEMM
    // families today): members serialize either way; batch tiling only
    // amortizes the per-wave launch overhead.
    stats.counters = stats.counters.scaled(batch);
    if (batch_tiled) {
      const double oh =
          static_cast<double>(num_waves) * dev_.launch_overhead_s;
      stats.seconds = (stats.seconds - oh) * static_cast<double>(batch) + oh;
    } else {
      stats.seconds *= static_cast<double>(batch);
    }
  }
  return stats;
}

StatusOr<RunResult> Simulator::run_functional(const ir::Program& program,
                                              const RunOptions& options,
                                              GlobalBuffers& buffers) const {
  RunResult result;
  for (const ir::Kernel& kernel : program.kernels) {
    OA_ASSIGN_OR_RETURN(
        KernelStats stats,
        run_kernel(program, kernel, options, /*functional=*/true,
                   &buffers));
    result.counters += stats.counters;
    result.seconds += stats.seconds;
    result.fastpath += stats.fastpath;
    result.kernels.push_back(std::move(stats));
  }
  return result;
}

StatusOr<RunResult> Simulator::run_performance(
    const ir::Program& program, const RunOptions& options) const {
  RunResult result;
  for (const ir::Kernel& kernel : program.kernels) {
    OA_ASSIGN_OR_RETURN(
        KernelStats stats,
        run_kernel(program, kernel, options, /*functional=*/false,
                   nullptr));
    result.counters += stats.counters;
    result.seconds += stats.seconds;
    result.fastpath += stats.fastpath;
    result.kernels.push_back(std::move(stats));
  }
  return result;
}

void stage_global(const ir::ArrayDecl& d, const ir::Env& int_params,
                  const blas3::Matrix& m, double* dst) {
  const int64_t rows = std::min(d.num_rows(int_params), m.rows());
  const int64_t cols = std::min(d.num_cols(int_params), m.cols());
  const int64_t ld = d.leading_dim(int_params);
  for (int64_t c = 0; c < cols; ++c) {
    for (int64_t r = 0; r < rows; ++r) dst[r + c * ld] = m.at(r, c);
  }
}

void unstage_global(const ir::ArrayDecl& d, const ir::Env& int_params,
                    const double* src, blas3::Matrix& out) {
  const int64_t rows = d.num_rows(int_params);
  const int64_t cols = d.num_cols(int_params);
  const int64_t ld = d.leading_dim(int_params);
  for (int64_t c = 0; c < cols; ++c) {
    for (int64_t r = 0; r < rows; ++r) out.set(r, c, src[r + c * ld]);
  }
}

GlobalBuffers make_buffers(
    const ir::Program& program, const ir::Env& int_params,
    const std::map<std::string, const blas3::Matrix*>& inputs) {
  GlobalBuffers buffers;
  for (const ir::ArrayDecl& d : program.globals) {
    std::vector<double> buf(
        static_cast<size_t>(d.num_elements(int_params)), 0.0);
    auto it = inputs.find(d.name);
    if (it != inputs.end() && it->second != nullptr) {
      stage_global(d, int_params, *it->second, buf.data());
    }
    buffers.data.emplace(d.name, std::move(buf));
  }
  return buffers;
}

Status check_read_back_shape(const ir::Program& program,
                             const ir::Env& int_params,
                             const std::string& name,
                             const blas3::Matrix& out) {
  const ir::ArrayDecl* d = program.find_global(name);
  if (d == nullptr) return not_found("no global array '" + name + "'");
  if (out.rows() != d->num_rows(int_params) ||
      out.cols() != d->num_cols(int_params)) {
    return invalid_argument("read_back shape mismatch for '" + name + "'");
  }
  return Status::ok();
}

Status read_back(const GlobalBuffers& buffers, const ir::Program& program,
                 const ir::Env& int_params, const std::string& name,
                 blas3::Matrix& out) {
  OA_RETURN_IF_ERROR(
      check_read_back_shape(program, int_params, name, out));
  auto it = buffers.data.find(name);
  if (it == buffers.data.end()) {
    return not_found("no buffer for '" + name + "'");
  }
  unstage_global(*program.find_global(name), int_params, it->second.data(),
                 out);
  return Status::ok();
}

}  // namespace oa::gpusim
