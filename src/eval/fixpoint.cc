#include "eval/fixpoint.h"

#include "exec/parallel_fixpoint.h"
#include "obs/trace.h"
#include "util/simd.h"
#include "util/string_util.h"

namespace semopt {

Status ValidateEvalOptions(const EvalOptions& options) {
  if (options.batch_size == 0) {
    return Status::FailedPrecondition("batch_size must be >= 1");
  }
  if (options.num_threads > 256) {
    return Status::FailedPrecondition(
        StrCat("num_threads must be <= 256 (0 = one per hardware "
               "thread), got ",
               options.num_threads));
  }
  if (options.morsel_size != 0 && options.morsel_size < 8) {
    return Status::FailedPrecondition(
        StrCat("morsel_size must be 0 (auto) or >= 8, got ",
               options.morsel_size,
               ": smaller morsels make the shared-cursor claim the "
               "dominant per-morsel cost"));
  }
  if (options.simd == SimdMode::kOn) {
    if (!simd::kCompiledIn) {
      return Status::FailedPrecondition(
          "simd=on but this build compiled the SIMD kernels out "
          "(SEMOPT_DISABLE_SIMD)");
    }
    if (simd::EnvDisabled()) {
      return Status::FailedPrecondition(
          "simd=on but the SEMOPT_DISABLE_SIMD environment variable "
          "disables the SIMD kernels in this process");
    }
  }
  return Status::Ok();
}

bool ResolveSimdMode(SimdMode mode) {
  switch (mode) {
    case SimdMode::kOn:
      return true;
    case SimdMode::kOff:
      return false;
    case SimdMode::kAuto:
      break;
  }
  return simd::KernelsEnabled();
}

Result<Database> Evaluate(const Program& program, const Database& edb,
                          const EvalOptions& options, EvalStats* stats) {
  SEMOPT_RETURN_IF_ERROR(ValidateEvalOptions(options));
  // Honors EvalOptions::trace_path; when a session is already running
  // (shell `:trace`) this is a no-op passthrough.
  obs::ScopedTraceFile trace_file(options.trace_path);
  // Coordinator-thread query attribution; the engine re-opens the scope
  // on each worker lane.
  obs::QueryIdScope qid_scope(options.query_id);
  const uint64_t start_ns = obs::MonotonicNowNs();
  Result<Database> result = EvaluateMorsels(program, edb, options, stats);
  if (stats != nullptr) stats->eval_ns += obs::MonotonicNowNs() - start_ns;
  return result;
}

}  // namespace semopt
