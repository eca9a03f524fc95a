// Shared pieces of the two serving workloads: the traced phase's query
// log (one private `:qlog` file per session) matched against what each
// client sent, the registry snapshots around it, and the per-layer
// metrics read from both.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/program.h"
#include "workloads.h"

namespace perfbench {

/// A `?-` query one client sent during the traced phase, in send order.
struct SentQuery {
  std::string query;  ///< body text as the server logs it
  uint64_t rtt_ns = 0;
};

/// The server side of a serving workload's traced phase.
class ServerTrace {
 public:
  /// Turns a private query log on in each of `clients`' sessions (files
  /// named after `workload` in the run's workdir), then snapshots the
  /// metrics registry. False, after printing the error, when a session
  /// does not confirm its log.
  bool Begin(const RunConfig& config, const std::string& workload,
                       const std::vector<Client*>& clients);
  /// Snapshots the registry again, turns the logs off, writes the
  /// tracers' spans and fills the parser/eval/exec/server/protocol layer
  /// metrics. `sent[i]` holds what the i-th logged client sent, in
  /// order; records are matched to it by position and checked by query
  /// text (a mismatch is noted: it only affects the per-layer split).
  /// False, after printing the error, when a log cannot be closed or
  /// recorded none of the queries sent.
  bool End(const std::vector<std::vector<SentQuery>>& sent,
           const std::vector<Tracer>& tracers, LayerMetrics* layers,
           Report* report);

 private:
  bool Failed(const std::string& what) const;

  std::string workload_;
  std::string prefix_;
  std::vector<Client*> clients_;
  std::vector<std::string> log_paths_;
  uint64_t morsels0_ = 0;
  uint64_t steals0_ = 0;
};

/// The program's rules, one protocol line each (the way a client
/// installs a program into its session).
std::vector<std::string> RuleLines(const semopt::Program& program);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
