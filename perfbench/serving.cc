#include "serving.h"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

/// One line of the server's JSONL query log.
struct LogRecord {
  std::string query;
  std::string cls;
  uint64_t answers = 0;
  uint64_t total_us = 0;
  uint64_t parse_us = 0;
  uint64_t queue_wait_us = 0;
  uint64_t pin_us = 0;
  uint64_t eval_us = 0;
  uint64_t render_us = 0;
  uint64_t iterations = 0;
  uint64_t derived = 0;
  uint64_t duplicates = 0;
  uint64_t bindings = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t morsels = 0;
};

std::vector<LogRecord> ReadQueryLog(const std::string& path) {
  std::vector<LogRecord> records;
  for (const std::string& line : ReadLines(path)) {
    LogRecord r;
    JsonStr(line, "query", &r.query);
    JsonStr(line, "class", &r.cls);
    JsonU64(line, "answers", &r.answers);
    JsonU64(line, "total_us", &r.total_us);
    JsonU64(line, "parse_us", &r.parse_us);
    JsonU64(line, "queue_wait_us", &r.queue_wait_us);
    JsonU64(line, "pin_us", &r.pin_us);
    JsonU64(line, "eval_us", &r.eval_us);
    JsonU64(line, "render_us", &r.render_us);
    JsonU64(line, "iterations", &r.iterations);
    JsonU64(line, "derived", &r.derived);
    JsonU64(line, "duplicates", &r.duplicates);
    JsonU64(line, "bindings", &r.bindings);
    JsonU64(line, "plan_cache_hits", &r.plan_cache_hits);
    JsonU64(line, "plan_cache_misses", &r.plan_cache_misses);
    JsonU64(line, "morsels", &r.morsels);
    records.push_back(std::move(r));
  }
  return records;
}

/// Sums of one query class's log fields.
struct ClassTotals {
  uint64_t n = 0;
  double parse = 0, pin = 0, eval = 0, render = 0;
  double answers = 0, derived = 0;
  Samples queue_wait;

  void Add(const LogRecord& r) {
    ++n;
    parse += static_cast<double>(r.parse_us);
    pin += static_cast<double>(r.pin_us);
    eval += static_cast<double>(r.eval_us);
    render += static_cast<double>(r.render_us);
    answers += static_cast<double>(r.answers);
    derived += static_cast<double>(r.derived);
    queue_wait.Add(static_cast<double>(r.queue_wait_us));
  }
  double Mean(double sum) const {
    return n == 0 ? 0 : sum / static_cast<double>(n);
  }
};

/// Fills parser/eval/server/protocol layer metrics from the sessions'
/// logs; `sent[i]` and `logs[i]` belong to session i.
void AddServerLayers(LayerMetrics* layers,
                     const std::vector<std::vector<SentQuery>>& sent,
                     const std::vector<std::vector<LogRecord>>& logs,
                     Report* report) {
  ClassTotals light, heavy;
  uint64_t n = 0, unmatched = 0;
  double parse = 0, eval = 0, rounds = 0, bindings = 0, derived = 0, dups = 0;
  double hits = 0, misses = 0, morsels = 0;
  // Over the records matched to a client round trip: shares of it.
  double rtt_us = 0, queue_us = 0, eval_matched_us = 0;
  Samples overhead;
  for (size_t s = 0; s < logs.size(); ++s) {
    for (size_t i = 0; i < logs[s].size(); ++i) {
      const LogRecord& r = logs[s][i];
      (r.cls == "heavy" ? heavy : light).Add(r);
      ++n;
      parse += static_cast<double>(r.parse_us);
      eval += static_cast<double>(r.eval_us);
      rounds += static_cast<double>(r.iterations);
      bindings += static_cast<double>(r.bindings);
      derived += static_cast<double>(r.derived);
      dups += static_cast<double>(r.duplicates);
      hits += static_cast<double>(r.plan_cache_hits);
      misses += static_cast<double>(r.plan_cache_misses);
      morsels += static_cast<double>(r.morsels);
      if (s < sent.size() && i < sent[s].size() &&
          sent[s][i].query == r.query) {
        const double rtt = static_cast<double>(sent[s][i].rtt_ns) / 1e3;
        overhead.Add(rtt - static_cast<double>(r.total_us));
        rtt_us += rtt;
        queue_us += static_cast<double>(r.queue_wait_us);
        eval_matched_us += static_cast<double>(r.eval_us);
      } else {
        ++unmatched;
      }
    }
  }
  const double per = n == 0 ? 0 : 1.0 / static_cast<double>(n);
  (*layers)["parser.parse_us"] = parse * per;
  (*layers)["eval.eval_us"] = eval * per;
  (*layers)["eval.rounds"] = rounds * per;
  (*layers)["eval.bindings"] = bindings * per;
  (*layers)["eval.derived"] = derived * per;
  (*layers)["eval.dups"] = dups * per;
  (*layers)["eval.plan_hit_ratio"] =
      hits + misses == 0 ? 0 : hits / (hits + misses);
  (*layers)["eval.plan_lookups"] = (hits + misses) * per;
  (*layers)["eval.answers_per_derived"] =
      light.derived == 0 ? 0 : light.answers / light.derived;
  (*layers)["exec.morsels"] = morsels * per;
  for (auto [name, totals] :
       {std::pair<const char*, const ClassTotals*>{"light", &light},
        {"heavy", &heavy}}) {
    const std::string cls = name;
    (*layers)["server.parse_us." + cls] = totals->Mean(totals->parse);
    (*layers)["server.pin_us." + cls] = totals->Mean(totals->pin);
    (*layers)["server.eval_us." + cls] = totals->Mean(totals->eval);
    (*layers)["server.render_us." + cls] = totals->Mean(totals->render);
    (*layers)["server.queue_wait_us." + cls + ".p50"] =
        totals->queue_wait.Quantile(0.5);
    (*layers)["server.queue_wait_us." + cls + ".p99"] =
        totals->queue_wait.Quantile(0.99);
    report->Note("log." + cls + ".records", std::to_string(totals->n));
    if (totals->n > 0 && !totals->queue_wait.SupportsTail(0.99)) {
      report->Note("log." + cls + ".warning",
                   "queue_wait p99 has fewer than 10 samples beyond it");
    }
  }
  (*layers)["protocol.overhead_us"] = overhead.Mean();
  (*layers)["server.queue_wait_pct"] = Percent(queue_us, rtt_us);
  (*layers)["server.eval_pct"] = Percent(eval_matched_us, rtt_us);
  (*layers)["protocol.overhead_pct"] =
      Percent(overhead.Mean() * static_cast<double>(overhead.count()), rtt_us);
  report->Note("log.records", std::to_string(n));
  report->Note("log.unmatched", std::to_string(unmatched));
  report->Note("log.protocol_overhead_p50_us", overhead.Quantile(0.5));
}

void SnapshotRegistry(const std::string& path) {
  std::ofstream out(path);
  out << semopt::obs::MetricsRegistry::Global().ToText();
}

}  // namespace

bool ServerTrace::Begin(const RunConfig& config, const std::string& workload,
                        const std::vector<Client*>& clients) {
  workload_ = workload;
  prefix_ = config.workdir + "/" + workload;
  clients_ = clients;
  std::string body;
  for (size_t i = 0; i < clients_.size(); ++i) {
    log_paths_.push_back(semopt::StrCat(prefix_, ".s", i, ".qlog.jsonl"));
    std::remove(log_paths_.back().c_str());
    if (!clients_[i]->Request(":qlog " + log_paths_.back(), &body) ||
        body.rfind("session query log -> ", 0) != 0) {
      return Failed("opening the session query log: " + body);
    }
  }
  SnapshotRegistry(prefix_ + ".registry.before.txt");
  morsels0_ = RegistryCounter("exec.morsels");
  steals0_ = RegistryCounter("exec.morsel_steals");
  return true;
}

bool ServerTrace::End(const std::vector<std::vector<SentQuery>>& sent,
                      const std::vector<Tracer>& tracers, LayerMetrics* layers,
                      Report* report) {
  SnapshotRegistry(prefix_ + ".registry.after.txt");
  const uint64_t morsels = RegistryCounter("exec.morsels") - morsels0_;
  const uint64_t steals = RegistryCounter("exec.morsel_steals") - steals0_;
  std::vector<std::vector<LogRecord>> logs;
  size_t records = 0, queries = 0;
  std::string body;
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (!clients_[i]->Request(":qlog off", &body) ||
        body != "session query log closed") {
      return Failed("closing the session query log: " + body);
    }
    logs.push_back(ReadQueryLog(log_paths_[i]));
    records += logs.back().size();
    if (i < sent.size()) queries += sent[i].size();
  }
  if (queries > 0 && records == 0) {
    return Failed(semopt::StrCat("the session query logs recorded none of the ",
                                 queries, " queries sent"));
  }
  std::vector<const Tracer*> tracer_ptrs;
  for (const Tracer& t : tracers) tracer_ptrs.push_back(&t);
  WriteSpans(prefix_ + ".spans.json", tracer_ptrs);

  AddServerLayers(layers, sent, logs, report);
  (*layers)["exec.steal_ratio"] =
      morsels == 0 ? 0
                   : static_cast<double>(steals) / static_cast<double>(morsels);
  return true;
}

bool ServerTrace::Failed(const std::string& what) const {
  std::cerr << workload_ << " traced phase: " << what << "\n";
  return false;
}

std::vector<std::string> RuleLines(const semopt::Program& program) {
  std::vector<std::string> lines;
  for (const semopt::Rule& rule : program.rules()) {
    lines.push_back(rule.ToString());
  }
  return lines;
}

}  // namespace perfbench
