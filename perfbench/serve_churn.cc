// serve-churn-1m: writes beside reads on a working set larger than the
// CPU caches. An in-process QueryServer loads about 1M base facts from
// the update-stream generator (WriteUpdateStreamSnapshot ->
// LoadBinaryFile). One writer session installs the E14 program and
// `.materialize incremental`, then alternates a 32-edge add line with a
// `~` retraction of the edges it added two batches earlier (heavy ops).
// Two reader sessions with no rules run point lookups on the published
// view (`reach(n)`, `dark(n)`) and on `e(n, Y)` (light ops). After the
// run the published IDB must equal a from-scratch Evaluate of the final
// EDB.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "eval/fixpoint.h"
#include "io/binary_io.h"
#include "server/server.h"
#include "storage/storage_metrics.h"
#include "util/hash_util.h"
#include "util/string_util.h"
#include "workload/update_stream.h"
#include "serving.h"

namespace perfbench {
namespace {

constexpr size_t kBaseFacts = 1000000;
constexpr int kReaders = 2;
constexpr int kEdgesPerBatch = 32;
constexpr int kWarmupBatches = 16;
constexpr int kSetupRepeats = 6;

semopt::UpdateStreamParams ParamsFor(uint64_t seed) {
  // E14's subcritical shape: twice as many nodes as edges, so a deleted
  // edge severs a small cone instead of a giant component.
  semopt::UpdateStreamParams params;
  params.num_edges = kBaseFacts / 3;
  params.num_nodes = 2 * params.num_edges;
  params.num_sources = 4;
  params.seed = seed * 0x9e3779b97f4a7c15ULL + 5;
  return params;
}

/// The writer's stream: fresh edges now, retracted two batches later.
class Churn {
 public:
  Churn(const semopt::UpdateStreamParams& params, uint64_t seed)
      : params_(params), rng_(seed) {}

  /// The next write line and whether it is an add.
  std::string Next(bool* add) {
    if (retract_next_ && pending_.size() > 2) {
      retract_next_ = false;
      *add = false;
      std::string line = "~ " + pending_.front();
      pending_.pop_front();
      return line;
    }
    retract_next_ = true;
    *add = true;
    std::ostringstream os;
    for (int i = 0; i < kEdgesPerBatch; ++i) {
      if (i > 0) os << " ";
      os << semopt::UpdateStreamEdge(params_, rng_).ToString() << ".";
    }
    pending_.push_back(os.str());
    return pending_.back();
  }

 private:
  semopt::UpdateStreamParams params_;
  semopt::SplitMix64 rng_;
  std::deque<std::string> pending_;
  bool retract_next_ = false;
};

/// Per-write counters read from the process-wide registry around each
/// write (the writer is the only session that writes).
struct WriteCounters {
  uint64_t maintenance_us = 0, overdeleted = 0, recounted = 0, rederived = 0;
  uint64_t relations_cloned = 0;

  static WriteCounters Read() {
    WriteCounters c;
    c.maintenance_us = RegistryCounter("eval.ivm.maintenance_us");
    c.overdeleted = RegistryCounter("eval.ivm.overdeleted");
    c.recounted = RegistryCounter("eval.ivm.recounted");
    c.rederived = RegistryCounter("eval.ivm.rederived");
    c.relations_cloned = RegistryCounter("storage.snapshot.relations_cloned");
    return c;
  }
};

struct WriteTotals {
  uint64_t writes = 0;
  double latency_us = 0;
  WriteCounters delta;
  size_t max_live_generations = 0;
  int64_t max_tuple_bytes = 0;
};

struct Deployment {
  std::unique_ptr<semopt::QueryServer> server;
  std::unique_ptr<Client> writer;
  std::vector<std::unique_ptr<Client>> readers;
  std::unique_ptr<Churn> churn;
  int64_t bulk_load_us = 0;
  size_t base_facts = 0;
  size_t idb_tuples = 0;

  /// Disconnects the clients, then stops and frees the server.
  void Teardown() {
    readers.clear();
    writer.reset();
    server.reset();
  }
};

semopt::Status Deploy(const RunConfig& config,
                      const std::vector<std::string>& rules, int readers,
                      Deployment* out) {
  const semopt::UpdateStreamParams params = ParamsFor(config.seed);
  const std::string path = config.workdir + "/serve-churn-1m.base.bin";
  SEMOPT_RETURN_IF_ERROR(
      semopt::WriteUpdateStreamSnapshot(path, params).status());
  semopt::Database db;
  semopt::Result<semopt::BulkLoadStats> loaded =
      semopt::LoadBinaryFile(path, &db);
  std::remove(path.c_str());
  SEMOPT_RETURN_IF_ERROR(loaded.status());
  out->bulk_load_us = loaded->micros;
  out->base_facts = db.TotalTuples();

  out->server = std::make_unique<semopt::QueryServer>(
      std::move(db), semopt::QueryServer::Options());
  SEMOPT_RETURN_IF_ERROR(out->server->Start());
  out->writer = std::make_unique<Client>(out->server->port());
  std::string body;
  for (const std::string& rule : rules) {
    if (!out->writer->Request(rule, &body) || body.rfind("added", 0) != 0) {
      return semopt::Status::Internal("installing " + rule + ": " + body);
    }
  }
  if (!out->writer->Request(".materialize incremental", &body) ||
      body.rfind("materialized ", 0) != 0) {
    return semopt::Status::Internal("materialize: " + body);
  }
  out->idb_tuples = std::strtoull(body.c_str() + 13, nullptr, 10);
  for (int r = 0; r < readers; ++r) {
    out->readers.push_back(std::make_unique<Client>(out->server->port()));
    if (!out->readers.back()->connected()) {
      return semopt::Status::Internal("reader failed to connect");
    }
  }
  out->churn = std::make_unique<Churn>(params, config.seed * 7919 + 1);
  return semopt::Status::Ok();
}

bool WriteOk(const std::string& body, bool add) {
  return body.rfind(add ? "added " : "retracted ", 0) == 0;
}

/// One write op; `totals` (traced phase) receives its counters.
bool Write(Deployment* d, Tracer* tracer, WriteTotals* totals,
           uint64_t* rtt_ns) {
  bool add = false;
  const std::string line = d->churn->Next(&add);
  const WriteCounters before =
      totals != nullptr ? WriteCounters::Read() : WriteCounters();
  std::string body;
  const uint64_t t0 = NowNs();
  bool ok;
  {
    ScopedSpan span(tracer, add ? "write.add" : "write.retract");
    ok = d->writer->Request(line, &body);
  }
  *rtt_ns = NowNs() - t0;
  ok = ok && WriteOk(body, add);
  if (ok && totals != nullptr) {
    const WriteCounters after = WriteCounters::Read();
    ++totals->writes;
    totals->latency_us += static_cast<double>(*rtt_ns) / 1e3;
    totals->delta.maintenance_us += after.maintenance_us - before.maintenance_us;
    totals->delta.overdeleted += after.overdeleted - before.overdeleted;
    totals->delta.recounted += after.recounted - before.recounted;
    totals->delta.rederived += after.rederived - before.rederived;
    totals->delta.relations_cloned +=
        after.relations_cloned - before.relations_cloned;
    totals->max_live_generations = std::max(
        totals->max_live_generations, d->server->store().live_generations());
    totals->max_tuple_bytes = std::max(
        totals->max_tuple_bytes, semopt::storage_metrics::LiveTupleBytes());
  }
  return ok;
}

std::string NextLookup(semopt::SplitMix64* rng, size_t nodes) {
  const uint64_t n = rng->Below(nodes);
  switch (rng->Below(3)) {
    case 0:
      return semopt::StrCat("reach(", n, ")");
    case 1:
      return semopt::StrCat("dark(", n, ")");
    default:
      return semopt::StrCat("e(", n, ", Y)");
  }
}

struct ReaderState {
  semopt::SplitMix64 rng{0};
  uint64_t issued = 0;
  std::vector<SentQuery> sent;
};

PhaseResult RunPhase(Deployment* d, double seconds, bool traced,
                     std::vector<Tracer>* tracers,
                     std::vector<ReaderState>* readers, WriteTotals* totals) {
  PhaseClock clock(seconds);
  const size_t nodes = ParamsFor(0).num_nodes;
  std::vector<PhaseResult> results(d->readers.size() + 1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    PhaseResult& r = results[0];
    Tracer* tracer = &(*tracers)[0];
    uint64_t op = 0;
    while (clock.Running()) {
      tracer->BeginOp(++op);
      uint64_t rtt = 0;
      const bool ok = Write(d, tracer, traced ? totals : nullptr, &rtt);
      ++r.attempted;
      if (!ok) {
        r.Fail(/*heavy_op=*/true, clock.Elapsed());
        break;
      }
      const double at = clock.Elapsed();
      r.heavy.Add(at, static_cast<double>(rtt));
      r.done_at.push_back(at);
      clock.Observed(true);
    }
  });
  for (size_t i = 0; i < d->readers.size(); ++i) {
    threads.emplace_back([&, i] {
      PhaseResult& r = results[i + 1];
      Tracer* tracer = &(*tracers)[i + 1];
      ReaderState& state = (*readers)[i];
      Client* client = d->readers[i].get();
      std::string body;
      while (clock.Running()) {
        const std::string query = NextLookup(&state.rng, nodes);
        tracer->BeginOp(++state.issued);
        const uint64_t t0 = NowNs();
        bool ok;
        {
          ScopedSpan span(tracer, "request.light");
          ok = client->Request("?- " + query + ".", &body);
        }
        const uint64_t rtt = NowNs() - t0;
        const bool transport_ok = ok;
        ok = ok && IsAnswerResponse(body);
        ++r.attempted;
        if (!ok) {
          r.Fail(/*heavy_op=*/false, clock.Elapsed());
          if (!transport_ok) break;
          continue;
        }
        const double at = clock.Elapsed();
        r.light.Add(at, static_cast<double>(rtt));
        r.done_at.push_back(at);
        clock.Observed(false);
        if (traced) state.sent.push_back({query, rtt});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult merged;
  for (const PhaseResult& r : results) merged.Merge(r);
  merged.seconds = clock.Elapsed();
  return merged;
}

/// The gate: the published reach/linked/dark equal a from-scratch
/// Evaluate of the final EDB.
void CheckView(Deployment* d, const semopt::Program& program,
               Report* report) {
  semopt::DatabaseSnapshot snap = d->server->store().Pin();
  semopt::Database edb;
  for (const char* name : {"e", "src", "node"}) {
    for (const semopt::PredicateId& pred : snap.db().Predicates()) {
      if (semopt::SymbolName(pred.name) != name) continue;
      semopt::Relation& rel = edb.GetOrCreate(pred);
      for (semopt::RowRef row : snap.db().Find(pred)->rows()) rel.Insert(row);
    }
  }
  semopt::Result<semopt::Database> idb = semopt::Evaluate(program, edb);
  if (!idb.ok()) {
    report->Mismatch("from-scratch Evaluate: " + idb.status().ToString());
    return;
  }
  size_t compared = 0;
  for (const semopt::PredicateId& pred : idb->Predicates()) {
    const semopt::Relation* want = idb->Find(pred);
    const semopt::Relation* got = snap.db().Find(pred);
    const size_t got_size = got == nullptr ? 0 : got->size();
    bool same = got_size == want->size();
    if (same && got != nullptr) {
      for (semopt::RowRef row : want->rows()) {
        if (!got->Contains(row)) {
          same = false;
          break;
        }
      }
    }
    compared += want->size();
    if (!same) {
      report->Mismatch(semopt::StrCat(
          "published ", pred.ToString(), " (", got_size,
          " tuples) differs from a from-scratch Evaluate (", want->size(),
          " tuples)"));
    }
  }
  report->Note("gate.idb_tuples_compared", std::to_string(compared));
  report->Note("gate.final_edb_facts", std::to_string(edb.TotalTuples()));
}

}  // namespace

int RunServeChurn(const RunConfig& config, Report* report) {
  // One writer plus readers, never more connections than cores (but at
  // least one reader).
  const int nproc =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  const int readers = std::min(kReaders, nproc - 1);
  StampRun(report, config, readers + 1, readers + 1, /*num_threads=*/1);
  semopt::Result<semopt::Program> program = semopt::UpdateStreamProgram();
  if (!program.ok()) {
    std::cerr << "serve-churn-1m: " << program.status().ToString() << "\n";
    return 1;
  }
  const std::vector<std::string> rules = RuleLines(*program);

  // Set-up: generate and write the base snapshot, bulk-load it, start
  // the server, install the program and materialize the view. Each
  // repeat tears the previous deployment down first.
  std::vector<double> load_us;
  Deployment d;
  SetupTimer setup("serve-churn-1m", kSetupRepeats, [&]() {
    d.Teardown();
    SEMOPT_RETURN_IF_ERROR(Deploy(config, rules, readers, &d));
    load_us.push_back(static_cast<double>(d.bulk_load_us));
    return semopt::Status::Ok();
  }, report);
  if (!setup.Before()) return 1;
  report->Note("size.base_facts", std::to_string(d.base_facts));
  report->Note("size.idb_tuples", std::to_string(d.idb_tuples));
  report->Note("rss.peak_after_setup_mb", PeakRssMb());

  // Warm-up: fills the delete-what-you-added pipeline and the plan cache.
  Tracer off(false);
  for (int b = 0; b < 2 * kWarmupBatches; ++b) {
    uint64_t rtt = 0;
    if (!Write(&d, &off, nullptr, &rtt)) {
      std::cerr << "serve-churn-1m warm-up write failed\n";
      return 1;
    }
  }

  std::vector<ReaderState> reader_state(static_cast<size_t>(readers));
  for (int i = 0; i < readers; ++i) {
    reader_state[static_cast<size_t>(i)].rng =
        semopt::SplitMix64(config.seed * 104729ULL + static_cast<uint64_t>(i));
  }
  std::vector<Tracer> untraced(static_cast<size_t>(readers) + 1, Tracer(false));
  PhaseResult base =
      RunPhase(&d, config.seconds, false, &untraced, &reader_state, nullptr);
  const double peak_rss_mb = PeakRssMb();
  report->AddAttempts(base.attempted, base.failed);
  NoteSamples(report, "untraced", base);

  LayerMetrics layers;
  if (config.trace) {
    std::vector<Client*> clients;
    for (const auto& reader : d.readers) clients.push_back(reader.get());
    ServerTrace trace;
    if (!trace.Begin(config, "serve-churn-1m", clients)) return 1;
    std::vector<Tracer> on(static_cast<size_t>(readers) + 1, Tracer(true));
    WriteTotals totals;
    PhaseResult traced =
        RunPhase(&d, config.seconds, true, &on, &reader_state, &totals);
    report->AddAttempts(traced.attempted, traced.failed);
    NoteSamples(report, "traced", traced);
    std::vector<std::vector<SentQuery>> sent;
    for (const ReaderState& state : reader_state) sent.push_back(state.sent);
    if (!trace.End(sent, on, &layers, report)) return 1;
    const double writes = static_cast<double>(std::max<uint64_t>(1, totals.writes));
    layers["ivm.maintenance_us"] =
        static_cast<double>(totals.delta.maintenance_us) / writes;
    layers["ivm.overdeleted"] =
        static_cast<double>(totals.delta.overdeleted) / writes;
    layers["ivm.recounted"] = static_cast<double>(totals.delta.recounted) / writes;
    layers["ivm.rederived"] = static_cast<double>(totals.delta.rederived) / writes;
    layers["snapshot.relations_cloned"] =
        static_cast<double>(totals.delta.relations_cloned) / writes;
    layers["write.non_ivm_us"] =
        (totals.latency_us - static_cast<double>(totals.delta.maintenance_us)) /
        writes;
    layers["ivm.maintenance_pct"] = Percent(
        static_cast<double>(totals.delta.maintenance_us), totals.latency_us);
    layers["snapshot.live_generations"] =
        static_cast<double>(totals.max_live_generations);
    layers["storage.tuples_bytes"] = static_cast<double>(totals.max_tuple_bytes);
    report->Note("traced.writes", std::to_string(totals.writes));
    AddOverhead(&layers, base, traced);
  }

  CheckView(&d, *program, report);
  if (!setup.After()) return 1;
  d.Teardown();
  report->Note("setup.bulk_load_us", Median(load_us));

  if (config.trace) {
    layers["io.bulk_load_us"] = Median(load_us);
    layers["io.bulk_load_pct"] =
        Percent(Median(load_us) / 1e6, Median(setup.times()));
    ReportPerLayer(report, layers);
  } else {
    ReportEndToEnd(report, setup.times(), base, peak_rss_mb);
  }
  return 0;
}

}  // namespace perfbench
