// serve-genealogy: an in-process QueryServer over a genealogy EDB
// (40 families x 7 generations, binary trees), driven over loopback
// sockets by 2 client sessions in a closed loop. Each session installs
// the `anc` program, then loops over a fixed mix: 60% `par(...)` EDB
// point lookups (light), 20% bound `anc(p_k, ...)` goals and 20% open
// `anc` queries with an age filter (heavy). Server defaults:
// threads_per_query = 1, max_heavy = 2, max_light = 8.
//
// Every query, lookups included, runs the whole fixpoint today, so each
// session keeps a core busy. Two sessions leave half of a 4-core host
// idle: with four, client and server threads filled every core and
// runs spread by 20-60% with the host's load.

#include <algorithm>
#include <iostream>
#include <memory>
#include <thread>

#include "eval/query.h"
#include "server/server.h"
#include "storage/storage_metrics.h"
#include "util/hash_util.h"
#include "util/string_util.h"
#include "workload/genealogy.h"
#include "serving.h"

namespace perfbench {
namespace {

constexpr int kSessions = 2;
/// Set-up takes a few ms, so it is repeated often.
constexpr int kSetupRepeats = 40;
constexpr size_t kFamilies = 40;
constexpr size_t kGenerations = 7;
/// Every n-th query of a session is kept for the correctness check.
constexpr uint64_t kSampleEvery = 8;
constexpr size_t kMaxSamples = 96;  // per session

struct Sampled {
  std::string query;
  std::string body;
};

/// One client session and its op stream.
struct Session {
  std::unique_ptr<Client> client;
  semopt::SplitMix64 rng{0};
  uint64_t issued = 0;
  std::vector<Sampled> samples;
  std::vector<SentQuery> sent;  // traced phase only
};

struct Deployment {
  std::unique_ptr<semopt::QueryServer> server;
  std::vector<std::unique_ptr<Session>> sessions;
  size_t persons = 0;
  // Set-up parts, seconds.
  double generate_s = 0, start_s = 0, install_s = 0;

  /// Disconnects the clients, then stops and frees the server.
  void Teardown() {
    sessions.clear();
    server.reset();
  }
};

/// Generates the EDB, starts the server, connects the sessions and
/// installs the program in each.
semopt::Status Deploy(const RunConfig& config, int sessions,
                      const std::vector<std::string>& rules, Deployment* out) {
  semopt::GenealogyParams params;
  params.num_families = kFamilies;
  params.generations = kGenerations;
  params.children_per_person = 2;
  params.seed = config.seed * 0x2545f4914f6cdd1dULL + 3;
  uint64_t t = NowNs();
  semopt::Database db = semopt::GenerateGenealogyDb(params);
  out->persons = kFamilies * ((size_t{1} << kGenerations) - 1);
  out->generate_s = SecondsSince(t);

  t = NowNs();
  out->server = std::make_unique<semopt::QueryServer>(
      std::move(db), semopt::QueryServer::Options());
  SEMOPT_RETURN_IF_ERROR(out->server->Start());
  out->start_s = SecondsSince(t);
  t = NowNs();
  for (int s = 0; s < sessions; ++s) {
    auto session = std::make_unique<Session>();
    session->client = std::make_unique<Client>(out->server->port());
    session->rng = semopt::SplitMix64(config.seed * 1000003ULL + s);
    std::string body;
    for (const std::string& rule : rules) {
      if (!session->client->Request(rule, &body) ||
          body.rfind("added", 0) != 0) {
        return semopt::Status::Internal("installing " + rule + ": " + body);
      }
    }
    out->sessions.push_back(std::move(session));
  }
  out->install_s = SecondsSince(t);
  return semopt::Status::Ok();
}

/// The next request of a session's mix; `heavy` receives its class.
std::string NextQuery(Session* s, size_t persons, bool* heavy) {
  const uint64_t dice = s->rng.Below(100);
  if (dice < 60) {
    *heavy = false;
    return semopt::StrCat("par(pers", s->rng.Below(persons), ", A, P, Pa)");
  }
  *heavy = true;
  if (dice < 80) {
    return semopt::StrCat("anc(pers", s->rng.Below(persons), ", Xa, Y, Ya)");
  }
  return semopt::StrCat("anc(X, Xa, Y, Ya), Xa > ", 100 + s->rng.Below(11));
}

/// One closed-loop phase over every session. A warm-up phase stops on
/// time alone; a measured one also waits for its tail samples.
PhaseResult RunPhase(Deployment* d, double seconds, bool warmup, bool traced,
                     std::vector<Tracer>* tracers) {
  PhaseClock clock(seconds, warmup ? 0 : 100, warmup ? 0 : 100);
  std::vector<PhaseResult> results(d->sessions.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < d->sessions.size(); ++i) {
    threads.emplace_back([&, i] {
      Session* s = d->sessions[i].get();
      PhaseResult& r = results[i];
      Tracer* tracer = &(*tracers)[i];
      std::string body;
      while (clock.Running()) {
        bool heavy = false;
        const std::string query = NextQuery(s, d->persons, &heavy);
        tracer->BeginOp(++s->issued);
        const uint64_t t0 = NowNs();
        bool ok;
        {
          ScopedSpan span(tracer, heavy ? "request.heavy" : "request.light");
          ok = s->client->Request("?- " + query + ".", &body);
        }
        const uint64_t rtt = NowNs() - t0;
        const bool transport_ok = ok;
        ok = ok && IsAnswerResponse(body);
        ++r.attempted;
        if (!ok) {
          r.Fail(heavy, clock.Elapsed());
          if (!transport_ok) break;
          continue;
        }
        const double at = clock.Elapsed();
        (heavy ? r.heavy : r.light).Add(at, static_cast<double>(rtt));
        r.done_at.push_back(at);
        clock.Observed(heavy);
        if (traced) s->sent.push_back({query, rtt});
        if (s->issued % kSampleEvery == 0 && s->samples.size() < kMaxSamples) {
          s->samples.push_back({query, body});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult merged;
  for (const PhaseResult& r : results) merged.Merge(r);
  merged.seconds = clock.Elapsed();
  return merged;
}

/// The gate: every sampled response equals in-process AnswerQuery of
/// the session program on the server's pinned snapshot.
void CheckSamples(Deployment* d, const semopt::Program& program,
                  Report* report) {
  semopt::DatabaseSnapshot snap = d->server->store().Pin();
  size_t checked = 0;
  for (const auto& session : d->sessions) {
    for (const Sampled& sample : session->samples) {
      semopt::Result<semopt::QueryResult> expected =
          semopt::AnswerQuery(program, snap.db(), sample.query);
      ++checked;
      if (!expected.ok()) {
        report->Mismatch(sample.query + ": " + expected.status().ToString());
        continue;
      }
      if (AnswerRows(expected->ToString()) != AnswerRows(sample.body)) {
        report->Mismatch(sample.query +
                         ": server response differs from in-process "
                         "AnswerQuery on the pinned snapshot");
      }
    }
  }
  report->Note("gate.sampled_responses", std::to_string(checked));
}

}  // namespace

int RunServeGenealogy(const RunConfig& config, Report* report) {
  const int sessions = static_cast<int>(std::min<unsigned>(
      kSessions, std::max(1u, std::thread::hardware_concurrency())));
  StampRun(report, config, sessions, sessions, /*num_threads=*/1);
  semopt::Result<semopt::Program> program = semopt::GenealogyProgram();
  if (!program.ok()) {
    std::cerr << "serve-genealogy: " << program.status().ToString() << "\n";
    return 1;
  }
  const std::vector<std::string> rules = RuleLines(*program);

  // Set-up: generate, start the server, connect and install. Each
  // repeat tears the previous deployment down first.
  std::vector<double> generate, start, install;
  Deployment d;
  SetupTimer setup("serve-genealogy", kSetupRepeats, [&]() {
    d.Teardown();
    SEMOPT_RETURN_IF_ERROR(Deploy(config, sessions, rules, &d));
    generate.push_back(d.generate_s);
    start.push_back(d.start_s);
    install.push_back(d.install_s);
    return semopt::Status::Ok();
  }, report);
  if (!setup.Before()) return 1;
  report->Note("size.persons", std::to_string(d.persons));
  report->Note("size.edb_facts",
               std::to_string(d.server->store().Pin().db().TotalTuples()));

  // Warm-up: fills the shared plan cache (its samples feed the gate too).
  std::vector<Tracer> off(d.sessions.size(), Tracer(false));
  RunPhase(&d, std::min(1.0, config.seconds / 4), true, false, &off);

  PhaseResult base = RunPhase(&d, config.seconds, false, false, &off);
  const double peak_rss_mb = PeakRssMb();
  report->AddAttempts(base.attempted, base.failed);
  NoteSamples(report, "untraced", base);

  LayerMetrics layers;
  if (config.trace) {
    std::vector<Client*> clients;
    for (const auto& session : d.sessions) {
      clients.push_back(session->client.get());
    }
    ServerTrace trace;
    if (!trace.Begin(config, "serve-genealogy", clients)) return 1;
    std::vector<Tracer> on(d.sessions.size(), Tracer(true));
    PhaseResult traced = RunPhase(&d, config.seconds, false, true, &on);
    report->AddAttempts(traced.attempted, traced.failed);
    NoteSamples(report, "traced", traced);
    std::vector<std::vector<SentQuery>> sent;
    for (const auto& session : d.sessions) sent.push_back(session->sent);
    if (!trace.End(sent, on, &layers, report)) return 1;
    layers["snapshot.live_generations"] =
        static_cast<double>(d.server->store().live_generations());
    layers["storage.tuples_bytes"] =
        static_cast<double>(semopt::storage_metrics::LiveTupleBytes());
    AddOverhead(&layers, base, traced);
  }

  CheckSamples(&d, *program, report);
  if (!setup.After()) return 1;
  d.Teardown();
  report->Note("setup.generate_s", Median(generate));
  report->Note("setup.start_s", Median(start));
  report->Note("setup.install_s", Median(install));

  if (config.trace) {
    ReportPerLayer(report, layers);
  } else {
    ReportEndToEnd(report, setup.times(), base, peak_rss_mb);
  }
  return 0;
}

}  // namespace perfbench
