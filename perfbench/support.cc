#include "support.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "storage/tuple.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Equal neighbours (failed ops are both +infinity) need no
  // interpolation, which would compute inf - inf.
  if (values_[hi] == values_[lo]) return values_[lo];
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

int Tracer::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.op = op_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::Close(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

std::map<std::string, uint64_t> Tracer::SelfNsByName() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, uint64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t total = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] += total > child_ns[i] ? total - child_ns[i] : 0;
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  uint64_t origin = UINT64_MAX;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) origin = std::min(origin, s.start_ns);
  }
  for (size_t tid = 0; tid < tracers.size(); ++tid) {
    const std::vector<Span>& spans = tracers[tid]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << Num(static_cast<double>(s.start_ns - origin) / 1e3)
          << ",\"dur\":" << Num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ",\"args\":{\"op\":" << s.op << ",\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Client::Client(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Request(const std::string& line, std::string* body) {
  if (fd_ < 0) return false;
  const std::string wire = line + "\n";
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  body->clear();
  bool first = true;
  char buf[8192];
  while (true) {
    std::optional<std::string> received = lines_.PopLine();
    if (received.has_value()) {
      if (*received == ".") return true;
      if (!first) *body += '\n';
      *body += semopt::DecodeBodyLine(*received);
      first = false;
      continue;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    lines_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

namespace {

std::string LastLine(const std::string& body) {
  const size_t nl = body.rfind('\n');
  return nl == std::string::npos ? body : body.substr(nl + 1);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool IsAnswerResponse(const std::string& body) {
  const std::string last = LastLine(body);
  return last == "no answers" || EndsWith(last, " answer(s)");
}

std::set<std::string> AnswerRows(const std::string& body) {
  std::set<std::string> rows;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "no answers" || EndsWith(line, " answer(s)")) continue;
    rows.insert(line);
  }
  return rows;
}

std::set<std::string> TupleSet(const std::vector<semopt::Tuple>& tuples) {
  std::set<std::string> out;
  for (const semopt::Tuple& t : tuples) out.insert(semopt::TupleToString(t));
  return out;
}

bool JsonU64(const std::string& line, const char* key, uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + needle.size();
  if (*p < '0' || *p > '9') return false;
  *out = std::strtoull(p, nullptr, 10);
  return true;
}

bool JsonStr(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  out->clear();
  for (size_t i = at + needle.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out->push_back(line[++i]);
    } else if (line[i] == '"') {
      return true;
    } else {
      out->push_back(line[i]);
    }
  }
  return false;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

double PeakRssMb() {
  for (const std::string& line : ReadLines("/proc/self/status")) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t RegistryCounter(const char* name) {
  return semopt::obs::MetricsRegistry::Global().GetCounter(name).value();
}

std::string Num(double v) {
  // JSON has no infinity: a percentile over failed ops (which count as
  // +infinity) prints as 1e300.
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.push_back({key, value});
}

void Report::Note(const std::string& key, double value) {
  Note(key, Num(value));
}

void Report::Mismatch(const std::string& what) {
  if (mismatches_.size() < 20) mismatches_.push_back(what);
}

void Report::Print() const {
  for (const auto& [key, value] : notes_) {
    std::cout << "# " << key << " " << value << "\n";
  }
  for (const std::string& m : mismatches_) {
    std::cout << "# MISMATCH " << m << "\n";
  }
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << name
              << "\": {\"value\": " << Num(vu.first) << ", \"unit\": \""
              << vu.second << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void StampRun(Report* report, const RunConfig& config, int client_threads,
              int connections, size_t num_threads) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  report->Note("stamp.build_type",
               build == "Release" ? build : build + " (NOT Release: timings "
                                                    "are not comparable)");
  report->Note("stamp.nproc",
               std::to_string(std::thread::hardware_concurrency()));
  std::string cpu = "unknown";
  for (const std::string& line : ReadLines("/proc/cpuinfo")) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  report->Note("stamp.cpu", cpu);
  report->Note("stamp.workload", config.workload);
  report->Note("stamp.seed", std::to_string(config.seed));
  report->Note("stamp.seconds", config.seconds);
  report->Note("stamp.trace", config.trace ? "1" : "0");
  report->Note("stamp.client_threads", std::to_string(client_threads));
  report->Note("stamp.connections", std::to_string(connections));
  report->Note("stamp.num_threads", std::to_string(num_threads));
}

}  // namespace perfbench
