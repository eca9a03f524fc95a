#include "server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "obs/metrics.h"
#include "server/protocol.h"
#include "util/string_util.h"

namespace semopt {

namespace {

/// Sends all of `data`, looping over short writes. MSG_NOSIGNAL: a
/// client that hung up mid-response produces EPIPE, not SIGPIPE.
bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Pins glibc's mmap threshold for the rest of the process. Relation
/// copies are tens of megabytes, and glibc's default threshold adapts
/// upward (to 32 MiB) after the first large free; from then on such
/// buffers come from per-thread heaps, where the small allocations of
/// in-place view maintenance fragment the space they leave behind, and
/// a server under a sustained write stream keeps growing its RSS
/// (~25 MB/s on serve-churn-1m, 4-vCPU Xeon). With the threshold
/// pinned, every relation-sized buffer is mmapped and goes back to the
/// OS as soon as the generation or copy holding it is freed.
void PinMmapThreshold() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] { mallopt(M_MMAP_THRESHOLD, 4 << 20); });
#endif
}

}  // namespace

QueryServer::QueryServer(Database initial)
    : QueryServer(std::move(initial), Options()) {}

QueryServer::QueryServer(Database initial, Options options)
    : options_(options),
      store_(std::move(initial)),
      plan_cache_(options.cache_shards, options.cache_entries_per_shard),
      scheduler_(options.sched),
      host_(this) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  PinMmapThreshold();

  if (!options_.query_log_path.empty()) {
    SEMOPT_RETURN_IF_ERROR(query_log_.OpenLog(options_.query_log_path));
  }
  if (!options_.slow_log_path.empty()) {
    SEMOPT_RETURN_IF_ERROR(query_log_.OpenSlowLog(options_.slow_log_path));
  }
  query_log_.set_slow_threshold_us(options_.slow_query_us);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::Internal(StrCat("bind: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    Status st = Status::Internal(StrCat("listen: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status st = Status::Internal(StrCat("getsockname: ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void QueryServer::Stop() {
  if (!running_.exchange(false)) return;
  // Unblock accept(); the loop sees running_ == false and exits.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Kick live sessions out of recv(); their threads then finish.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // No new threads can appear now (accept loop is gone), so joining a
  // snapshot of the vector drains everything.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    threads.swap(session_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  // All sessions have drained; buffered query-log records hit disk
  // before Stop returns (the log stays open for inspection).
  query_log_.Flush();
}

void QueryServer::AcceptLoop() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  while (running_.load()) {
    // accept() on the retired -1 fails with EBADF, which breaks the
    // loop — exactly the Stop() path.
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed (Stop) or fatal
    }
    sessions_served_.fetch_add(1, std::memory_order_relaxed);
    registry.GetCounter("server.sessions.total").Add(1);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (!running_.load()) {  // raced with Stop: refuse the session
      ::close(fd);
      break;
    }
    session_fds_.push_back(fd);
    session_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void QueryServer::ServeConnection(int fd) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("server.sessions.opened").Add(1);

  SessionCommandProcessor processor(&host_);
  processor.set_num_threads(options_.threads_per_query);

  LineBuffer lines;
  char buf[4096];
  bool open = true;
  while (open) {
    // Drain every complete request already buffered before reading
    // more bytes (a client may pipeline requests).
    while (open) {
      std::optional<std::string> line = lines.PopLine();
      if (!line.has_value()) break;
      registry.GetCounter("server.requests").Add(1);
      std::string response = processor.Execute(*line);
      if (!SendAll(fd, EncodeResponse(response))) {
        open = false;
        break;
      }
      if (processor.done()) open = false;
    }
    if (!open) break;
    if (lines.overflowed()) {
      // An over-long request line gets one error response, then the
      // session closes: its bytes are already released.
      SendAll(fd, EncodeResponse(StrCat("error: request line longer than ",
                                        LineBuffer::kMaxLineBytes,
                                        " bytes; closing session")));
      break;
    }
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // disconnect (or Stop's shutdown)
    lines.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session_fds_.erase(
        std::remove(session_fds_.begin(), session_fds_.end(), fd),
        session_fds_.end());
  }
  registry.GetCounter("server.sessions.closed").Add(1);
}

}  // namespace semopt
