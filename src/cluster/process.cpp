#include "cluster/process.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace lo::cluster {

namespace {

/// A dead shard must surface as a failed write (EPIPE), never as a fatal
/// SIGPIPE delivered to the router.
void ignoreSigpipeOnce() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

void makeCloexecPipe(int fds[2]) {
  if (::pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  // O_CLOEXEC on both ends: a later-spawned sibling must not inherit this
  // shard's pipe ends, or the sibling would keep them open after this
  // shard dies and the router would never see the EOF.
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ShardProcess::~ShardProcess() { terminate(0.5); }

void ShardProcess::closeFds() {
  if (in_ >= 0) ::close(in_);
  if (out_ >= 0) ::close(out_);
  in_ = out_ = -1;
}

void ShardProcess::reap(bool block) {
  if (reaped_ || pid_ < 0) return;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  if (r == pid_ || (r < 0 && errno == ECHILD)) reaped_ = true;
}

void ShardProcess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::invalid_argument("spawn needs an argv");
  ignoreSigpipeOnce();
  if (!reaped_) terminate(0.5);

  int toChild[2];
  int fromChild[2];
  makeCloexecPipe(toChild);
  try {
    makeCloexecPipe(fromChild);
  } catch (...) {
    ::close(toChild[0]);
    ::close(toChild[1]);
    throw;
  }

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);

  const pid_t child = ::fork();
  if (child < 0) {
    ::close(toChild[0]);
    ::close(toChild[1]);
    ::close(fromChild[0]);
    ::close(fromChild[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (child == 0) {
    // Child: only async-signal-safe calls between fork and exec.
    ::dup2(toChild[0], STDIN_FILENO);
    ::dup2(fromChild[1], STDOUT_FILENO);
    // The dup2'd fds 0/1 survive exec; every original pipe fd is CLOEXEC.
    ::execvp(cargv[0], cargv.data());
    _exit(127);  // exec failed: the parent sees EOF on its first read.
  }

  ::close(toChild[0]);
  ::close(fromChild[1]);
  // A full stdin pipe must never block the parent: writeSome reports it.
  ::fcntl(toChild[1], F_SETFL, ::fcntl(toChild[1], F_GETFL) | O_NONBLOCK);
  pid_ = child;
  in_ = toChild[1];
  out_ = fromChild[0];
  buffer_.clear();
  sawEof_ = false;
  reaped_ = false;
}

bool ShardProcess::running() {
  if (reaped_ || pid_ < 0) return false;
  reap(/*block=*/false);
  return !reaped_;
}

bool ShardProcess::writeLine(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  for (std::string_view rest = framed; !rest.empty();) {
    const ssize_t n = writeSome(rest);
    if (n < 0) return false;
    rest.remove_prefix(static_cast<std::size_t>(n));
    if (n == 0) {
      struct pollfd pfd {};
      pfd.fd = in_;
      pfd.events = POLLOUT;
      (void)::poll(&pfd, 1, -1);
    }
  }
  return true;
}

ssize_t ShardProcess::writeSome(std::string_view bytes) {
  if (in_ < 0 || sawEof_) return -1;
  for (;;) {
    const ssize_t n = ::write(in_, bytes.data(), bytes.size());
    if (n >= 0) return n;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno != EINTR) return -1;  // EPIPE et al.: the child is gone.
  }
}

ReadStatus ShardProcess::readLine(std::string& line, double timeoutSeconds) {
  if (out_ < 0) return ReadStatus::kNotRunning;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return ReadStatus::kOk;
    }
    if (sawEof_) return ReadStatus::kEof;

    int waitMs = -1;  // Forever.
    if (timeoutSeconds > 0) {
      const double remaining = timeoutSeconds - secondsSince(start);
      if (remaining <= 0) return ReadStatus::kTimeout;
      waitMs = static_cast<int>(remaining * 1000.0) + 1;
    }
    struct pollfd pfd {};
    pfd.fd = out_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, waitMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      sawEof_ = true;
      return ReadStatus::kEof;
    }
    if (ready == 0) return ReadStatus::kTimeout;

    char chunk[4096];
    const ssize_t n = ::read(out_, chunk, sizeof chunk);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    sawEof_ = true;  // n == 0 (EOF) or a hard read error.
  }
}

ReadStatus ShardProcess::pollLine(std::string& line) {
  if (out_ < 0) return ReadStatus::kNotRunning;
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return ReadStatus::kOk;
    }
    if (sawEof_) return ReadStatus::kEof;

    struct pollfd pfd {};
    pfd.fd = out_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 0);
    if (ready < 0) {
      if (errno == EINTR) continue;
      sawEof_ = true;
      return ReadStatus::kEof;
    }
    if (ready == 0) return ReadStatus::kTimeout;

    char chunk[4096];
    const ssize_t n = ::read(out_, chunk, sizeof chunk);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    sawEof_ = true;  // n == 0 (EOF) or a hard read error.
  }
}

void ShardProcess::kill9() {
  if (pid_ < 0 || reaped_) return;
  ::kill(pid_, SIGKILL);
  reap(/*block=*/true);
  closeFds();
  sawEof_ = true;
}

void ShardProcess::terminate(double graceSeconds) {
  if (pid_ < 0) return;
  closeFds();  // EOF on the child's stdin: a clean daemon exits its loop.
  if (!reaped_) {
    const auto start = std::chrono::steady_clock::now();
    while (running() && secondsSince(start) < graceSeconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (running()) {
      ::kill(pid_, SIGTERM);
      const auto term = std::chrono::steady_clock::now();
      while (running() && secondsSince(term) < graceSeconds) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (running()) ::kill(pid_, SIGKILL);
    reap(/*block=*/true);
  }
  pid_ = -1;
  sawEof_ = true;
}

}  // namespace lo::cluster
