#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "jobbench.hpp"

namespace jobbench {

namespace {

/// Fields of /proc/<pid>/stat after the parenthesised command name
/// (field 3 onward); empty when the process is gone.
std::vector<std::string> statFields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return {};
  std::istringstream rest(text.substr(close + 1));
  std::vector<std::string> fields;
  for (std::string f; rest >> f;) fields.push_back(f);
  return fields;
}

bool alive(pid_t pid) {
  const std::vector<std::string> f = statFields(pid);
  return !f.empty() && f[0] != "Z" && f[0] != "X";
}

void sleepMs(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

}  // namespace

double calibrationSeconds() {
  // Dense LU without pivoting on a fixed, diagonally dominant 32x32 matrix,
  // repeated: an ILP-rich floating-point load like the simulator's, so a
  // busy SMT sibling on the host slows it about as much as it slows the
  // servers.  (A latency-bound kernel barely notices a busy sibling.)
  constexpr int n = 32;
  std::vector<double> a(n * n);
  volatile double sink = 0.0;
  const double start = nowSeconds();
  for (int rep = 0; rep < 120; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) a[i * n + j] = i == j ? n + rep * 1e-9 : 1.0 / (1 + i + j);
    }
    for (int k = 0; k < n; ++k) {
      for (int i = k + 1; i < n; ++i) {
        const double f = a[i * n + k] / a[k * n + k];
        for (int j = k + 1; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      }
    }
    sink = sink + a[n * n - 1];
  }
  return nowSeconds() - start;
}

std::vector<int> rankCpus(std::string& report) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<std::pair<double, int>> timed;
  char buf[64];
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || !pinTo(cpu)) continue;
    std::vector<double> samples;
    for (int i = 0; i < 9; ++i) samples.push_back(calibrationSeconds());
    const double m = median(samples);
    std::snprintf(buf, sizeof buf, "%scpu%d %.3f ms", report.empty() ? "" : ", ", cpu, m * 1e3);
    report += buf;
    timed.emplace_back(m, cpu);
  }
  ::sched_setaffinity(0, sizeof allowed, &allowed);
  std::sort(timed.begin(), timed.end());
  std::vector<int> ranked;
  for (const auto& [seconds, cpu] : timed) ranked.push_back(cpu);
  return ranked;
}

bool pinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds(pid_t pid) {
  const std::vector<std::string> f = statFields(pid);
  if (f.size() < 13) throw std::runtime_error("no /proc stat for pid " + std::to_string(pid));
  // Fields 14 (utime) and 15 (stime), in clock ticks.
  const double ticks = std::stod(f[11]) + std::stod(f[12]);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

Server::Server(const std::vector<std::string>& argv, const std::string& stderrPath, int cpu) {
  int toChild[2];
  int fromChild[2];
  if (::pipe2(toChild, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(fromChild, O_CLOEXEC) != 0) {
    ::close(toChild[0]);
    ::close(toChild[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int errFd = ::open(stderrPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    if (cpu >= 0) (void)pinTo(cpu);
    ::dup2(toChild[0], STDIN_FILENO);
    ::dup2(fromChild[1], STDOUT_FILENO);
    if (errFd >= 0) ::dup2(errFd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  if (errFd >= 0) ::close(errFd);
  ::close(toChild[0]);
  ::close(fromChild[1]);
  in_ = toChild[1];
  out_ = fromChild[0];
}

Server::~Server() { stop(); }

void Server::send(const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t done = 0;
  while (done < framed.size()) {
    const ssize_t n = ::write(in_, framed.data() + done, framed.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server pipe closed on write");
    done += static_cast<std::size_t>(n);
  }
}

std::string Server::receive(double timeoutSeconds) {
  const double deadline = nowSeconds() + timeoutSeconds;
  std::size_t scanned = 0;
  while (true) {
    const std::size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    scanned = buffer_.size();
    const double left = deadline - nowSeconds();
    if (left <= 0) throw std::runtime_error("server reply timed out");
    struct pollfd pfd {};
    pfd.fd = out_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(out_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed its output (exited)");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::vector<pid_t> Server::processTree() const {
  std::vector<pid_t> tree{pid_};
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return tree;
  while (const dirent* entry = ::readdir(proc)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (*end != '\0' || pid <= 0) continue;
    const std::vector<std::string> f = statFields(static_cast<pid_t>(pid));
    if (f.size() > 1 && std::stol(f[1]) == pid_ && f[0] != "Z") {
      tree.push_back(static_cast<pid_t>(pid));
    }
  }
  ::closedir(proc);
  return tree;
}

void Server::stop() {
  if (pid_ < 0) return;
  std::vector<pid_t> children = processTree();
  children.erase(children.begin());
  ::close(in_);  // EOF ends the serve loop; a router then stops its shards.
  in_ = -1;
  int status = 0;
  bool exited = false;
  for (int i = 0; i < 3000 && !exited; ++i) {
    exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (!exited) sleepMs(5);
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  ::close(out_);
  out_ = -1;
  pid_ = -1;
  // Shards normally exit with their router; never leave one behind.
  for (const pid_t child : children) {
    for (int i = 0; i < 1000 && alive(child); ++i) sleepMs(5);
    if (alive(child)) ::kill(child, SIGKILL);
  }
}

}  // namespace jobbench
