// ShardProcess: one worker daemon as a child process behind two pipes.
//
// The router talks to each losynthd shard over its stdin/stdout exactly
// the way an external client talks to the router: one JSON line per
// request, one per response.  This class owns the POSIX plumbing --
// fork/exec with close-on-exec pipes, a non-blocking write end, buffered
// line reads with a poll() timeout, EOF detection -- and nothing
// protocol-shaped; the router layers routing and recovery on top.
//
// Death shows up two ways and both are first-class here:
//  * EOF on the read pipe (the child exited or was SIGKILLed) -- the
//    definitive signal, delivered immediately because the parent-side fds
//    are the *only* copies of the pipe ends (O_CLOEXEC everywhere, so a
//    sibling shard spawned later cannot hold them open and mask a death);
//  * a read timeout (the child is wedged) -- the caller decides, and the
//    router's policy is kill + restart, because a request/response stream
//    that missed one response would pair every later response with the
//    wrong request.
#pragma once

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

namespace lo::cluster {

enum class ReadStatus { kOk, kEof, kTimeout, kNotRunning };

class ShardProcess {
 public:
  ShardProcess() = default;
  ~ShardProcess();  ///< terminate()s a still-running child.

  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;

  /// Fork/exec `argv` (argv[0] is the binary; PATH is searched).  The
  /// child inherits stderr.  Throws std::runtime_error on pipe/fork
  /// failure; an exec failure surfaces as an immediate EOF.  Spawning over
  /// a still-running child terminates it first.
  void spawn(const std::vector<std::string>& argv);

  /// True while the child has not been reaped.  Non-blocking.
  [[nodiscard]] bool running();

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Write one request line (a trailing '\n' is added), waiting for pipe
  /// space as long as that takes.  False when the pipe is closed/broken --
  /// the write path's death signal.
  [[nodiscard]] bool writeLine(const std::string& line);

  /// Non-blocking write: push as much of `bytes` as the pipe takes right
  /// now and return the count (0 when it is full), or -1 when the pipe is
  /// closed/broken.  The router's exchange interleaves this with pollLine
  /// in one poll(2) loop, so a shard that stops reading cannot block it.
  [[nodiscard]] ssize_t writeSome(std::string_view bytes);

  /// Read one response line (without the '\n').  timeoutSeconds <= 0
  /// waits forever.  kEof means the child died; kTimeout means it is
  /// wedged past the deadline.
  [[nodiscard]] ReadStatus readLine(std::string& line, double timeoutSeconds);

  /// Non-blocking readLine: drain whatever the pipe holds right now and
  /// return kOk if that completed a line, kTimeout if a (partial or no)
  /// line is still pending, kEof when the child died.  The router's
  /// exchange drives every shard's pipe from one poll(2) loop with this.
  [[nodiscard]] ReadStatus pollLine(std::string& line);

  /// The parent-side read and (non-blocking) write fds, for poll(2)ing
  /// several shards at once; -1 when not running.
  [[nodiscard]] int readFd() const { return out_; }
  [[nodiscard]] int writeFd() const { return in_; }

  /// SIGKILL, then reap.  Used by the fault-injection side (soak, tests)
  /// to simulate a crashed shard from outside.
  void kill9();

  /// Close our write end (EOF on the child's stdin), SIGTERM after
  /// `graceSeconds` if it is still up, SIGKILL after another grace, reap.
  void terminate(double graceSeconds = 2.0);

 private:
  void closeFds();
  void reap(bool block);

  pid_t pid_ = -1;
  int in_ = -1;   ///< Parent write end -> child stdin.
  int out_ = -1;  ///< Parent read end <- child stdout.
  std::string buffer_;
  bool sawEof_ = false;
  bool reaped_ = true;
};

}  // namespace lo::cluster
