// Structured failure model of the tdg runtime.
//
// Failure taxonomy (see DESIGN.md, "Failure model"):
//   * UsageError     — recoverable API misuse (bad argument, protocol
//                      violation the caller can fix). Thrown by TDG_REQUIRE;
//                      the runtime's internal state stays valid.
//   * TaskGroupError — one or more task bodies threw. Raised at taskwait()
//                      after the graph has drained: failed tasks carry their
//                      original exception_ptr, transitively-dependent tasks
//                      are reported as cancelled (their bodies never ran).
//   * DeadlineError  — a watchdog or deadline-aware wait detected no
//                      progress; carries a diagnostic report naming what is
//                      stuck (live tasks, unfulfilled detach events, pending
//                      MPI requests).
//
// Genuine invariant violations (memory-corrupting protocol bugs) remain
// TDG_CHECK -> abort: a broken runtime must not unwind through user frames.
#pragma once

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tdg {

/// Root of the tdg exception hierarchy.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Recoverable API misuse: the call is rejected, the runtime stays usable.
class UsageError : public Error {
 public:
  using Error::Error;
};

/// A watchdog deadline expired with no progress. `what()` is the full
/// diagnostic report.
class DeadlineError : public Error {
 public:
  explicit DeadlineError(std::string report)
      : Error(report), report_(std::move(report)) {}
  const std::string& report() const noexcept { return report_; }

 private:
  std::string report_;
};

/// The TDG soundness verifier (TDG_VERIFY=strict) found violations at a
/// taskwait or persistent-region boundary: a conflicting access pair the
/// discovered graph does not order (determinacy race), a cyclic edge set,
/// or PTSG replay drift. `what()` is the full report.
class VerifyError : public Error {
 public:
  explicit VerifyError(std::string report)
      : Error(report), report_(std::move(report)) {}
  const std::string& report() const noexcept { return report_; }

 private:
  std::string report_;
};

/// A remote rank died (fault-plan kill or heartbeat timeout) while an
/// operation depended on it: in-flight receives from the dead rank fail
/// fast with this error, and the dead rank's own unwinding uses it too.
/// `rank()` names the failed rank.
class RankFailedError : public Error {
 public:
  RankFailedError(int rank, std::string msg)
      : Error(std::move(msg)), rank_(rank) {}
  int rank() const noexcept { return rank_; }

 private:
  int rank_;
};

/// One task whose body threw (after exhausting its retry budget).
struct TaskFailure {
  std::uint64_t task_id = 0;
  std::string label;
  std::string message;       ///< what() of the captured exception
  std::exception_ptr error;  ///< the original exception, rethrowable
  std::uint32_t attempts = 0;  ///< executions tried (1 + retries used)
};

/// One task cancelled because a (transitive) predecessor failed. Its body
/// never ran.
struct CancelledTask {
  std::uint64_t task_id = 0;
  std::string label;
};

/// Aggregated failure state of a task graph, thrown by Runtime::taskwait()
/// once every live task has drained (ran, failed, or was cancelled).
class TaskGroupError : public Error {
 public:
  TaskGroupError(std::vector<TaskFailure> failures,
                 std::vector<CancelledTask> cancelled)
      : Error(format(failures, cancelled)),
        failures_(std::move(failures)),
        cancelled_(std::move(cancelled)) {}

  const std::vector<TaskFailure>& failures() const noexcept {
    return failures_;
  }
  const std::vector<CancelledTask>& cancelled() const noexcept {
    return cancelled_;
  }

  /// Rethrow the first captured task exception (debugging helper).
  [[noreturn]] void rethrow_first() const {
    std::rethrow_exception(failures_.front().error);
  }

 private:
  static std::string format(const std::vector<TaskFailure>& failures,
                            const std::vector<CancelledTask>& cancelled) {
    std::string s = "task group failed: " +
                    std::to_string(failures.size()) + " task(s) threw, " +
                    std::to_string(cancelled.size()) + " cancelled";
    for (const TaskFailure& f : failures) {
      s += "\n  failed: task '" + f.label + "' (id " +
           std::to_string(f.task_id) + ", " + std::to_string(f.attempts) +
           " attempt(s)): " + f.message;
    }
    for (const CancelledTask& c : cancelled) {
      s += "\n  cancelled: task '" + c.label + "' (id " +
           std::to_string(c.task_id) + ")";
    }
    return s;
  }

  std::vector<TaskFailure> failures_;
  std::vector<CancelledTask> cancelled_;
};

/// Extract a human-readable message from an in-flight exception.
inline std::string describe_exception(const std::exception_ptr& e) {
  if (!e) return "<no exception>";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "<non-std exception>";
  }
}

/// Recoverable-misuse check: throws tdg::UsageError instead of aborting.
/// Use for conditions a caller can cause (and fix); keep TDG_CHECK for
/// internal invariants whose violation means the runtime state is corrupt.
#define TDG_REQUIRE(cond, msg)              \
  do {                                      \
    if (!(cond)) throw ::tdg::UsageError(msg); \
  } while (0)

}  // namespace tdg
