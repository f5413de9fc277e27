#ifndef TUFFY_SERVE_SESSION_ACCESS_H_
#define TUFFY_SERVE_SESSION_ACCESS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "serve/inference_session.h"

namespace tuffy {

/// How a front end reaches a named session, whoever owns it: the
/// SessionManager on a primary, the ReplicaSession on a hot standby.
/// The network server and the CLI follower REPL reach sessions only
/// through this, so one dispatcher serves both owners; they differ only
/// in what they refuse.
class SessionAccess {
 public:
  using StatList = std::vector<std::pair<std::string, double>>;

  virtual ~SessionAccess() = default;

  /// Runs `fn` on the named session while the owner keeps it alive and
  /// still: the replica holds its lock (the streaming thread applies
  /// records between reads), the manager pins the session against Close.
  /// Returns the owner's refusal (NotFound, or Unavailable while a
  /// replica has no state yet) or else whatever `fn` returns. Two reads
  /// of one manager session, or a read racing ApplyDelta on it, are the
  /// caller's to serialize — the server's per-session lanes do.
  virtual Status Read(
      const std::string& name,
      const std::function<Status(const InferenceSession&)>& fn) = 0;

  /// The write gate. A replica refuses with Status::Unavailable (wire:
  /// kNotPrimary, retryable, naming the primary) until it is promoted.
  virtual Result<DeltaApplyResult> ApplyDelta(
      const std::string& name, const EvidenceDelta& delta,
      TraceBuilder* trace = nullptr) = 0;

  /// Opens the named session (grounding `program` against `evidence`)
  /// or attaches to the live one. Returns true when it attached.
  virtual Result<bool> OpenOrAttach(const std::string& name,
                                    const MlnProgram& program,
                                    const EvidenceDb& evidence,
                                    SessionOptions options) = 0;

  /// Close and crash recovery belong to the owner of the session's
  /// lifetime; a replica refuses both with InvalidArgument.
  virtual Status Close(const std::string& name) = 0;
  virtual Result<InferenceSession*> Recover(
      const std::string& name, const MlnProgram& program,
      SessionOptions options, RecoveryStats* stats = nullptr) = 0;

  /// The kStats figures only the owner knows, appended to `out`: the
  /// manager's admission charge (resident_bytes), a replica's position
  /// and promotion flag.
  virtual void AppendOwnerStats(const std::string& name,
                                StatList* out) const = 0;
};

}  // namespace tuffy

#endif  // TUFFY_SERVE_SESSION_ACCESS_H_
