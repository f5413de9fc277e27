#ifndef TUFFY_DURABILITY_SNAPSHOT_H_
#define TUFFY_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mln/model.h"
#include "util/result.h"
#include "util/status.h"

namespace tuffy {

/// Snapshot files live next to the WAL in a session's durability
/// directory as `snapshot-<seq>.snap`, where `seq` is the number of WAL
/// records the snapshotted state has absorbed. Envelope layout:
///
///   [8-byte magic "TFYSNAP2"][u32 crc over payload][u64 payload length]
///   [payload bytes]
///
/// Written atomically: full temp file + fsync + rename + directory
/// fsync, so a snapshot either exists completely or not at all; a crash
/// mid-write leaves only an ignored *.tmp. The writer never deletes old
/// snapshots — recovery walks them newest-first, so an older intact
/// snapshot backstops a corrupt newer one (the WAL suffix is replayed
/// from whichever seq loads). Recovery itself deletes snapshots only in
/// one case: after a tail-loss rebase, when their seq points past the
/// end of the surviving log (see docs/DURABILITY.md).

/// Creates `dir` (and parents) if needed.
Status EnsureDir(const std::string& dir);

/// fsync of the directory itself, making renames/unlinks inside it
/// durable.
Status SyncDir(const std::string& dir);

std::string SnapshotFileName(uint64_t seq);

/// Writes `payload` as snapshot `seq` in `dir`, atomically. Instrumented
/// with the snapshot.* fault points.
Status WriteSnapshotFile(const std::string& dir, uint64_t seq,
                         const std::string& payload);

struct SnapshotRef {
  uint64_t seq = 0;
  std::string path;
};

/// Snapshot files in `dir`, newest (highest seq) first. An empty vector
/// is not an error.
Result<std::vector<SnapshotRef>> ListSnapshots(const std::string& dir);

/// Reads one snapshot file, validating magic, length, and CRC; returns
/// the payload or Corruption.
Result<std::string> ReadSnapshotFile(const std::string& path);

/// Deletes every snapshot in `dir` with seq strictly greater than
/// `seq`, then fsyncs the directory. Recovery's tail-loss cleanup: such
/// snapshots count WAL records the surviving log no longer holds, so
/// their seq would mis-skip file records on a later recovery.
Status RemoveSnapshotsAbove(const std::string& dir, uint64_t seq);

/// Structural fingerprint of a program (predicates, rules, weights,
/// interned symbols), stamped into WAL headers and snapshots so recovery
/// refuses to marry durable state to a different program — the atom ids
/// and clause weights inside would silently mean the wrong thing.
uint64_t ProgramFingerprint(const MlnProgram& program);

}  // namespace tuffy

#endif  // TUFFY_DURABILITY_SNAPSHOT_H_
