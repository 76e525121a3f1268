//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The placement-decision flight recorder: an off-by-default, process-wide
/// log that captures one structured record per (epoch, object, chunk)
/// decision the ATMem pipeline makes — the sampled misses and Eq. 1 PR,
/// every Eq. 2 theta component and which one won, the Eq. 4 weight and its
/// global rank, the Eq. 5 TR' threshold and the m-ary tree node ratio that
/// caused (or blocked) promotion, and the full migration lifecycle
/// (planned → staged → remapped → committed, with retries, degradations,
/// rollbacks and fault-site attribution).
///
/// Records are written as compact length-prefixed binary ("atdl-v1"):
///
///   header  : magic "ATDL" + u32 version
///   record  : u32 payload length, then payload = u8 kind + fixed-width
///             little-endian fields (strings are interned through NameDef
///             records and referenced by id)
///   trailer : kind Trailer carrying the record count written before it
///
/// Like the metrics layer (Telemetry.h), the disabled cost at every
/// instrumentation site is one relaxed atomic load and a predicted branch;
/// all sites sit on cold control paths (classify / optimize / migrate),
/// never on the per-access hot path. The reader, validator and JSONL
/// export in this header are the single source of truth for the format:
/// tests, tools/atmem_obs_check and tools/atmem_explain all consume them.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_OBS_DECISIONLOG_H
#define ATMEM_OBS_DECISIONLOG_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace atmem {
namespace obs {

struct JsonValue;

namespace detail {
/// Process-wide "a decision log is open" flag; read relaxed on every
/// instrumentation site, written only by open()/close().
extern std::atomic<bool> GDecisionLogOpen;
} // namespace detail

/// Record kinds of the binary format (the u8 leading each payload).
enum class DecisionKind : uint8_t {
  NameDef = 0,     ///< Interned string: u32 id + bytes.
  EpochBegin = 1,  ///< A new optimize() epoch: u64 epoch id.
  ObjectEpoch = 2, ///< One object's per-epoch analyzer verdict.
  ChunkDecision = 3, ///< One chunk's classification within an epoch.
  MigrationEvent = 4, ///< One migration lifecycle step for a chunk range.
  Trailer = 255,   ///< Final record: u64 count of records before it.
};

/// Lifecycle phases a MigrationEvent can report.
enum class DecisionPhase : uint8_t {
  Planned = 0,    ///< optimize() nominated the range for the target tier.
  Staged = 1,     ///< Staging copy-in completed (AtmemMigrator stage a).
  Remapped = 2,   ///< Virtual range rebound to target frames (stage b).
  Committed = 3,  ///< Chunk tiers updated; the move is durable.
  RolledBack = 4, ///< A stage failed; partial state undone (fault site set).
  Retried = 5,    ///< Retryable failure absorbed by the bounded retry.
  Degraded = 6,   ///< Capacity shrink dropped the range from the attempt.
  Skipped = 7,    ///< Left unplaced; recorded for re-nomination.
  Renominated = 8, ///< A previously skipped range re-entered the plan.
  // 9 and 10 are retired; validateDecisionLog rejects them.
};

const char *decisionPhaseName(DecisionPhase Phase);

/// Which Eq. 2 term set theta (ties resolve in max-application order).
enum class ThetaWinner : uint8_t {
  Percentile = 0, ///< The P_n percentile term.
  Derivative = 1, ///< The 2-means derivative cut.
  NoiseFloor = 2, ///< The minPR / F_sample noise floor.
};

const char *thetaWinnerName(ThetaWinner Winner);

/// ChunkDecision flag bits.
constexpr uint8_t DecisionChunkSampledCritical = 1; ///< Eq. 3 CAT = 1.
constexpr uint8_t DecisionChunkGlobalRanked = 2; ///< Flipped by pooled rank.
constexpr uint8_t DecisionChunkPromoted = 4; ///< Estimated critical (tree).

/// One object's analyzer verdict for one epoch (Eq. 2, 4, 5).
struct ObjectEpochRecord {
  uint64_t Epoch = 0; ///< Stamped by the writer; readers see it filled.
  uint32_t Object = 0;
  uint32_t NameId = 0;
  uint32_t NumChunks = 0;
  uint64_t ChunkBytes = 0;
  uint64_t SamplePeriod = 0;
  double Weight = 0.0;       ///< Eq. 4 W; 0 when no critical chunks.
  uint32_t WeightRank = 0;   ///< 1-based rank among W > 0 objects; 0 = none.
  uint32_t RankedObjects = 0; ///< How many objects carried W > 0.
  double TrThreshold = 2.0;  ///< Eq. 5 TR' as used (> 1 never promotes).
  double Theta = 0.0;        ///< Eq. 2 threshold actually applied.
  double ThetaPercentile = 0.0;
  double ThetaDerivative = 0.0;
  double ThetaNoiseFloor = 0.0;
  ThetaWinner Winner = ThetaWinner::Percentile;
  uint32_t SampledCritical = 0; ///< Chunks with CAT = 1 after ranking.
  uint32_t PromotedCount = 0;   ///< Chunks the tree walk added.
};

/// One chunk's classification. Only chunks that carry information are
/// recorded (samples, critical, or promoted); absent chunks were cold.
struct ChunkDecisionRecord {
  uint64_t Epoch = 0;
  uint32_t Object = 0;
  uint32_t Chunk = 0;
  uint64_t Samples = 0;         ///< Raw sample hits.
  double EstimatedMisses = 0.0; ///< Unbiased per-chunk miss estimate.
  double Priority = 0.0;        ///< Eq. 1 PR (misses per byte).
  uint8_t Flags = 0;            ///< DecisionChunk* bits.
  /// Tree ratio of the deepest examined m-ary tree node covering this
  /// chunk: the promoting node's TR for promoted chunks, the blocking
  /// node's TR otherwise. 0 when the walk never ran (TR' > 1, no
  /// critical chunks, or promotion disabled).
  double NodeTreeRatio = 0.0;
};

/// One migration lifecycle step for a chunk range of an object.
struct MigrationEventRecord {
  uint64_t Epoch = 0;
  uint32_t Object = 0;
  uint32_t FirstChunk = 0;
  uint32_t NumChunks = 0;
  uint8_t TargetFast = 0; ///< 1 when headed to the fast tier.
  DecisionPhase Phase = DecisionPhase::Planned;
  uint32_t FaultSiteNameId = 0; ///< Interned site name; 0 = none.
  double Priority = 0.0;        ///< Best Eq. 1 PR in the range (if known).
};

/// Destination of the serialized atdl-v1 record stream. The DecisionLog
/// owns the serializer (interning, epoch stamping, the record payloads);
/// a sink owns the bytes' final resting place and its own framing: the
/// file sink length-prefixes records into a flat file, the ring sink
/// (RingLog.h) adds sequence numbers and CRCs inside mmap'd rotating
/// segments, and the null sink discards everything (serializer-cost
/// measurement). All calls arrive under the DecisionLog mutex.
class DecisionSink {
public:
  virtual ~DecisionSink() = default;

  /// Appends one serialized record payload (u8 kind + little-endian
  /// fields, unframed). Write failures are latched and reported by
  /// finish().
  virtual void append(const std::string &Payload) = 0;

  /// Flushes and releases the destination. False (with \p Error when
  /// non-null) when any write failed along the way.
  virtual bool finish(std::string *Error) = 0;

  /// Where the records are going (diagnostics; DecisionLog::path()).
  virtual const std::string &path() const = 0;
};

/// The process-wide decision-log writer. Thread-safe: record emission is
/// serialized by a mutex (all emitting sites are cold control paths).
/// Epochs are stamped at record time from the writer's current epoch, so
/// instrumentation sites never thread an epoch id through their layers.
class DecisionLog {
public:
  static DecisionLog &instance();

  /// True when a log is open; the one predicted branch every site pays.
  static bool enabled() {
    return detail::GDecisionLogOpen.load(std::memory_order_relaxed);
  }

  /// Opens \p Path and writes the header. A second open while a log is
  /// already open is a no-op returning true (several runtimes may share
  /// one process-wide log, as bench jobs do). False on I/O failure.
  bool open(const std::string &Path, std::string *Error = nullptr);

  /// Routes the record stream into an arbitrary sink. The ring and null
  /// front-ends in RingLog.h come through here; open() is sugar for a
  /// file sink. Keeps the already-open no-op semantics of open(): when a
  /// log is running the new sink is discarded and true is returned.
  bool openSink(std::unique_ptr<DecisionSink> Sink);

  /// Writes the trailer and closes. No-op returning true when nothing is
  /// open. False on I/O failure (the file is still closed).
  bool close(std::string *Error = nullptr);

  bool isOpen() const;
  /// The path of the currently open log ("" when closed).
  std::string path() const;

  /// Starts a new epoch (one optimize() call) and returns its id.
  /// Epoch ids increase monotonically for the lifetime of the log.
  uint64_t beginEpoch();

  /// Interns \p Name, emitting a NameDef record on first use.
  uint32_t nameId(const std::string &Name);

  /// \name Record emission (no-ops when the log is closed)
  /// The Epoch fields of the passed records are overwritten with the
  /// writer's current epoch.
  /// @{
  void recordObject(const ObjectEpochRecord &Record);
  void recordChunk(const ChunkDecisionRecord &Record);
  void recordMigration(const MigrationEventRecord &Record);
  /// @}

private:
  DecisionLog() = default;
  struct Impl;
  Impl &impl();
};

//===----------------------------------------------------------------------===//
// Reader / validator / JSONL export
//===----------------------------------------------------------------------===//

/// One decoded record; \p Kind selects which member is meaningful.
struct DecisionRecord {
  DecisionKind Kind = DecisionKind::EpochBegin;
  ObjectEpochRecord Object;     ///< Kind == ObjectEpoch.
  ChunkDecisionRecord Chunk;    ///< Kind == ChunkDecision.
  MigrationEventRecord Migration; ///< Kind == MigrationEvent.
  uint64_t Epoch = 0;           ///< Kind == EpochBegin.
  uint32_t NameId = 0;          ///< Kind == NameDef.
  std::string Name;             ///< Kind == NameDef.
};

/// A fully decoded decision-log file, in record order (trailer excluded).
struct DecisionArtifact {
  uint32_t Version = 0;
  std::vector<DecisionRecord> Records;
  /// Interned names by id (from the NameDef records).
  std::unordered_map<uint32_t, std::string> Names;
  /// Count the trailer claimed; HasTrailer false when the file was
  /// truncated before one was written.
  uint64_t TrailerCount = 0;
  bool HasTrailer = false;

  /// The interned name behind \p Id ("" when undefined).
  const std::string &name(uint32_t Id) const;
};

/// Aggregate counts the validator computes (for cross-checking against a
/// metrics snapshot and for quick reporting).
struct DecisionLogStats {
  uint64_t Epochs = 0;
  uint64_t Objects = 0;       ///< ObjectEpoch records.
  uint64_t Chunks = 0;        ///< ChunkDecision records.
  uint64_t PromotedChunks = 0; ///< ChunkDecision with the Promoted flag.
  uint64_t CommittedRanges = 0;
  uint64_t RolledBack = 0;
  uint64_t Retried = 0;
  uint64_t Skipped = 0;
  uint64_t Renominated = 0;
};

/// \name Low-level atdl-v1 codec
/// Shared by the file reader below and the ring recovery reader
/// (RingLog.h), so every sink speaks byte-identical record payloads.
/// @{

/// The 8-byte file header (magic "ATDL" + u32 version).
std::string decisionLogHeaderBytes();

/// Serializes one record as an (unframed) payload. For Trailer records
/// the claimed record count is taken from \p Rec.Epoch.
std::string encodeDecisionPayload(const DecisionRecord &Rec);

/// Decodes one record payload of \p Size bytes. \p ErrorOffset is the
/// payload's position in its container, used only in error messages. For
/// Trailer records the claimed count lands in \p Rec.Epoch.
bool decodeDecisionPayload(const uint8_t *Data, size_t Size,
                           size_t ErrorOffset, DecisionRecord &Rec,
                           std::string *Error = nullptr);
/// @}

/// Decodes \p Path into \p Out. False (with \p Error) on I/O failure, bad
/// magic/version, or a record that does not parse.
bool readDecisionLog(const std::string &Path, DecisionArtifact &Out,
                     std::string *Error = nullptr);

/// Validates structural invariants of a decoded artifact: EpochBegin ids
/// strictly increase; every other record carries the epoch of the latest
/// EpochBegin; name references resolve to a preceding NameDef; chunk and
/// migration records follow an ObjectEpoch for their (epoch, object), and
/// their chunk index or non-empty range lies inside that record's
/// NumChunks; phase, theta-winner and target bytes are inside their
/// enums; the trailer count matches the records actually present. Fills
/// \p Stats when non-null (also on success-only paths).
bool validateDecisionLog(const DecisionArtifact &Artifact,
                         std::string *Error = nullptr,
                         DecisionLogStats *Stats = nullptr);

/// Coarse health classification of a decision-log file. Produced by
/// diagnoseDecisionLog() and mapped onto distinct process exit codes by
/// tools/atmem_obs_check, so scripts can tell a torn log from a missing
/// one without parsing diagnostics.
enum class DecisionLogHealth : uint8_t {
  Ok = 0,     ///< Reads and validates cleanly.
  Empty,      ///< Zero bytes, or a bare header with no records at all.
  Headerless, ///< Too short for a header or wrong magic.
  Truncated,  ///< Cut mid-record, or complete records but no trailer.
  Corrupt,    ///< Structurally invalid (bad kind, references, version).
  Unreadable, ///< The file cannot be opened or read.
};

/// Human label for \p Health ("ok", "empty", "headerless", ...).
const char *decisionLogHealthName(DecisionLogHealth Health);

/// Classifies the file at \p Path, storing the underlying reader or
/// validator diagnostic in \p Detail when non-null.
DecisionLogHealth diagnoseDecisionLog(const std::string &Path,
                                      std::string *Detail = nullptr);

/// Cross-checks a validated artifact against an "atmem-metrics-v1"
/// document from the same run: committed ranges vs migrator.ranges,
/// rollbacks vs migration.rolled_back, retries vs migration.retries,
/// re-nominations vs migration.skipped_renominated, and promoted chunks
/// vs analyzer.chunks_estimated_critical. Counters absent from the
/// snapshot are treated as zero. False (with \p Error) on any mismatch.
bool crossCheckDecisionMetrics(const DecisionArtifact &Artifact,
                               const JsonValue &Metrics,
                               std::string *Error = nullptr);

/// Serializes \p Artifact as JSON lines (one record per line, names
/// resolved inline) — the import format of scripts/extract_results.py.
std::string decisionJsonl(const DecisionArtifact &Artifact);

/// Writes decisionJsonl() to \p Path; false on I/O failure.
bool writeDecisionJsonl(const DecisionArtifact &Artifact,
                        const std::string &Path,
                        std::string *Error = nullptr);

} // namespace obs
} // namespace atmem

#endif // ATMEM_OBS_DECISIONLOG_H
