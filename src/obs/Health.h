//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Online placement-health monitoring. Where the time series (TimeSeries.h)
/// records how a run evolved and the decision log records why each chunk
/// moved, the health layer judges the run *while it happens*: a set of
/// deterministic streaming detectors consumes the per-epoch EpochSample
/// stream plus the migration commit stream and classifies each epoch as
/// healthy, degraded, or broken — a slow-miss regression the EWMA+CUSUM
/// change-point catches, a migration storm, ping-pong re-migration of the
/// same chunks, an observability-overhead budget breach, or a stale
/// placement that stopped adapting while the slow tier keeps missing.
///
/// Detector verdicts surface three ways: severity-tagged events appended to
/// an "atmem-health-v1" JSONL log (HealthLog), per-run SLO verdicts in the
/// metrics export (health.slo.* gauges, health.events_* counters), and a
/// live "health" section of the atmem-stats-v1 snapshot that atmem_top
/// renders as a red/yellow/green panel. The same detector rules replay
/// offline over serialized artifacts through replayHealth(), which is what
/// tools/atmem_doctor builds its triage on — online and post-hoc analysis
/// can never disagree about the same stream.
///
/// Costs follow the telemetry discipline: a runtime without health
/// configured pays one pointer null check per epoch-cadence call site and
/// nothing on the access hot path; detectors themselves run at epoch
/// cadence only.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_OBS_HEALTH_H
#define ATMEM_OBS_HEALTH_H

#include "obs/TimeSeries.h"

#include <cstdint>
#include <string>
#include <vector>

namespace atmem {
namespace obs {

struct DecisionArtifact;

/// Severity of one emitted health event.
enum class HealthSeverity : uint8_t { Info = 0, Warn = 1, Critical = 2 };

/// The streaming detectors (one state machine each).
enum class HealthDetector : uint8_t {
  SlowMissRegression = 0, ///< EWMA baseline + CUSUM on SlowMissFraction.
  MigrationStorm = 1,     ///< Ranges+retries+rollbacks spike over baseline.
  PingPong = 2,           ///< Same chunks re-migrating back and forth.
  OverheadBudget = 3,     ///< optimize() wall vs. iteration wall breach.
  StalePlacement = 4,     ///< No migrations while slow-miss stays high.
};

constexpr uint32_t NumHealthDetectors = 5;

/// Red/yellow/green verdict of one detector (and the per-run SLO).
enum class SloStatus : uint8_t { Green = 0, Yellow = 1, Red = 2 };

const char *healthSeverityName(HealthSeverity Severity);
const char *healthDetectorName(HealthDetector Detector);
const char *sloStatusName(SloStatus Status);
/// Inverse of healthDetectorName; false when \p Name is unknown.
bool healthDetectorFromName(const std::string &Name, HealthDetector &Out);
/// Inverse of healthSeverityName; false when \p Name is unknown.
bool healthSeverityFromName(const std::string &Name, HealthSeverity &Out);

/// One emitted health event. Events mark detector *state transitions*
/// (escalation, easing, recovery), never per-epoch repeats — the built-in
/// dedup that keeps a ten-epoch storm from writing ten identical lines.
struct HealthEvent {
  uint64_t Epoch = 0;
  HealthDetector Detector = HealthDetector::SlowMissRegression;
  HealthSeverity Severity = HealthSeverity::Info;
  /// The detector's decision variable at the transition (CUSUM sum, spike
  /// factor, flip count, overhead fraction, stale streak).
  double Value = 0.0;
  /// The threshold the decision variable crossed.
  double Threshold = 0.0;
  /// Human-readable context ("baseline 0.12", "object 3 chunk 17", ...).
  std::string Detail;
};

/// Detector tuning knobs. Every default is chosen so a healthy fig05-style
/// run stays silent; tests and atmem_doctor override via parseHealthKnobs.
struct HealthConfig {
  /// \name SlowMissRegression (EWMA baseline + one-sided CUSUM)
  /// @{
  /// EWMA smoothing factor for the SlowMissFraction baseline. The baseline
  /// freezes while the detector is non-green so a sustained regression
  /// cannot talk its way into the baseline.
  double EwmaAlpha = 0.3;
  /// CUSUM slack (the "K" allowance): per-epoch excess over baseline that
  /// is forgiven before the cumulative sum grows.
  double CusumSlack = 0.05;
  /// CUSUM decision thresholds (the "H" values).
  double CusumWarn = 0.15;
  double CusumCritical = 0.4;
  /// Epochs that only feed the baselines before any detection runs.
  uint32_t WarmupEpochs = 2;
  /// @}

  /// \name MigrationStorm
  /// Activity = MigrationRanges + Retries + Rollbacks per epoch, compared
  /// against its own EWMA baseline (floored at 1).
  /// @{
  double StormWarnFactor = 4.0;
  double StormCriticalFactor = 8.0;
  /// Absolute activity floor below which no spike is a storm.
  uint64_t StormMinRanges = 8;
  /// @}

  /// \name PingPong
  /// @{
  /// Sliding window (epochs) over which direction flips are counted.
  uint32_t PingPongWindowEpochs = 4;
  /// Direction flips of one chunk within the window for warn / critical.
  uint32_t PingPongWarnFlips = 3;
  uint32_t PingPongCriticalFlips = 5;
  /// @}

  /// \name OverheadBudget (OptimizeWallUs vs. IterationWallUs)
  /// @{
  double OverheadWarnFraction = 0.5;
  /// Critical is opt-in (default effectively disabled): wall-clock ratios
  /// on loaded CI hosts are too noisy to fail a job on by default.
  double OverheadCriticalFraction = 1e18;
  /// @}

  /// \name StalePlacement
  /// Consecutive epochs with zero migration ranges while SlowMissFraction
  /// stays at or above the floor.
  /// @{
  uint32_t StaleWarnEpochs = 3;
  uint32_t StaleCriticalEpochs = 6;
  double StaleSlowMissFraction = 0.5;
  /// @}
};

/// Parses a "knob=value,knob=value" override spec (knob names are the
/// snake_case field names: "ewma_alpha", "cusum_warn", "warmup_epochs",
/// "storm_warn_factor", "storm_critical_factor", "storm_min_ranges",
/// "pingpong_window", "pingpong_warn_flips", "pingpong_critical_flips",
/// "overhead_warn", "overhead_critical", "stale_warn_epochs",
/// "stale_critical_epochs", "stale_slow_miss", "cusum_slack",
/// "cusum_critical"). False (with \p Error) on an unknown
/// knob or a malformed value; \p Out is then unchanged.
bool parseHealthKnobs(const std::string &Spec, HealthConfig &Out,
                      std::string *Error = nullptr);

/// One-line knob grammar reminder for --help text.
const char *healthKnobsHelp();

/// The streaming detector engine. One monitor judges one runtime's epoch
/// stream (epoch ordinals and chunk identities are per-runtime, so
/// concurrent runtimes each own a monitor even when they share the
/// process-wide HealthLog). All methods are thread-safe; observeEpoch()
/// and noteMigration() run at epoch cadence on the optimize() thread,
/// snapshot() on the stats-socket accept thread.
class HealthMonitor {
public:
  explicit HealthMonitor(HealthConfig Config = HealthConfig());
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor &) = delete;
  HealthMonitor &operator=(const HealthMonitor &) = delete;

  /// Records a committed migration of [\p FirstChunk, +\p NumChunks) of
  /// \p Object (ping-pong input). Buffered and evaluated at the next
  /// observeEpoch(), which stamps the buffered moves with its epoch.
  void noteMigration(uint64_t Object, uint32_t FirstChunk, uint32_t NumChunks,
                     bool ToFast);

  /// Feeds one epoch boundary's sample through every detector and returns
  /// the events fired by state transitions (often empty).
  std::vector<HealthEvent> observeEpoch(const EpochSample &Sample);

  /// One detector's live state as served to the stats socket.
  struct DetectorState {
    SloStatus Status = SloStatus::Green; ///< Current verdict.
    SloStatus Worst = SloStatus::Green;  ///< Worst verdict this run (SLO).
    uint64_t Events = 0;                 ///< Events emitted so far.
    uint64_t LastEventEpoch = 0;         ///< Epoch of the latest event.
    double Value = 0.0;                  ///< Latest decision variable.
    std::string Detail;                  ///< Latest event detail.
  };

  struct Snapshot {
    SloStatus Overall = SloStatus::Green; ///< Worst current status.
    SloStatus WorstOverall = SloStatus::Green; ///< Worst ever (run SLO).
    DetectorState Detectors[NumHealthDetectors];
    uint64_t EventsInfo = 0;
    uint64_t EventsWarn = 0;
    uint64_t EventsCritical = 0;
    uint64_t LastEpoch = 0; ///< Epoch of the latest observeEpoch().
  };

  Snapshot snapshot() const;

  const HealthConfig &config() const { return Config; }

private:
  struct Impl;
  HealthConfig Config;
  Impl *I;
};

/// \name Process-wide default enable
/// The bench harness builds runtimes without the batch's TelemetryConfig
/// (mirroring how the time series is armed process-wide), so a batch that
/// wants live health arms this default; every Runtime constructed while it
/// is set builds its own monitor with the given config.
/// @{
void setHealthDefaultEnabled(bool On, const HealthConfig &Config = {});
bool healthDefaultEnabled();
HealthConfig healthDefaultConfig();
/// @}

/// The process-wide append-only "atmem-health-v1" JSONL event log. Shared
/// first-opener-wins like the decision log: several runtimes write to one
/// stream, exportIfConfigured() closes it. Emission is guarded by the
/// `obs.health_emit` fault site with graceful degradation — a fired fault
/// or a write failure drops the line, latches the `health.emit_failed`
/// counter, and never aborts or perturbs placement.
class HealthLog {
public:
  static HealthLog &instance();

  /// Opens \p Path and writes the schema header. A second open while a
  /// log is open is a no-op returning true. False on I/O failure.
  bool open(const std::string &Path, std::string *Error = nullptr);

  bool isOpen() const;
  std::string path() const;

  /// Appends one event line (no-op when closed; dropped when the
  /// obs.health_emit fault fires or the write fails).
  void append(const HealthEvent &Event);

  /// Flushes and closes. No-op returning true when nothing is open; false
  /// when any append along the way was dropped by an I/O failure (fault
  /// drops are degradation, not failure, and do not taint the close).
  bool close(std::string *Error = nullptr);

  /// Events dropped since open (fault-injected and I/O drops).
  uint64_t dropped() const;

private:
  HealthLog() = default;
  struct Impl;
  Impl &impl();
};

/// Serializes one event as a compact JSON object (no trailing newline).
std::string healthEventJson(const HealthEvent &Event);

/// Parses an "atmem-health-v1" JSONL document: schema header line, then
/// one event object per line. False (with \p Error) on a malformed header
/// or line; \p Out then holds the events parsed before the failure.
bool parseHealthLog(const std::string &Text, std::vector<HealthEvent> &Out,
                    std::string *Error = nullptr);

//===----------------------------------------------------------------------===//
// Offline replay (atmem_doctor)
//===----------------------------------------------------------------------===//

/// The offline replay's verdict over one run segment.
struct HealthReport {
  std::vector<HealthEvent> Events;
  SloStatus Overall = SloStatus::Green; ///< Worst verdict in the segment.
  SloStatus Worst[NumHealthDetectors] = {};
  uint64_t Epochs = 0;
};

/// Replays the streaming detectors over a serialized epoch stream, exactly
/// as the online monitor would have judged it. \p Artifact, when non-null,
/// supplies the per-epoch committed-migration events for the ping-pong
/// detector (sample epoch N reads artifact epoch \p ArtifactEpochBase + N);
/// without it ping-pong has no input and stays green.
HealthReport replayHealth(const HealthConfig &Config,
                          const std::vector<EpochSample> &Samples,
                          const DecisionArtifact *Artifact = nullptr,
                          uint64_t ArtifactEpochBase = 0);

} // namespace obs
} // namespace atmem

#endif // ATMEM_OBS_HEALTH_H
