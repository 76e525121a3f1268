#include "obs/DecisionExplain.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

using namespace atmem;
using namespace atmem::obs;

namespace {

std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

std::string fmt(const char *Format, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

/// The ObjectEpoch record of \p Object (by name) in \p Epoch, or the one
/// from the last epoch the object appears in when Epoch is -1.
const ObjectEpochRecord *findObjectEpoch(const DecisionArtifact &A,
                                         const std::string &Object,
                                         int64_t Epoch, bool *NameKnown) {
  const ObjectEpochRecord *Best = nullptr;
  if (NameKnown)
    *NameKnown = false;
  for (const DecisionRecord &Rec : A.Records) {
    if (Rec.Kind != DecisionKind::ObjectEpoch)
      continue;
    if (A.name(Rec.Object.NameId) != Object)
      continue;
    if (NameKnown)
      *NameKnown = true;
    if (Epoch >= 0) {
      if (Rec.Object.Epoch == static_cast<uint64_t>(Epoch))
        return &Rec.Object;
    } else if (!Best || Rec.Object.Epoch >= Best->Epoch) {
      Best = &Rec.Object;
    }
  }
  return Epoch >= 0 ? nullptr : Best;
}

const ChunkDecisionRecord *findChunk(const DecisionArtifact &A,
                                     uint64_t Epoch, uint32_t Object,
                                     uint32_t Chunk) {
  for (const DecisionRecord &Rec : A.Records)
    if (Rec.Kind == DecisionKind::ChunkDecision &&
        Rec.Chunk.Epoch == Epoch && Rec.Chunk.Object == Object &&
        Rec.Chunk.Chunk == Chunk)
      return &Rec.Chunk;
  return nullptr;
}

char phaseChar(const MigrationEventRecord &R) {
  switch (R.Phase) {
  case DecisionPhase::Committed:
    return R.TargetFast ? '#' : 'v';
  case DecisionPhase::Skipped:
  case DecisionPhase::RolledBack:
    return 'x';
  default:
    return 0;
  }
}

int precedence(char C) {
  switch (C) {
  case 'x':
    return 6;
  case '#':
    return 5;
  case 'v':
    return 4;
  case 'p':
    return 3;
  case 'g':
    return 2;
  case 's':
    return 1;
  default:
    return 0;
  }
}

char chunkChar(const ChunkDecisionRecord &R) {
  if (R.Flags & DecisionChunkPromoted)
    return 'p';
  if (R.Flags & DecisionChunkGlobalRanked)
    return 'g';
  if (R.Flags & DecisionChunkSampledCritical)
    return 's';
  return '.';
}

/// Per-epoch selected / committed-fast chunk sets of every object, keyed
/// by object name — the comparable essence of a run for diffing.
struct PlacementMap {
  // (epoch, object name) -> chunk sets.
  std::map<std::pair<uint64_t, std::string>, std::set<uint32_t>> Selected;
  std::map<std::pair<uint64_t, std::string>, std::set<uint32_t>> Committed;
};

PlacementMap placementOf(const DecisionArtifact &A) {
  PlacementMap Map;
  // Object id -> name per epoch (ids may differ between runs; names are
  // the stable join key).
  std::map<std::pair<uint64_t, uint32_t>, std::string> IdName;
  for (const DecisionRecord &Rec : A.Records) {
    if (Rec.Kind == DecisionKind::ObjectEpoch) {
      IdName[{Rec.Object.Epoch, Rec.Object.Object}] =
          A.name(Rec.Object.NameId);
      // Materialize the key so objects with no selected chunks still
      // participate in the diff.
      Map.Selected[{Rec.Object.Epoch, A.name(Rec.Object.NameId)}];
    } else if (Rec.Kind == DecisionKind::ChunkDecision) {
      const ChunkDecisionRecord &R = Rec.Chunk;
      if (R.Flags != 0)
        Map.Selected[{R.Epoch, IdName[{R.Epoch, R.Object}]}].insert(
            R.Chunk);
    } else if (Rec.Kind == DecisionKind::MigrationEvent) {
      const MigrationEventRecord &R = Rec.Migration;
      if (R.Phase == DecisionPhase::Committed && R.TargetFast)
        for (uint32_t C = R.FirstChunk; C < R.FirstChunk + R.NumChunks;
             ++C)
          Map.Committed[{R.Epoch, IdName[{R.Epoch, R.Object}]}].insert(C);
    }
  }
  return Map;
}

std::string describeSetDiff(const std::set<uint32_t> &From,
                            const std::set<uint32_t> &To) {
  std::vector<uint32_t> Added, Removed;
  for (uint32_t C : To)
    if (!From.count(C))
      Added.push_back(C);
  for (uint32_t C : From)
    if (!To.count(C))
      Removed.push_back(C);
  auto preview = [](const std::vector<uint32_t> &Chunks) {
    std::string Out;
    for (size_t I = 0; I < Chunks.size() && I < 8; ++I)
      Out += (I ? "," : "") + std::to_string(Chunks[I]);
    if (Chunks.size() > 8)
      Out += ",...";
    return Out;
  };
  std::string Out;
  if (!Added.empty())
    Out += fmt("+%zu chunks only in B (%s)", Added.size(),
               preview(Added).c_str());
  if (!Removed.empty())
    Out += fmt("%s-%zu chunks only in A (%s)", Out.empty() ? "" : ", ",
               Removed.size(), preview(Removed).c_str());
  return Out;
}

} // namespace

bool obs::explainChunk(const DecisionArtifact &Artifact,
                       const WhyQuery &Query, std::string &Out,
                       std::string *Error) {
  bool NameKnown = false;
  const ObjectEpochRecord *Obj =
      findObjectEpoch(Artifact, Query.Object, Query.Epoch, &NameKnown);
  if (!Obj) {
    if (Error)
      *Error = NameKnown
                   ? "object '" + Query.Object + "' has no record in epoch " +
                         std::to_string(Query.Epoch)
                   : "object '" + Query.Object + "' never appears in the log";
    return false;
  }
  if (Query.Chunk >= Obj->NumChunks) {
    if (Error)
      *Error = "chunk " + std::to_string(Query.Chunk) +
               " out of range (object has " +
               std::to_string(Obj->NumChunks) + " chunks)";
    return false;
  }

  Out.clear();
  Out += fmt("object '%s' (id %u) chunk %u, epoch %" PRIu64 ":\n",
             Query.Object.c_str(), Obj->Object, Query.Chunk, Obj->Epoch);

  const ChunkDecisionRecord *Chunk =
      findChunk(Artifact, Obj->Epoch, Obj->Object, Query.Chunk);
  if (Chunk) {
    Out += fmt("  sampling: %" PRIu64 " samples (period %" PRIu64
               ") -> %.6g estimated misses over %" PRIu64 " B\n",
               Chunk->Samples, Obj->SamplePeriod, Chunk->EstimatedMisses,
               Obj->ChunkBytes);
    Out += fmt("  Eq.1 PR = %.6g misses/B\n", Chunk->Priority);
  } else {
    Out += "  sampling: no samples recorded (cold chunk)\n";
    Out += "  Eq.1 PR = 0\n";
  }
  Out += fmt("  Eq.2 theta = %.6g  [winner: %s]\n", Obj->Theta,
             thetaWinnerName(Obj->Winner));
  Out += fmt("      percentile term  = %.6g\n", Obj->ThetaPercentile);
  Out += fmt("      derivative cut   = %.6g\n", Obj->ThetaDerivative);
  Out += fmt("      noise floor      = %.6g\n", Obj->ThetaNoiseFloor);
  bool Sampled = Chunk && (Chunk->Flags & DecisionChunkSampledCritical);
  bool Global = Chunk && (Chunk->Flags & DecisionChunkGlobalRanked);
  bool Promoted = Chunk && (Chunk->Flags & DecisionChunkPromoted);
  if (Sampled)
    Out += "  Eq.3 PR > theta -> sampled critical (CAT = 1)\n";
  else if (Chunk)
    Out += "  Eq.3 PR <= theta -> not locally critical\n";
  else
    Out += "  Eq.3 no evidence -> not locally critical\n";
  Out += Global ? "  global ranking: pooled log-density cut flipped this "
                  "chunk critical\n"
                : "  global ranking: did not change this chunk\n";
  if (Obj->WeightRank != 0)
    Out += fmt("  Eq.4 weight W = %.6g (rank %u of %u weighted objects)\n",
               Obj->Weight, Obj->WeightRank, Obj->RankedObjects);
  else
    Out += "  Eq.4 weight W = 0 (no critical chunks; object unranked)\n";
  if (Obj->TrThreshold > 1.0)
    Out += fmt("  Eq.5 TR' = %.6g (clamped above 1: this object can never "
               "promote)\n",
               Obj->TrThreshold);
  else
    Out += fmt("  Eq.5 TR' = %.6g\n", Obj->TrThreshold);
  if (Promoted)
    Out += fmt("  tree: covering node TR = %.6g >= TR' -> promoted "
               "(estimated critical)\n",
               Chunk->NodeTreeRatio);
  else if (Chunk && Chunk->NodeTreeRatio > 0.0 && !Sampled && !Global)
    Out += fmt("  tree: deepest examined node TR = %.6g < TR' -> not "
               "promoted\n",
               Chunk->NodeTreeRatio);
  else if (Sampled || Global)
    Out += "  tree: chunk already critical; promotion not needed\n";
  else
    Out += "  tree: walk did not reach this chunk (no promotion)\n";

  // Migration lifecycle covering this chunk, in record order.
  bool AnyEvent = false;
  for (const DecisionRecord &Rec : Artifact.Records) {
    if (Rec.Kind != DecisionKind::MigrationEvent)
      continue;
    const MigrationEventRecord &R = Rec.Migration;
    if (R.Epoch != Obj->Epoch || R.Object != Obj->Object)
      continue;
    if (Query.Chunk < R.FirstChunk ||
        Query.Chunk >= R.FirstChunk + R.NumChunks)
      continue;
    if (!AnyEvent) {
      Out += "  migration:\n";
      AnyEvent = true;
    }
    Out += fmt("    %-11s chunks [%u,%u) -> %s", decisionPhaseName(R.Phase),
               R.FirstChunk, R.FirstChunk + R.NumChunks,
               R.TargetFast ? "fast" : "slow");
    if (R.FaultSiteNameId != 0)
      Out += fmt("  [fault site: %s]",
                 Artifact.name(R.FaultSiteNameId).c_str());
    if (R.Priority > 0.0)
      Out += fmt("  (priority %.6g)", R.Priority);
    Out += "\n";
  }
  if (!AnyEvent)
    Out += "  migration: no lifecycle events cover this chunk this epoch\n";
  return true;
}

std::string obs::renderHeatmap(const DecisionArtifact &Artifact,
                               const std::string &Object,
                               uint32_t MaxColumns) {
  if (MaxColumns == 0)
    MaxColumns = 1;
  // Epoch -> (object id, chunk count) for this object.
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> Epochs;
  for (const DecisionRecord &Rec : Artifact.Records)
    if (Rec.Kind == DecisionKind::ObjectEpoch &&
        Artifact.name(Rec.Object.NameId) == Object)
      Epochs[Rec.Object.Epoch] = {Rec.Object.Object,
                                  Rec.Object.NumChunks};
  if (Epochs.empty())
    return "object '" + Object + "' never appears in the log\n";

  uint32_t NumChunks = 0;
  for (const auto &[Epoch, Info] : Epochs)
    NumChunks = std::max(NumChunks, Info.second);
  uint32_t PerColumn = (NumChunks + MaxColumns - 1) / MaxColumns;
  PerColumn = std::max(PerColumn, 1u);
  uint32_t Columns = (NumChunks + PerColumn - 1) / PerColumn;

  std::string Out =
      fmt("object '%s': %u chunks, %u chunk%s per column\n",
          Object.c_str(), NumChunks, PerColumn, PerColumn == 1 ? "" : "s");
  Out += "legend: '#' committed fast, 'v' committed slow, 'x' "
         "skipped/rolled back,\n        'p' promoted, 'g' global-ranked, "
         "'s' sampled critical, '.' cold\n";
  for (const auto &[Epoch, Info] : Epochs) {
    std::vector<char> Cells(NumChunks, '.');
    for (const DecisionRecord &Rec : Artifact.Records) {
      if (Rec.Kind == DecisionKind::ChunkDecision &&
          Rec.Chunk.Epoch == Epoch && Rec.Chunk.Object == Info.first &&
          Rec.Chunk.Chunk < NumChunks) {
        char C = chunkChar(Rec.Chunk);
        if (precedence(C) > precedence(Cells[Rec.Chunk.Chunk]))
          Cells[Rec.Chunk.Chunk] = C;
      } else if (Rec.Kind == DecisionKind::MigrationEvent &&
                 Rec.Migration.Epoch == Epoch &&
                 Rec.Migration.Object == Info.first) {
        char C = phaseChar(Rec.Migration);
        if (C == 0)
          continue;
        uint32_t End = std::min(
            Rec.Migration.FirstChunk + Rec.Migration.NumChunks, NumChunks);
        for (uint32_t Chunk = Rec.Migration.FirstChunk; Chunk < End;
             ++Chunk)
          if (precedence(C) > precedence(Cells[Chunk]))
            Cells[Chunk] = C;
      }
    }
    std::string Row;
    for (uint32_t Col = 0; Col < Columns; ++Col) {
      char Best = '.';
      for (uint32_t Chunk = Col * PerColumn;
           Chunk < std::min((Col + 1) * PerColumn, NumChunks); ++Chunk)
        if (precedence(Cells[Chunk]) > precedence(Best))
          Best = Cells[Chunk];
      Row += Best;
    }
    Out += fmt("epoch %3" PRIu64 " |%s|\n", Epoch, Row.c_str());
  }
  return Out;
}

std::string obs::diffDecisions(const DecisionArtifact &A,
                               const DecisionArtifact &B) {
  PlacementMap MapA = placementOf(A);
  PlacementMap MapB = placementOf(B);
  std::string Out;
  uint64_t Differences = 0;

  std::set<std::pair<uint64_t, std::string>> Keys;
  for (const auto &[Key, Chunks] : MapA.Selected)
    Keys.insert(Key);
  for (const auto &[Key, Chunks] : MapB.Selected)
    Keys.insert(Key);

  for (const auto &Key : Keys) {
    const auto &[Epoch, Name] = Key;
    bool InA = MapA.Selected.count(Key);
    bool InB = MapB.Selected.count(Key);
    if (InA != InB) {
      Out += fmt("epoch %" PRIu64 " object '%s': only in run %s\n", Epoch,
                 Name.c_str(), InA ? "A" : "B");
      ++Differences;
      continue;
    }
    std::string SelDiff =
        describeSetDiff(MapA.Selected[Key], MapB.Selected[Key]);
    if (!SelDiff.empty()) {
      Out += fmt("epoch %" PRIu64 " object '%s' selection: %s\n", Epoch,
                 Name.c_str(), SelDiff.c_str());
      ++Differences;
    }
    std::string ComDiff =
        describeSetDiff(MapA.Committed[Key], MapB.Committed[Key]);
    if (!ComDiff.empty()) {
      Out += fmt("epoch %" PRIu64 " object '%s' committed-to-fast: %s\n",
                 Epoch, Name.c_str(), ComDiff.c_str());
      ++Differences;
    }
  }
  Out += Differences == 0
             ? "placement decisions identical\n"
             : fmt("%" PRIu64 " difference%s\n", Differences,
                   Differences == 1 ? "" : "s");
  return Out;
}

std::string obs::summarizeDecisions(const DecisionArtifact &Artifact) {
  DecisionLogStats Stats;
  std::string Error;
  bool Valid = validateDecisionLog(Artifact, &Error, &Stats);
  std::string Out;
  Out += fmt("decision log: %zu records, %" PRIu64 " epochs, %" PRIu64
             " object-epochs, %" PRIu64 " chunk decisions\n",
             Artifact.Records.size(), Stats.Epochs, Stats.Objects,
             Stats.Chunks);
  if (!Valid)
    Out += "warning: " + Error + "\n";
  Out += fmt("promoted chunks: %" PRIu64 "; committed ranges: %" PRIu64
             "; retried: %" PRIu64 "; rolled back: %" PRIu64
             "; skipped: %" PRIu64 "; renominated: %" PRIu64 "\n",
             Stats.PromotedChunks, Stats.CommittedRanges, Stats.Retried,
             Stats.RolledBack, Stats.Skipped, Stats.Renominated);
  for (const DecisionRecord &Rec : Artifact.Records) {
    if (Rec.Kind != DecisionKind::ObjectEpoch)
      continue;
    const ObjectEpochRecord &R = Rec.Object;
    Out += fmt("epoch %" PRIu64 " object '%s': %u chunks, theta %.4g (%s), "
               "W %.4g (rank %u/%u), TR' %.4g, sampled %u, promoted %u\n",
               R.Epoch, Artifact.name(R.NameId).c_str(), R.NumChunks,
               R.Theta, thetaWinnerName(R.Winner), R.Weight, R.WeightRank,
               R.RankedObjects, R.TrThreshold, R.SampledCritical,
               R.PromotedCount);
  }
  return Out;
}
