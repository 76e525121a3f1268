#include "analyzer/RankerPolicy.h"

#include "fault/FaultInjection.h"
#include "obs/Json.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace atmem;
using namespace atmem::analyzer;

static const char *const RankerFeatureNames[NumRankerFeatures] = {
    "bias",          "log_misses",  "log_samples",      "pr_over_theta",
    "sample_share",  "weight_rank", "log_weight",       "sampled_critical",
    "promoted",      "node_tree_ratio",
};

const char *atmem::analyzer::rankerFeatureName(size_t Index) {
  return Index < NumRankerFeatures ? RankerFeatureNames[Index] : "unknown";
}

const char *atmem::analyzer::rankerStatusName(RankerStatus Status) {
  switch (Status) {
  case RankerStatus::Applied:
    return "applied";
  case RankerStatus::ScoreFaulted:
    return "score_faulted";
  }
  return "unknown";
}

void atmem::analyzer::rankerFeatures(const RankerObjectContext &Obj,
                                     const RankerChunkContext &Chunk,
                                     double Out[NumRankerFeatures]) {
  for (size_t I = 0; I < NumRankerFeatures; ++I)
    Out[I] = 0.0;
  Out[RankerBias] = 1.0;
  // Object-level features are present for every chunk of a ranked object,
  // cold or not, mirroring the always-written ObjectEpoch record.
  if (Obj.RankedObjects > 0 && Obj.WeightRank > 0)
    Out[RankerWeightRank] =
        static_cast<double>(Obj.RankedObjects - Obj.WeightRank + 1) /
        static_cast<double>(Obj.RankedObjects);
  Out[RankerLogWeight] =
      std::log1p(Obj.Weight * static_cast<double>(Obj.ChunkBytes));
  // Chunk-level features vanish for chunks the flight recorder would omit
  // (cold: no samples, not critical, not promoted), so vectors built from
  // a live classification and from a decoded log agree exactly.
  if (Chunk.Samples == 0 && !Chunk.Critical && !Chunk.Promoted)
    return;
  Out[RankerLogMisses] = std::log1p(Chunk.EstimatedMisses);
  Out[RankerLogSamples] =
      std::log1p(static_cast<double>(Chunk.Samples));
  if (Obj.Theta > 0.0)
    Out[RankerPrOverTheta] = std::min(Chunk.Priority / Obj.Theta, 8.0);
  if (Obj.TotalSamples > 0)
    Out[RankerSampleShare] = static_cast<double>(Chunk.Samples) /
                             static_cast<double>(Obj.TotalSamples);
  Out[RankerSampledCritical] = Chunk.Critical ? 1.0 : 0.0;
  Out[RankerPromoted] = Chunk.Promoted ? 1.0 : 0.0;
  Out[RankerNodeTreeRatio] = Chunk.NodeTreeRatio;
}

RankerModel atmem::analyzer::heuristicMimicModel() {
  RankerModel Model;
  Model.Weights[RankerBias] = -0.5;
  Model.Weights[RankerSampledCritical] = 1.0;
  Model.Weights[RankerPromoted] = 1.0;
  return Model;
}

std::string RankerModel::toJson() const {
  std::string Out = "{\n  \"format\": \"";
  Out += Format;
  Out += "\",\n  \"features\": [";
  for (size_t I = 0; I < NumRankerFeatures; ++I) {
    if (I)
      Out += ", ";
    Out += '"';
    Out += rankerFeatureName(I);
    Out += '"';
  }
  Out += "],\n  \"weights\": [";
  char Buf[64];
  for (size_t I = 0; I < NumRankerFeatures; ++I) {
    if (I)
      Out += ", ";
    std::snprintf(Buf, sizeof(Buf), "%.17g", Weights[I]);
    Out += Buf;
  }
  Out += "],\n  \"threshold\": ";
  std::snprintf(Buf, sizeof(Buf), "%.17g", Threshold);
  Out += Buf;
  Out += "\n}\n";
  return Out;
}

bool atmem::analyzer::parseRankerModel(std::string_view Text,
                                       RankerModel &Out,
                                       std::string *Error) {
  auto fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  obs::JsonValue Doc;
  std::string ParseError;
  if (!obs::parseJson(Text, Doc, &ParseError))
    return fail("model is not valid JSON: " + ParseError);
  if (!Doc.isObject())
    return fail("model root is not a JSON object");
  const obs::JsonValue *Format = Doc.findString("format");
  if (!Format)
    return fail("model has no \"format\" string");
  if (Format->StringVal != RankerModel::Format)
    return fail("unsupported model format \"" + Format->StringVal +
                "\" (expected " + RankerModel::Format + ")");
  const obs::JsonValue *Features = Doc.find("features");
  if (Features) {
    if (!Features->isArray() ||
        Features->Array.size() != NumRankerFeatures)
      return fail("\"features\" must list the " +
                  std::to_string(NumRankerFeatures) +
                  " atmem-ranker-v1 feature names in order");
    for (size_t I = 0; I < NumRankerFeatures; ++I) {
      if (!Features->Array[I].isString() ||
          Features->Array[I].StringVal != rankerFeatureName(I))
        return fail("feature " + std::to_string(I) + " must be \"" +
                    rankerFeatureName(I) + "\"");
    }
  }
  const obs::JsonValue *Weights = Doc.find("weights");
  if (!Weights || !Weights->isArray())
    return fail("model has no \"weights\" array");
  if (Weights->Array.size() != NumRankerFeatures)
    return fail("\"weights\" has " + std::to_string(Weights->Array.size()) +
                " entries, expected " + std::to_string(NumRankerFeatures));
  RankerModel Parsed;
  for (size_t I = 0; I < NumRankerFeatures; ++I) {
    const obs::JsonValue &W = Weights->Array[I];
    if (!W.isNumber() || !std::isfinite(W.NumberVal))
      return fail("weight " + std::to_string(I) + " (" +
                  rankerFeatureName(I) + ") is not a finite number");
    Parsed.Weights[I] = W.NumberVal;
  }
  if (const obs::JsonValue *Thr = Doc.find("threshold")) {
    if (!Thr->isNumber() || !std::isfinite(Thr->NumberVal))
      return fail("\"threshold\" is not a finite number");
    Parsed.Threshold = Thr->NumberVal;
  }
  Out = Parsed;
  return true;
}

bool atmem::analyzer::loadRankerModel(const std::string &Path,
                                      RankerModel &Out,
                                      std::string *Error) {
  static fault::Site LoadSite("ranker.model_load");
  static obs::Counter LoadFailed("ranker.model_load_failed");
  auto fail = [&](const std::string &Msg) {
    LoadFailed.add(1);
    if (Error)
      *Error = Msg;
    return false;
  };
  if (LoadSite.shouldFail())
    return fail("injected fault at ranker.model_load");
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return fail("cannot open ranker model " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return fail("cannot read ranker model " + Path);
  std::string ParseError;
  if (!parseRankerModel(Buf.str(), Out, &ParseError))
    return fail(Path + ": " + ParseError);
  return true;
}

std::vector<uint32_t> atmem::analyzer::rankerWeightRanks(
    const std::vector<PromotionResult> &Promotions, uint32_t *RankedObjects) {
  std::vector<size_t> Order;
  for (size_t I = 0; I < Promotions.size(); ++I)
    if (Promotions[I].Weight > 0.0)
      Order.push_back(I);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Promotions[A].Weight > Promotions[B].Weight;
  });
  std::vector<uint32_t> Rank(Promotions.size(), 0);
  for (size_t R = 0; R < Order.size(); ++R)
    Rank[Order[R]] = static_cast<uint32_t>(R + 1);
  if (RankedObjects)
    *RankedObjects = static_cast<uint32_t>(Order.size());
  return Rank;
}

RankerApplyResult RankerPolicy::apply(
    std::vector<LocalSelection> &Selections,
    std::vector<PromotionResult> &Promotions,
    const std::vector<std::vector<uint64_t>> &Samples,
    const std::vector<std::vector<double>> &EstimatedMisses,
    const std::vector<uint64_t> &ChunkBytes,
    std::vector<std::vector<uint8_t>> *GlobalFlipped) const {
  static fault::Site ScoreSite("ranker.score");
  static obs::Counter ScoreFaulted("ranker.score_faulted");
  static obs::Counter ChunksFlipped("ranker.chunks_flipped");

  RankerApplyResult Result;
  uint32_t RankedObjects = 0;
  std::vector<uint32_t> Ranks = rankerWeightRanks(Promotions, &RankedObjects);

  // Score everything against a snapshot of the heuristic verdicts before
  // mutating a single flag: scores must not observe earlier overrides, and
  // an injected scoring fault must leave the heuristic plan untouched.
  std::vector<std::vector<uint8_t>> Verdicts(Selections.size());
  double Features[NumRankerFeatures];
  for (size_t I = 0; I < Selections.size(); ++I) {
    const LocalSelection &Sel = Selections[I];
    const PromotionResult &Promo = Promotions[I];
    if (ScoreSite.shouldFail()) {
      ScoreFaulted.add(1);
      Result.Status = RankerStatus::ScoreFaulted;
      return Result;
    }
    RankerObjectContext Obj;
    Obj.ChunkBytes = I < ChunkBytes.size() ? ChunkBytes[I] : 0;
    Obj.Theta = Sel.Theta;
    Obj.Weight = Promo.Weight;
    Obj.WeightRank = Ranks[I];
    Obj.RankedObjects = RankedObjects;
    static const std::vector<uint64_t> NoSamples;
    static const std::vector<double> NoMisses;
    const std::vector<uint64_t> &ObjSamples =
        I < Samples.size() ? Samples[I] : NoSamples;
    const std::vector<double> &ObjMisses =
        I < EstimatedMisses.size() ? EstimatedMisses[I] : NoMisses;
    for (uint64_t S : ObjSamples)
      Obj.TotalSamples += S;

    size_t N = Sel.Priority.size();
    Verdicts[I].assign(N, 0);
    for (size_t C = 0; C < N; ++C) {
      RankerChunkContext Chunk;
      Chunk.Samples = C < ObjSamples.size() ? ObjSamples[C] : 0;
      Chunk.Priority = Sel.Priority[C];
      Chunk.EstimatedMisses = C < ObjMisses.size() ? ObjMisses[C] : 0.0;
      Chunk.Critical = Sel.Critical[C] != 0;
      Chunk.Promoted =
          !Promo.Promoted.empty() && Promo.Promoted[C] != 0;
      Chunk.NodeTreeRatio =
          C < Promo.NodeTreeRatio.size() ? Promo.NodeTreeRatio[C] : 0.0;
      rankerFeatures(Obj, Chunk, Features);
      Verdicts[I][C] = Model.selects(Features) ? 1 : 0;
    }
  }

  // Commit: overridden selections land in the same flags the heuristic
  // uses, so every downstream consumer (plan builders, decision log,
  // telemetry) sees one consistent verdict.
  for (size_t I = 0; I < Selections.size(); ++I) {
    LocalSelection &Sel = Selections[I];
    PromotionResult &Promo = Promotions[I];
    if (Promo.Promoted.size() < Sel.Critical.size())
      Promo.Promoted.assign(Sel.Critical.size(), 0);
    for (size_t C = 0; C < Sel.Critical.size(); ++C) {
      bool Was = Sel.Critical[C] || Promo.Promoted[C];
      bool Now = Verdicts[I][C] != 0;
      if (Was == Now)
        continue;
      ++Result.FlippedChunks;
      if (Now) {
        Promo.Promoted[C] = 1;
        ++Promo.PromotedCount;
      } else {
        if (Sel.Critical[C]) {
          Sel.Critical[C] = 0;
          --Sel.CriticalCount;
        }
        if (Promo.Promoted[C]) {
          Promo.Promoted[C] = 0;
          --Promo.PromotedCount;
        }
        if (GlobalFlipped && I < GlobalFlipped->size() &&
            !(*GlobalFlipped)[I].empty())
          (*GlobalFlipped)[I][C] = 0;
      }
    }
  }
  ChunksFlipped.add(Result.FlippedChunks);
  return Result;
}
