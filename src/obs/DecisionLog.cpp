#include "obs/DecisionLog.h"

#include "obs/Json.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>

using namespace atmem;
using namespace atmem::obs;

std::atomic<bool> obs::detail::GDecisionLogOpen{false};

namespace {

constexpr char Magic[4] = {'A', 'T', 'D', 'L'};
constexpr uint32_t FormatVersion = 1;

//===----------------------------------------------------------------------===//
// Little-endian encoding helpers
//===----------------------------------------------------------------------===//

void putU8(std::string &Buf, uint8_t V) {
  Buf.push_back(static_cast<char>(V));
}

void putU32(std::string &Buf, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Buf, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putF64(std::string &Buf, double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Buf, Bits);
}

/// Bounds-checked little-endian decoder over one record payload.
struct Cursor {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;

  bool need(size_t N) {
    if (Pos + N > Size) {
      Ok = false;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!need(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
};

void encodeObject(std::string &Buf, const ObjectEpochRecord &R) {
  putU8(Buf, static_cast<uint8_t>(DecisionKind::ObjectEpoch));
  putU64(Buf, R.Epoch);
  putU32(Buf, R.Object);
  putU32(Buf, R.NameId);
  putU32(Buf, R.NumChunks);
  putU64(Buf, R.ChunkBytes);
  putU64(Buf, R.SamplePeriod);
  putF64(Buf, R.Weight);
  putU32(Buf, R.WeightRank);
  putU32(Buf, R.RankedObjects);
  putF64(Buf, R.TrThreshold);
  putF64(Buf, R.Theta);
  putF64(Buf, R.ThetaPercentile);
  putF64(Buf, R.ThetaDerivative);
  putF64(Buf, R.ThetaNoiseFloor);
  putU8(Buf, static_cast<uint8_t>(R.Winner));
  putU32(Buf, R.SampledCritical);
  putU32(Buf, R.PromotedCount);
}

void encodeChunk(std::string &Buf, const ChunkDecisionRecord &R) {
  putU8(Buf, static_cast<uint8_t>(DecisionKind::ChunkDecision));
  putU64(Buf, R.Epoch);
  putU32(Buf, R.Object);
  putU32(Buf, R.Chunk);
  putU64(Buf, R.Samples);
  putF64(Buf, R.EstimatedMisses);
  putF64(Buf, R.Priority);
  putU8(Buf, R.Flags);
  putF64(Buf, R.NodeTreeRatio);
}

void encodeMigration(std::string &Buf, const MigrationEventRecord &R) {
  putU8(Buf, static_cast<uint8_t>(DecisionKind::MigrationEvent));
  putU64(Buf, R.Epoch);
  putU32(Buf, R.Object);
  putU32(Buf, R.FirstChunk);
  putU32(Buf, R.NumChunks);
  putU8(Buf, R.TargetFast);
  putU8(Buf, static_cast<uint8_t>(R.Phase));
  putU32(Buf, R.FaultSiteNameId);
  putF64(Buf, R.Priority);
}

void setError(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
}

//===----------------------------------------------------------------------===//
// JSON formatting helpers (local: the exporter's are file-static too)
//===----------------------------------------------------------------------===//

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Hex[8];
        std::snprintf(Hex, sizeof(Hex), "\\u%04x", C);
        Out += Hex;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string jsonNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  // The strict parser has no inf/nan literals; clamp to null.
  if (std::strstr(Buf, "inf") || std::strstr(Buf, "nan"))
    return "null";
  return Buf;
}

} // namespace

const char *obs::decisionPhaseName(DecisionPhase Phase) {
  switch (Phase) {
  case DecisionPhase::Planned:
    return "planned";
  case DecisionPhase::Staged:
    return "staged";
  case DecisionPhase::Remapped:
    return "remapped";
  case DecisionPhase::Committed:
    return "committed";
  case DecisionPhase::RolledBack:
    return "rolled_back";
  case DecisionPhase::Retried:
    return "retried";
  case DecisionPhase::Degraded:
    return "degraded";
  case DecisionPhase::Skipped:
    return "skipped";
  case DecisionPhase::Renominated:
    return "renominated";
  }
  return "unknown";
}

const char *obs::thetaWinnerName(ThetaWinner Winner) {
  switch (Winner) {
  case ThetaWinner::Percentile:
    return "percentile";
  case ThetaWinner::Derivative:
    return "derivative";
  case ThetaWinner::NoiseFloor:
    return "noise_floor";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

/// The classic flat-file destination: length-prefixed records appended
/// with stdio, exactly the byte stream the pre-sink writer produced.
class FileSink : public DecisionSink {
public:
  FileSink(std::FILE *File, std::string Path)
      : File(File), Path(std::move(Path)) {}
  ~FileSink() override {
    if (File)
      std::fclose(File);
  }

  void append(const std::string &Payload) override {
    std::string Framed;
    Framed.reserve(Payload.size() + 4);
    putU32(Framed, static_cast<uint32_t>(Payload.size()));
    Framed += Payload;
    if (std::fwrite(Framed.data(), 1, Framed.size(), File) != Framed.size())
      WriteFailed = true;
  }

  bool finish(std::string *Error) override {
    bool Ok = !WriteFailed;
    if (std::fclose(File) != 0)
      Ok = false;
    File = nullptr;
    if (!Ok)
      setError(Error, "write failure on decision log '" + Path + "'");
    return Ok;
  }

  const std::string &path() const override { return Path; }

private:
  std::FILE *File;
  std::string Path;
  bool WriteFailed = false;
};

} // namespace

struct DecisionLog::Impl {
  std::mutex Mutex;
  std::unique_ptr<DecisionSink> Sink;
  uint64_t Epoch = 0;
  uint64_t RecordCount = 0;
  uint32_t NextNameId = 0;
  std::unordered_map<std::string, uint32_t> NameIds;

  /// Hands one record payload to the sink. Caller holds Mutex.
  void emit(const std::string &Payload) {
    Sink->append(Payload);
    ++RecordCount;
  }
};

DecisionLog &DecisionLog::instance() {
  static DecisionLog Log;
  return Log;
}

DecisionLog::Impl &DecisionLog::impl() {
  static Impl TheImpl;
  return TheImpl;
}

bool DecisionLog::open(const std::string &Path, std::string *Error) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (I.Sink)
    return true; // Already recording; share the open log.
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    setError(Error, "cannot open '" + Path + "' for writing");
    return false;
  }
  std::string Header = decisionLogHeaderBytes();
  if (std::fwrite(Header.data(), 1, Header.size(), File) != Header.size()) {
    std::fclose(File);
    setError(Error, "cannot write header to '" + Path + "'");
    return false;
  }
  I.Sink = std::make_unique<FileSink>(File, Path);
  I.Epoch = 0;
  I.RecordCount = 0;
  I.NextNameId = 0;
  I.NameIds.clear();
  detail::GDecisionLogOpen.store(true, std::memory_order_relaxed);
  return true;
}

bool DecisionLog::openSink(std::unique_ptr<DecisionSink> Sink) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (I.Sink)
    return true; // Already recording; share the open log.
  I.Sink = std::move(Sink);
  I.Epoch = 0;
  I.RecordCount = 0;
  I.NextNameId = 0;
  I.NameIds.clear();
  detail::GDecisionLogOpen.store(true, std::memory_order_relaxed);
  return true;
}

bool DecisionLog::close(std::string *Error) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (!I.Sink)
    return true;
  detail::GDecisionLogOpen.store(false, std::memory_order_relaxed);
  std::string Payload;
  putU8(Payload, static_cast<uint8_t>(DecisionKind::Trailer));
  putU64(Payload, I.RecordCount);
  I.emit(Payload);
  bool Ok = I.Sink->finish(Error);
  I.Sink.reset();
  return Ok;
}

bool DecisionLog::isOpen() const {
  Impl &I = const_cast<DecisionLog *>(this)->impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  return I.Sink != nullptr;
}

std::string DecisionLog::path() const {
  Impl &I = const_cast<DecisionLog *>(this)->impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  return I.Sink ? I.Sink->path() : std::string();
}

uint64_t DecisionLog::beginEpoch() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (!I.Sink)
    return 0;
  ++I.Epoch;
  std::string Payload;
  putU8(Payload, static_cast<uint8_t>(DecisionKind::EpochBegin));
  putU64(Payload, I.Epoch);
  I.emit(Payload);
  return I.Epoch;
}

uint32_t DecisionLog::nameId(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (!I.Sink)
    return 0;
  auto It = I.NameIds.find(Name);
  if (It != I.NameIds.end())
    return It->second;
  uint32_t Id = ++I.NextNameId;
  I.NameIds.emplace(Name, Id);
  std::string Payload;
  putU8(Payload, static_cast<uint8_t>(DecisionKind::NameDef));
  putU32(Payload, Id);
  putU32(Payload, static_cast<uint32_t>(Name.size()));
  Payload += Name;
  I.emit(Payload);
  return Id;
}

void DecisionLog::recordObject(const ObjectEpochRecord &Record) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (!I.Sink)
    return;
  ObjectEpochRecord Stamped = Record;
  Stamped.Epoch = I.Epoch;
  std::string Payload;
  encodeObject(Payload, Stamped);
  I.emit(Payload);
}

void DecisionLog::recordChunk(const ChunkDecisionRecord &Record) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (!I.Sink)
    return;
  ChunkDecisionRecord Stamped = Record;
  Stamped.Epoch = I.Epoch;
  std::string Payload;
  encodeChunk(Payload, Stamped);
  I.emit(Payload);
}

void DecisionLog::recordMigration(const MigrationEventRecord &Record) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (!I.Sink)
    return;
  MigrationEventRecord Stamped = Record;
  Stamped.Epoch = I.Epoch;
  std::string Payload;
  encodeMigration(Payload, Stamped);
  I.emit(Payload);
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

const std::string &DecisionArtifact::name(uint32_t Id) const {
  static const std::string Empty;
  auto It = Names.find(Id);
  return It == Names.end() ? Empty : It->second;
}

std::string obs::decisionLogHeaderBytes() {
  std::string Header(Magic, sizeof(Magic));
  putU32(Header, FormatVersion);
  return Header;
}

std::string obs::encodeDecisionPayload(const DecisionRecord &Rec) {
  std::string Payload;
  switch (Rec.Kind) {
  case DecisionKind::NameDef:
    putU8(Payload, static_cast<uint8_t>(DecisionKind::NameDef));
    putU32(Payload, Rec.NameId);
    putU32(Payload, static_cast<uint32_t>(Rec.Name.size()));
    Payload += Rec.Name;
    break;
  case DecisionKind::EpochBegin:
    putU8(Payload, static_cast<uint8_t>(DecisionKind::EpochBegin));
    putU64(Payload, Rec.Epoch);
    break;
  case DecisionKind::ObjectEpoch:
    encodeObject(Payload, Rec.Object);
    break;
  case DecisionKind::ChunkDecision:
    encodeChunk(Payload, Rec.Chunk);
    break;
  case DecisionKind::MigrationEvent:
    encodeMigration(Payload, Rec.Migration);
    break;
  case DecisionKind::Trailer:
    putU8(Payload, static_cast<uint8_t>(DecisionKind::Trailer));
    putU64(Payload, Rec.Epoch);
    break;
  }
  return Payload;
}

bool obs::decodeDecisionPayload(const uint8_t *Data, size_t Size,
                                size_t ErrorOffset, DecisionRecord &Rec,
                                std::string *Error) {
  Cursor C{Data, Size};
  uint8_t Kind = C.u8();
  switch (static_cast<DecisionKind>(Kind)) {
  case DecisionKind::NameDef: {
    Rec.Kind = DecisionKind::NameDef;
    Rec.NameId = C.u32();
    uint32_t StrLen = C.u32();
    if (!C.need(StrLen)) {
      setError(Error, "truncated NameDef string");
      return false;
    }
    Rec.Name.assign(reinterpret_cast<const char *>(C.Data + C.Pos), StrLen);
    C.Pos += StrLen;
    break;
  }
  case DecisionKind::EpochBegin:
    Rec.Kind = DecisionKind::EpochBegin;
    Rec.Epoch = C.u64();
    break;
  case DecisionKind::ObjectEpoch: {
    Rec.Kind = DecisionKind::ObjectEpoch;
    ObjectEpochRecord &R = Rec.Object;
    R.Epoch = C.u64();
    R.Object = C.u32();
    R.NameId = C.u32();
    R.NumChunks = C.u32();
    R.ChunkBytes = C.u64();
    R.SamplePeriod = C.u64();
    R.Weight = C.f64();
    R.WeightRank = C.u32();
    R.RankedObjects = C.u32();
    R.TrThreshold = C.f64();
    R.Theta = C.f64();
    R.ThetaPercentile = C.f64();
    R.ThetaDerivative = C.f64();
    R.ThetaNoiseFloor = C.f64();
    R.Winner = static_cast<ThetaWinner>(C.u8());
    R.SampledCritical = C.u32();
    R.PromotedCount = C.u32();
    break;
  }
  case DecisionKind::ChunkDecision: {
    Rec.Kind = DecisionKind::ChunkDecision;
    ChunkDecisionRecord &R = Rec.Chunk;
    R.Epoch = C.u64();
    R.Object = C.u32();
    R.Chunk = C.u32();
    R.Samples = C.u64();
    R.EstimatedMisses = C.f64();
    R.Priority = C.f64();
    R.Flags = C.u8();
    R.NodeTreeRatio = C.f64();
    break;
  }
  case DecisionKind::MigrationEvent: {
    Rec.Kind = DecisionKind::MigrationEvent;
    MigrationEventRecord &R = Rec.Migration;
    R.Epoch = C.u64();
    R.Object = C.u32();
    R.FirstChunk = C.u32();
    R.NumChunks = C.u32();
    R.TargetFast = C.u8();
    R.Phase = static_cast<DecisionPhase>(C.u8());
    R.FaultSiteNameId = C.u32();
    R.Priority = C.f64();
    break;
  }
  case DecisionKind::Trailer:
    Rec.Kind = DecisionKind::Trailer;
    Rec.Epoch = C.u64();
    if (!C.Ok) {
      setError(Error, "truncated trailer");
      return false;
    }
    return true;
  default:
    setError(Error, "unknown record kind " + std::to_string(Kind) +
                        " at offset " + std::to_string(ErrorOffset));
    return false;
  }
  if (!C.Ok || C.Pos != C.Size) {
    setError(Error, "malformed record payload at offset " +
                        std::to_string(ErrorOffset));
    return false;
  }
  return true;
}

bool obs::readDecisionLog(const std::string &Path, DecisionArtifact &Out,
                          std::string *Error) {
  Out = DecisionArtifact();
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    setError(Error, "cannot open '" + Path + "'");
    return false;
  }
  std::string Bytes;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Bytes.append(Buf, N);
  bool ReadError = std::ferror(File) != 0;
  std::fclose(File);
  if (ReadError) {
    setError(Error, "I/O error reading '" + Path + "'");
    return false;
  }

  const auto *Data = reinterpret_cast<const uint8_t *>(Bytes.data());
  size_t Size = Bytes.size();
  if (Size < 8 || std::memcmp(Data, Magic, sizeof(Magic)) != 0) {
    setError(Error, "bad magic (not an ATDL decision log)");
    return false;
  }
  Cursor Head{Data + 4, 4};
  Out.Version = Head.u32();
  if (Out.Version != FormatVersion) {
    setError(Error,
             "unsupported version " + std::to_string(Out.Version));
    return false;
  }

  size_t Pos = 8;
  while (Pos < Size) {
    if (Pos + 4 > Size) {
      setError(Error, "truncated record length at offset " +
                          std::to_string(Pos));
      return false;
    }
    Cursor LenCur{Data + Pos, 4};
    uint32_t Len = LenCur.u32();
    Pos += 4;
    if (Len == 0 || Pos + Len > Size) {
      setError(Error, "truncated record payload at offset " +
                          std::to_string(Pos));
      return false;
    }
    DecisionRecord Rec;
    if (!decodeDecisionPayload(Data + Pos, Len, Pos, Rec, Error))
      return false;
    Pos += Len;
    if (Rec.Kind == DecisionKind::Trailer) {
      Out.TrailerCount = Rec.Epoch;
      Out.HasTrailer = true;
      if (Pos != Size) {
        setError(Error, "data after trailer");
        return false;
      }
      return true;
    }
    if (Rec.Kind == DecisionKind::NameDef)
      Out.Names[Rec.NameId] = Rec.Name;
    Out.Records.push_back(std::move(Rec));
  }
  // EOF without a trailer: the producer crashed or is still running. The
  // records read so far are returned; the validator reports it.
  return true;
}

//===----------------------------------------------------------------------===//
// Validator
//===----------------------------------------------------------------------===//

bool obs::validateDecisionLog(const DecisionArtifact &Artifact,
                              std::string *Error, DecisionLogStats *Stats) {
  DecisionLogStats Local;
  uint64_t CurrentEpoch = 0;
  bool SawEpoch = false;
  std::unordered_map<uint32_t, std::string> Defined;
  // Chunk count of every object with an ObjectEpoch record in the current
  // epoch, for reference and range checking of chunk and migration
  // records (which must carry the current epoch themselves).
  std::unordered_map<uint32_t, uint32_t> ObjectChunks;

  for (size_t I = 0; I < Artifact.Records.size(); ++I) {
    const DecisionRecord &Rec = Artifact.Records[I];
    auto fail = [&](const std::string &Why) {
      setError(Error, "record " + std::to_string(I) + ": " + Why);
      return false;
    };
    switch (Rec.Kind) {
    case DecisionKind::NameDef:
      if (Rec.NameId == 0)
        return fail("NameDef id 0 is reserved");
      if (!Defined.emplace(Rec.NameId, Rec.Name).second)
        return fail("duplicate NameDef id " + std::to_string(Rec.NameId));
      break;
    case DecisionKind::EpochBegin:
      if (SawEpoch && Rec.Epoch <= CurrentEpoch)
        return fail("epoch " + std::to_string(Rec.Epoch) +
                    " not above previous " + std::to_string(CurrentEpoch));
      CurrentEpoch = Rec.Epoch;
      SawEpoch = true;
      ObjectChunks.clear();
      ++Local.Epochs;
      break;
    case DecisionKind::ObjectEpoch: {
      const ObjectEpochRecord &R = Rec.Object;
      if (R.Epoch != CurrentEpoch)
        return fail("ObjectEpoch epoch " + std::to_string(R.Epoch) +
                    " outside current epoch " +
                    std::to_string(CurrentEpoch));
      if (R.NameId != 0 && !Defined.count(R.NameId))
        return fail("ObjectEpoch references undefined name id " +
                    std::to_string(R.NameId));
      if (static_cast<uint8_t>(R.Winner) >
          static_cast<uint8_t>(ThetaWinner::NoiseFloor))
        return fail("ObjectEpoch theta winner " +
                    std::to_string(static_cast<unsigned>(R.Winner)) +
                    " out of range");
      ObjectChunks[R.Object] = R.NumChunks;
      ++Local.Objects;
      break;
    }
    case DecisionKind::ChunkDecision: {
      const ChunkDecisionRecord &R = Rec.Chunk;
      if (R.Epoch != CurrentEpoch)
        return fail("ChunkDecision epoch mismatch");
      auto Obj = ObjectChunks.find(R.Object);
      if (Obj == ObjectChunks.end())
        return fail("ChunkDecision for object " +
                    std::to_string(R.Object) +
                    " without a preceding ObjectEpoch");
      if (R.Chunk >= Obj->second)
        return fail("ChunkDecision chunk " + std::to_string(R.Chunk) +
                    " outside the object's " +
                    std::to_string(Obj->second) + " chunks");
      ++Local.Chunks;
      if (R.Flags & DecisionChunkPromoted)
        ++Local.PromotedChunks;
      break;
    }
    case DecisionKind::MigrationEvent: {
      const MigrationEventRecord &R = Rec.Migration;
      if (R.Epoch != CurrentEpoch)
        return fail("MigrationEvent epoch mismatch");
      auto Obj = ObjectChunks.find(R.Object);
      if (Obj == ObjectChunks.end())
        return fail("MigrationEvent for object " +
                    std::to_string(R.Object) +
                    " without a preceding ObjectEpoch");
      // 64-bit end: a 32-bit FirstChunk + NumChunks could wrap back into
      // range.
      uint64_t End = static_cast<uint64_t>(R.FirstChunk) + R.NumChunks;
      if (R.NumChunks == 0 || End > Obj->second)
        return fail("MigrationEvent chunks [" +
                    std::to_string(R.FirstChunk) + "," +
                    std::to_string(End) + ") empty or outside the object's " +
                    std::to_string(Obj->second) + " chunks");
      if (R.TargetFast > 1)
        return fail("MigrationEvent target byte " +
                    std::to_string(R.TargetFast) + " out of range");
      if (static_cast<uint8_t>(R.Phase) >
          static_cast<uint8_t>(DecisionPhase::Renominated))
        return fail("MigrationEvent phase " +
                    std::to_string(static_cast<unsigned>(R.Phase)) +
                    " out of range");
      if (R.FaultSiteNameId != 0 && !Defined.count(R.FaultSiteNameId))
        return fail("MigrationEvent references undefined fault site id " +
                    std::to_string(R.FaultSiteNameId));
      switch (R.Phase) {
      case DecisionPhase::Committed:
        ++Local.CommittedRanges;
        break;
      case DecisionPhase::RolledBack:
        ++Local.RolledBack;
        break;
      case DecisionPhase::Retried:
        ++Local.Retried;
        break;
      case DecisionPhase::Skipped:
        ++Local.Skipped;
        break;
      case DecisionPhase::Renominated:
        ++Local.Renominated;
        break;
      default:
        break;
      }
      break;
    }
    case DecisionKind::Trailer:
      return fail("trailer embedded in the record stream");
    }
  }

  if (!Artifact.HasTrailer) {
    setError(Error, "missing trailer (truncated log)");
    if (Stats)
      *Stats = Local;
    return false;
  }
  if (Artifact.TrailerCount != Artifact.Records.size()) {
    setError(Error, "trailer claims " +
                        std::to_string(Artifact.TrailerCount) +
                        " records, file holds " +
                        std::to_string(Artifact.Records.size()));
    if (Stats)
      *Stats = Local;
    return false;
  }
  if (Stats)
    *Stats = Local;
  return true;
}

const char *obs::decisionLogHealthName(DecisionLogHealth Health) {
  switch (Health) {
  case DecisionLogHealth::Ok:
    return "ok";
  case DecisionLogHealth::Empty:
    return "empty";
  case DecisionLogHealth::Headerless:
    return "headerless";
  case DecisionLogHealth::Truncated:
    return "truncated";
  case DecisionLogHealth::Corrupt:
    return "corrupt";
  case DecisionLogHealth::Unreadable:
    return "unreadable";
  }
  return "unknown";
}

DecisionLogHealth obs::diagnoseDecisionLog(const std::string &Path,
                                           std::string *Detail) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    setError(Detail, "cannot open '" + Path + "'");
    return DecisionLogHealth::Unreadable;
  }
  // Probe size and magic first so empty and headerless files get their
  // own classes ahead of the reader's generic bad-magic error.
  char Head[8];
  size_t HeadN = std::fread(Head, 1, sizeof(Head), File);
  std::fclose(File);
  if (HeadN == 0) {
    setError(Detail, "file is empty");
    return DecisionLogHealth::Empty;
  }
  if (HeadN < sizeof(Head) || std::memcmp(Head, Magic, sizeof(Magic)) != 0) {
    setError(Detail, "missing ATDL header (not a decision log)");
    return DecisionLogHealth::Headerless;
  }

  DecisionArtifact Artifact;
  std::string Error;
  if (!readDecisionLog(Path, Artifact, &Error)) {
    setError(Detail, Error);
    // Every reader error about a record cut short carries the word
    // "truncated"; the rest is structural corruption (bad version,
    // unknown kind, malformed payload, data after trailer).
    return Error.find("truncated") != std::string::npos
               ? DecisionLogHealth::Truncated
               : DecisionLogHealth::Corrupt;
  }
  if (Artifact.Records.empty() && !Artifact.HasTrailer) {
    setError(Detail, "header only: no records and no trailer");
    return DecisionLogHealth::Empty;
  }
  if (!validateDecisionLog(Artifact, &Error)) {
    setError(Detail, Error);
    return Artifact.HasTrailer ? DecisionLogHealth::Corrupt
                               : DecisionLogHealth::Truncated;
  }
  setError(Detail, "ok");
  return DecisionLogHealth::Ok;
}

bool obs::crossCheckDecisionMetrics(const DecisionArtifact &Artifact,
                                    const JsonValue &Metrics,
                                    std::string *Error) {
  DecisionLogStats Stats;
  if (!validateDecisionLog(Artifact, Error, &Stats))
    return false;
  const JsonValue *Counters = Metrics.find("counters");
  auto counter = [&](const char *Name) -> uint64_t {
    if (!Counters)
      return 0;
    const JsonValue *V = Counters->findNumber(Name);
    return V ? static_cast<uint64_t>(V->NumberVal) : 0;
  };
  struct Check {
    const char *Counter;
    uint64_t LogCount;
  };
  const Check Checks[] = {
      {"migrator.ranges", Stats.CommittedRanges},
      {"migration.rolled_back", Stats.RolledBack},
      {"migration.retries", Stats.Retried},
      {"migration.skipped_renominated", Stats.Renominated},
      {"analyzer.chunks_estimated_critical", Stats.PromotedChunks},
  };
  for (const Check &C : Checks) {
    uint64_t FromMetrics = counter(C.Counter);
    if (FromMetrics != C.LogCount) {
      setError(Error, std::string("counter ") + C.Counter + " = " +
                          std::to_string(FromMetrics) +
                          " but the decision log records " +
                          std::to_string(C.LogCount));
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// JSONL export
//===----------------------------------------------------------------------===//

std::string obs::decisionJsonl(const DecisionArtifact &Artifact) {
  std::string Out;
  char Line[256];
  for (const DecisionRecord &Rec : Artifact.Records) {
    switch (Rec.Kind) {
    case DecisionKind::NameDef:
      Out += "{\"kind\":\"name\",\"id\":" + std::to_string(Rec.NameId) +
             ",\"name\":\"" + jsonEscape(Rec.Name) + "\"}\n";
      break;
    case DecisionKind::EpochBegin:
      Out += "{\"kind\":\"epoch\",\"epoch\":" + std::to_string(Rec.Epoch) +
             "}\n";
      break;
    case DecisionKind::ObjectEpoch: {
      const ObjectEpochRecord &R = Rec.Object;
      std::snprintf(Line, sizeof(Line),
                    "{\"kind\":\"object\",\"epoch\":%" PRIu64
                    ",\"object\":%u,\"name\":\"%s\",\"chunks\":%u,"
                    "\"chunk_bytes\":%" PRIu64 ",\"period\":%" PRIu64 ",",
                    R.Epoch, R.Object,
                    jsonEscape(Artifact.name(R.NameId)).c_str(),
                    R.NumChunks, R.ChunkBytes, R.SamplePeriod);
      Out += Line;
      Out += "\"weight\":" + jsonNumber(R.Weight) +
             ",\"weight_rank\":" + std::to_string(R.WeightRank) +
             ",\"ranked_objects\":" + std::to_string(R.RankedObjects) +
             ",\"tr_threshold\":" + jsonNumber(R.TrThreshold) +
             ",\"theta\":" + jsonNumber(R.Theta) +
             ",\"theta_percentile\":" + jsonNumber(R.ThetaPercentile) +
             ",\"theta_derivative\":" + jsonNumber(R.ThetaDerivative) +
             ",\"theta_noise_floor\":" + jsonNumber(R.ThetaNoiseFloor) +
             ",\"theta_winner\":\"" + thetaWinnerName(R.Winner) +
             "\",\"sampled_critical\":" + std::to_string(R.SampledCritical) +
             ",\"promoted\":" + std::to_string(R.PromotedCount) + "}\n";
      break;
    }
    case DecisionKind::ChunkDecision: {
      const ChunkDecisionRecord &R = Rec.Chunk;
      std::snprintf(Line, sizeof(Line),
                    "{\"kind\":\"chunk\",\"epoch\":%" PRIu64
                    ",\"object\":%u,\"chunk\":%u,\"samples\":%" PRIu64 ",",
                    R.Epoch, R.Object, R.Chunk, R.Samples);
      Out += Line;
      Out += "\"estimated_misses\":" + jsonNumber(R.EstimatedMisses) +
             ",\"priority\":" + jsonNumber(R.Priority) +
             ",\"sampled_critical\":" +
             ((R.Flags & DecisionChunkSampledCritical) ? "true" : "false") +
             ",\"global_ranked\":" +
             ((R.Flags & DecisionChunkGlobalRanked) ? "true" : "false") +
             ",\"promoted\":" +
             ((R.Flags & DecisionChunkPromoted) ? "true" : "false") +
             ",\"node_tree_ratio\":" + jsonNumber(R.NodeTreeRatio) + "}\n";
      break;
    }
    case DecisionKind::MigrationEvent: {
      const MigrationEventRecord &R = Rec.Migration;
      std::snprintf(Line, sizeof(Line),
                    "{\"kind\":\"migration\",\"epoch\":%" PRIu64
                    ",\"object\":%u,\"first_chunk\":%u,\"num_chunks\":%u,",
                    R.Epoch, R.Object, R.FirstChunk, R.NumChunks);
      Out += Line;
      Out += std::string("\"target\":\"") +
             (R.TargetFast ? "fast" : "slow") + "\",\"phase\":\"" +
             decisionPhaseName(R.Phase) + "\",";
      if (R.FaultSiteNameId != 0)
        Out += "\"fault_site\":\"" +
               jsonEscape(Artifact.name(R.FaultSiteNameId)) + "\",";
      else
        Out += "\"fault_site\":null,";
      Out += "\"priority\":" + jsonNumber(R.Priority) + "}\n";
      break;
    }
    case DecisionKind::Trailer:
      break;
    }
  }
  return Out;
}

bool obs::writeDecisionJsonl(const DecisionArtifact &Artifact,
                             const std::string &Path, std::string *Error) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    setError(Error, "cannot open '" + Path + "' for writing");
    return false;
  }
  std::string Body = decisionJsonl(Artifact);
  bool Ok = std::fwrite(Body.data(), 1, Body.size(), File) == Body.size();
  if (std::fclose(File) != 0)
    Ok = false;
  if (!Ok)
    setError(Error, "write failure on '" + Path + "'");
  return Ok;
}
