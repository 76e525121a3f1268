#include "mem/DataObjectRegistry.h"

#include "fault/FaultInjection.h"
#include "support/Error.h"

#include <algorithm>

using namespace atmem;
using namespace atmem::mem;

namespace {

fault::Site AllocFault("addrspace.alloc");

} // namespace

DataObject &DataObjectRegistry::create(const std::string &Name,
                                       uint64_t SizeBytes,
                                       InitialPlacement Placement,
                                       uint64_t ChunkBytesOverride) {
  DataObject *Obj = tryCreate(Name, SizeBytes, Placement, ChunkBytesOverride);
  if (!Obj)
    reportFatalError("initial tier exhausted while registering " + Name);
  return *Obj;
}

DataObject *DataObjectRegistry::tryCreate(const std::string &Name,
                                          uint64_t SizeBytes,
                                          InitialPlacement Placement,
                                          uint64_t ChunkBytesOverride) {
  if (AllocFault.shouldFail())
    return nullptr;
  uint64_t ChunkBytes = ChunkBytesOverride != 0
                            ? ChunkBytesOverride
                            : adaptiveChunkBytes(SizeBytes);
  auto Id = static_cast<ObjectId>(Objects.size());
  uint64_t Va = Space.reserve(SizeBytes);
  auto Obj =
      std::make_unique<DataObject>(Id, Name, Va, SizeBytes, ChunkBytes);

  sim::PageTable &PT = M.pageTable();
  switch (Placement) {
  case InitialPlacement::Slow:
    if (!PT.mapRegion(Va, Obj->mappedBytes(), sim::TierId::Slow,
                      /*PreferHuge=*/true))
      return nullptr;
    Obj->setAllChunkTiers(sim::TierId::Slow);
    break;
  case InitialPlacement::Fast:
    if (!PT.mapRegion(Va, Obj->mappedBytes(), sim::TierId::Fast,
                      /*PreferHuge=*/true))
      return nullptr;
    Obj->setAllChunkTiers(sim::TierId::Fast);
    break;
  case InitialPlacement::PreferredFast:
  case InitialPlacement::Interleaved: {
    if (Placement == InitialPlacement::PreferredFast)
      PT.mapRegionPreferred(Va, Obj->mappedBytes(), sim::TierId::Fast,
                            /*PreferHuge=*/true);
    else
      PT.mapRegionInterleaved(Va, Obj->mappedBytes(), /*PreferHuge=*/true);
    // Record per-chunk tiers from the resulting mapping. Chunks of mixed
    // pages are attributed to their first page's tier; the access
    // engine's chunk-granular attribution is approximate for these
    // system policies, which do not maintain ATMem's chunk/page
    // alignment invariant.
    for (uint32_t C = 0; C < Obj->numChunks(); ++C) {
      auto [Begin, End] = Obj->rangeBytes({C, 1});
      (void)End;
      Obj->setChunkTier(C, PT.tierOf(Va + Begin));
    }
    break;
  }
  }
  DataObject *Ref = Obj.get();
  Objects.push_back(std::move(Obj));
  rebuildAttributionIndex();
  return Ref;
}

void DataObjectRegistry::destroy(ObjectId Id) {
  if (Id >= Objects.size() || !Objects[Id])
    reportFatalError("destroy of unknown data object");
  DataObject &Obj = *Objects[Id];
  M.pageTable().unmapRegion(Obj.va(), Obj.mappedBytes());
  Objects[Id].reset();
  rebuildAttributionIndex();
}

void DataObjectRegistry::rebuildAttributionIndex() {
  AttrIndex.clear();
  for (const auto &Obj : Objects)
    if (Obj)
      AttrIndex.push_back({Obj->va(), Obj->va() + Obj->mappedBytes(),
                           Obj->id(), Obj->chunkShift()});
  // The bump allocator hands out ascending, disjoint ranges, so the
  // registration-order walk above is already sorted; keep the sort as a
  // guard for any future address-space policy.
  std::sort(AttrIndex.begin(), AttrIndex.end(),
            [](const AttrInterval &A, const AttrInterval &B) {
              return A.Begin < B.Begin;
            });
}

bool DataObjectRegistry::attributeIndexed(uint64_t Va, Attribution &Out,
                                          AttributionHint &Hint) const {
  const AttrInterval *Iv = nullptr;
  if (Hint.Slot < AttrIndex.size()) {
    const AttrInterval &Cand = AttrIndex[Hint.Slot];
    if (Va >= Cand.Begin && Va < Cand.End)
      Iv = &Cand;
  }
  if (!Iv) {
    auto It = std::upper_bound(
        AttrIndex.begin(), AttrIndex.end(), Va,
        [](uint64_t V, const AttrInterval &I) { return V < I.Begin; });
    if (It == AttrIndex.begin())
      return false;
    --It;
    if (Va >= It->End)
      return false;
    Iv = &*It;
    Hint.Slot = static_cast<uint32_t>(It - AttrIndex.begin());
  }
  Out.Object = Iv->Object;
  Out.Chunk = static_cast<uint32_t>((Va - Iv->Begin) >> Iv->ChunkShift);
  return true;
}

DataObject &DataObjectRegistry::object(ObjectId Id) {
  if (Id >= Objects.size() || !Objects[Id])
    reportFatalError("lookup of unknown data object");
  return *Objects[Id];
}

const DataObject &DataObjectRegistry::object(ObjectId Id) const {
  if (Id >= Objects.size() || !Objects[Id])
    reportFatalError("lookup of unknown data object");
  return *Objects[Id];
}

std::vector<DataObject *> DataObjectRegistry::liveObjects() {
  std::vector<DataObject *> Live;
  for (auto &Obj : Objects)
    if (Obj)
      Live.push_back(Obj.get());
  return Live;
}

std::vector<const DataObject *> DataObjectRegistry::liveObjects() const {
  std::vector<const DataObject *> Live;
  for (const auto &Obj : Objects)
    if (Obj)
      Live.push_back(Obj.get());
  return Live;
}

uint64_t DataObjectRegistry::totalMappedBytes() const {
  uint64_t Total = 0;
  for (const auto &Obj : Objects)
    if (Obj)
      Total += Obj->mappedBytes();
  return Total;
}

uint64_t DataObjectRegistry::totalBytesOn(sim::TierId Tier) const {
  uint64_t Total = 0;
  for (const auto &Obj : Objects)
    if (Obj)
      Total += Obj->bytesOn(Tier);
  return Total;
}
