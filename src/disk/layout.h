// Logical-to-physical sector mapping.
//
// Maps the linear LBA space exposed by the drive onto (cylinder, head,
// sector) positions, applying per-zone track/cylinder skew to compute the
// physical rotational slot of each sector. Also models the address-space
// blemishes that the paper's calibration layer has to discover on real
// drives (Section 3.2 / Worthington et al.): reserved tracks at the start of
// the disk and bad sectors remapped to per-zone spare tracks.
//
// Terminology:
//  * `sector` in a Chs is the *logical* index within its track (0 .. SPT-1),
//    i.e. the order in which LBAs traverse the track.
//  * `slot` is the *physical* rotational position: slot / SPT of a revolution
//    past the index mark. Skew is the (per-track) rotation between the two.
#ifndef MIMDRAID_SRC_DISK_LAYOUT_H_
#define MIMDRAID_SRC_DISK_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/disk/geometry.h"

namespace mimdraid {

inline constexpr uint64_t kInvalidLba = UINT64_MAX;

struct Chs {
  uint32_t cylinder = 0;
  uint32_t head = 0;
  uint32_t sector = 0;  // logical index within the track

  bool operator==(const Chs&) const = default;
};

class DiskLayout;

// An LBA's physical position, resolved ahead of the scheduling hot path: the
// Chs plus what the timing model reads next — the track's sectors-per-track
// and the rotational angle at which the sector's slot begins (exactly
// SlotOf / SPT). Tagged with the layout it was resolved against; a default
// (untagged) position stands for "not resolved".
struct ResolvedPosition {
  const DiskLayout* layout = nullptr;
  Chs chs;
  uint32_t sectors_per_track = 0;
  double angle = 0.0;
};

class DiskLayout {
 public:
  // `reserved_tracks` are removed from the front of zone 0 (drive-internal
  // data); `spare_tracks_per_zone` are removed from the end of every zone and
  // used as the remap target for bad sectors.
  DiskLayout(const DiskGeometry* geometry, uint32_t reserved_tracks = 1,
             uint32_t spare_tracks_per_zone = 1);

  const DiskGeometry& geometry() const { return *geometry_; }

  uint64_t num_data_sectors() const { return num_data_sectors_; }

  // Marks the sector currently holding `lba` as bad, remapping the LBA to the
  // next free spare slot in the same zone. Returns false if the zone's spare
  // space is exhausted or the LBA is already remapped.
  bool AddBadSector(uint64_t lba);

  size_t num_remapped_sectors() const { return remap_.size(); }
  // Most drives carry zero remaps for a whole run; the empty check keeps the
  // hot mapping paths free of hash lookups until the first AddBadSector.
  bool has_remaps() const { return !remap_.empty(); }
  bool IsRemapped(uint64_t lba) const {
    return has_remaps() && remap_.contains(lba);
  }

  // Physical location of an LBA (following any remap). lba < num_data_sectors.
  Chs ToChs(uint64_t lba) const;

  // ToChs plus the track's SPT and the slot's angle, tagged with this layout.
  ResolvedPosition Resolve(uint64_t lba) const;
  // `hint` when it is Current(), else Resolve(lba). The hint must have been
  // resolved from this same `lba`.
  ResolvedPosition Resolve(uint64_t lba, const ResolvedPosition& hint) const {
    return Current(hint) ? hint : Resolve(lba);
  }
  // Whether `pos` still equals Resolve() of its LBA: it was resolved against
  // this layout, and the layout has no remaps. Remaps are only ever added, so
  // a position resolved before the first AddBadSector is refused from then
  // on, and one resolved after it is refused from the start — no generation
  // counter is needed.
  bool Current(const ResolvedPosition& pos) const {
    return pos.layout == this && !has_remaps();
  }

  // Inverse mapping. Returns kInvalidLba for reserved/spare tracks or
  // positions whose *natural* LBA has been remapped away.
  uint64_t ToLba(const Chs& chs) const;

  // Physical rotational slot of a position, after skew. The Zone overload
  // skips the per-call zone scan when the caller already resolved it.
  uint32_t SlotOf(const Chs& chs) const;
  uint32_t SlotOf(const Chs& chs, const Zone& z) const;

  // Fraction of a revolution [0, 1) at which the sector's slot begins.
  double AngleOf(const Chs& chs) const;

  // The LBA on (cylinder, head) whose slot begins at or cyclically next after
  // `angle` (in [0, 1)). Returns kInvalidLba if the track holds no data.
  uint64_t LbaForAngle(uint32_t cylinder, uint32_t head, double angle) const;

  // True if (cylinder, head) is a data track (not reserved, not spare).
  bool IsDataTrack(uint32_t cylinder, uint32_t head) const;

  // First data cylinder (cylinders before it are entirely reserved).
  uint32_t first_data_cylinder() const { return first_data_cylinder_; }

  // The rotational slot at which logical sector 0 of the track begins
  // (i.e. the accumulated skew of the track).
  uint32_t TrackStartSlot(uint32_t cylinder, uint32_t head) const;
  uint32_t TrackStartSlot(uint32_t cylinder, uint32_t head,
                          const Zone& z) const;

 private:
  struct ZoneExtent {
    uint32_t first_track = 0;       // global track index of first data track
    uint32_t num_data_tracks = 0;   // excludes reserved and spare tracks
    uint64_t first_lba = 0;         // LBA of the zone's first data sector
    uint32_t spare_first_track = 0; // global track index of first spare track
    uint32_t num_spare_tracks = 0;
    uint32_t spare_used = 0;        // spare slots consumed by remaps
  };

  uint32_t GlobalTrack(uint32_t cylinder, uint32_t head) const {
    return cylinder * geometry_->num_heads + head;
  }

  // Natural (pre-remap) position of `lba` and the index of its zone.
  Chs NaturalChs(uint64_t lba, uint32_t* zone_index) const;

  const DiskGeometry* geometry_;
  std::vector<ZoneExtent> extents_;
  uint64_t num_data_sectors_ = 0;
  uint32_t first_data_cylinder_ = 0;
  std::unordered_map<uint64_t, Chs> remap_;
  // Reverse map keyed by global slot index of the *natural* position, so
  // ToLba can report holes.
  std::unordered_map<uint64_t, uint64_t> natural_position_remapped_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_DISK_LAYOUT_H_
