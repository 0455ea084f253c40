#include "src/array/placement.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace mimdraid {

SrDiskPlacement::SrDiskPlacement(const DiskLayout* layout, int dr,
                                 PlacementMode mode)
    : layout_(layout), dr_(dr), mode_(mode) {
  MIMDRAID_CHECK(layout != nullptr);
  MIMDRAID_CHECK_GE(dr, 1);
  const DiskGeometry& geo = layout->geometry();
  MIMDRAID_CHECK_LE(static_cast<uint32_t>(dr), geo.num_heads);
  const uint32_t heads = geo.num_heads;
  // A zone's data tracks are one contiguous range of global tracks (reserved
  // tracks lead zone 0, spare tracks trail every zone), so each cylinder's
  // data heads are contiguous too, and only the range's first and last
  // cylinders can be partial.
  for (uint32_t zi = 0; zi < geo.zones.size(); ++zi) {
    const DiskLayout::TrackRange data = layout->DataTracks(zi);
    const uint32_t spt = geo.zones[zi].sectors_per_track;
    const uint32_t end = data.first + data.count;
    for (uint32_t t = data.first; t < end;) {
      const uint32_t cylinder = t / heads;
      const uint32_t head = t % heads;
      if (head == 0 && end - t >= heads) {
        const uint32_t full = (end - t) / heads;
        AddCylinders(zi, cylinder, full, 0, heads, spt);
        t += full * heads;
      } else {
        const uint32_t stop = std::min(end, (cylinder + 1) * heads);
        AddCylinders(zi, cylinder, 1, head, stop - t, spt);
        t = stop;
      }
    }
  }
  MIMDRAID_CHECK(!runs_.empty());
  capacity_sectors_ = runs_.back().first_logical +
                      runs_.back().per_cylinder * runs_.back().cylinders;
}

void SrDiskPlacement::AddCylinders(uint32_t zone, uint32_t cylinder,
                                   uint32_t cylinders, uint32_t first_head,
                                   uint32_t avail, uint32_t spt) {
  uint32_t groups;
  uint32_t per_group;
  if (mode_ == PlacementMode::kCrossTrack) {
    // A group is Dr whole tracks; it stores one track's worth of data.
    groups = avail / static_cast<uint32_t>(dr_);
    per_group = spt;
  } else {
    // A group is a single track holding SPT/Dr logical sectors, each
    // replicated Dr times within the track.
    groups = avail;
    per_group = spt / static_cast<uint32_t>(dr_);
  }
  if (groups == 0 || per_group == 0) {
    return;  // the cylinder stores nothing at this replication degree
  }
  if (!runs_.empty()) {
    CylinderRun& last = runs_.back();
    if (last.zone == zone &&
        last.first_cylinder + last.cylinders == cylinder &&
        last.first_head == first_head && last.groups == groups &&
        last.spt == spt && last.per_group == per_group) {
      last.cylinders += cylinders;
      return;
    }
  }
  CylinderRun run;
  run.first_logical =
      runs_.empty() ? 0
                    : runs_.back().first_logical +
                          runs_.back().per_cylinder * runs_.back().cylinders;
  run.per_cylinder = static_cast<uint64_t>(groups) * per_group;
  run.zone = zone;
  run.first_cylinder = cylinder;
  run.cylinders = cylinders;
  run.first_head = first_head;
  run.groups = groups;
  run.spt = spt;
  run.per_group = per_group;
  runs_.push_back(run);
}

SrDiskPlacement::Location SrDiskPlacement::Locate(uint64_t s) const {
  MIMDRAID_CHECK_LT(s, capacity_sectors_);
  // Last run with first_logical <= s.
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), s,
      [](uint64_t v, const CylinderRun& r) { return v < r.first_logical; });
  MIMDRAID_CHECK(it != runs_.begin());
  const CylinderRun& run = *(it - 1);
  const uint64_t off = s - run.first_logical;
  const uint64_t in_cylinder = off % run.per_cylinder;
  Location loc;
  loc.zone = run.zone;
  loc.cylinder = run.first_cylinder +
                 static_cast<uint32_t>(off / run.per_cylinder);
  loc.first_head = run.first_head;
  loc.groups = run.groups;
  loc.spt = run.spt;
  loc.per_group = run.per_group;
  loc.group = static_cast<uint32_t>(in_cylinder / run.per_group);
  loc.offset = static_cast<uint32_t>(in_cylinder % run.per_group);
  return loc;
}

SrDiskPlacement::Replica SrDiskPlacement::Place(const Location& loc, int r,
                                                double base_angle) const {
  MIMDRAID_CHECK_GE(r, 0);
  MIMDRAID_CHECK_LT(r, dr_);
  Replica out;

  if (mode_ == PlacementMode::kIntraTrack) {
    // All replicas share the group's single track, spaced SPT/Dr slots
    // apart (exactly even when Dr divides SPT; within a slot otherwise).
    const uint32_t head = loc.first_head + loc.group;
    const uint32_t shift =
        static_cast<uint32_t>(std::llround(base_angle * loc.spt));
    const uint32_t replica_offset = static_cast<uint32_t>(
        static_cast<uint64_t>(r) * loc.spt / static_cast<uint64_t>(dr_));
    out.track_sector = (loc.offset + replica_offset + shift) % loc.spt;
    // Step over remapped holes as cross-track placement does below.
    for (uint32_t attempt = 0; attempt < loc.spt; ++attempt) {
      out.lba = layout_->ToLba(Chs{loc.cylinder, head, out.track_sector});
      if (out.lba != kInvalidLba) {
        return out;
      }
      out.track_sector = (out.track_sector + 1) % loc.spt;
    }
    MIMDRAID_CHECK(false);  // a data track cannot be entirely remapped
  }

  const uint32_t head = loc.first_head +
                        loc.group * static_cast<uint32_t>(dr_) +
                        static_cast<uint32_t>(r);

  // Angular placement follows the skew chain of *consecutive* tracks — the
  // paper's "track skews must be re-arranged" requirement: group g's data is
  // placed at the angles of virtual track g (head first_head+g), so a large
  // sequential I/O crossing from group g to g+1 sees exactly one track skew,
  // even though the data physically sits Dr heads apart.
  const Chs virtual_track{loc.cylinder, loc.first_head + loc.group,
                          loc.offset};
  const double rotate =
      base_angle + static_cast<double>(r) / static_cast<double>(dr_);
  double angle =
      static_cast<double>(layout_->SlotOf(
          virtual_track, layout_->geometry().zones[loc.zone])) /
          loc.spt +
      rotate;
  angle -= std::floor(angle);
  // Skip remapped holes (rare: only with bad sectors present). The LBA found
  // is never itself remapped (ToLba reports a remapped slot as a hole), so
  // its track sector is where the replica physically starts.
  for (uint32_t attempt = 0; attempt < loc.spt; ++attempt) {
    out.lba = layout_->LbaForAngle(loc.zone, loc.cylinder, head, angle,
                                   &out.track_sector);
    if (out.lba != kInvalidLba) {
      return out;
    }
    angle += 1.0 / loc.spt;
    if (angle >= 1.0) {
      angle -= 1.0;
    }
  }
  MIMDRAID_CHECK(false);  // a data track cannot be entirely remapped
}

uint64_t SrDiskPlacement::PhysicalLba(uint64_t s, int r,
                                      double base_angle) const {
  return Place(Locate(s), r, base_angle).lba;
}

std::vector<uint64_t> SrDiskPlacement::AllReplicas(uint64_t s,
                                                   double base_angle) const {
  std::vector<uint64_t> out;
  out.reserve(dr_);
  for (int r = 0; r < dr_; ++r) {
    out.push_back(PhysicalLba(s, r, base_angle));
  }
  return out;
}

uint32_t SrDiskPlacement::ContiguousRun(uint64_t s) const {
  return Locate(s).run();
}

uint32_t SrDiskPlacement::CylinderOf(uint64_t s) const {
  return Locate(s).cylinder;
}

uint32_t SrDiskPlacement::CylinderSpan(uint64_t sectors) const {
  if (sectors == 0) {
    return 0;
  }
  MIMDRAID_CHECK_LE(sectors, capacity_sectors_);
  return Locate(sectors - 1).cylinder;
}

uint64_t SrDiskPlacement::PhysicalSpanSectors(uint64_t sectors) const {
  if (sectors == 0) {
    return 0;
  }
  MIMDRAID_CHECK_LE(sectors, capacity_sectors_);
  const Location last = Locate(sectors - 1);
  // Every track of the last used cylinder's group region counts as touched:
  // replicas rotate through the whole group, so the span ends at the last
  // sector of the last group track.
  const uint32_t tracks_used =
      mode_ == PlacementMode::kCrossTrack
          ? last.groups * static_cast<uint32_t>(dr_)
          : last.groups;
  const uint32_t last_head = last.first_head + tracks_used - 1;
  // The span is a physical extent: it ends at the natural LBA of that last
  // sector even when the sector has been remapped (ToLba reports such a slot
  // as a hole). A track's natural LBAs are consecutive, so count on from its
  // last sector that still maps.
  for (uint32_t sector = last.spt; sector-- > 0;) {
    const uint64_t lba = layout_->ToLba(Chs{last.cylinder, last_head, sector});
    if (lba != kInvalidLba) {
      return lba + (last.spt - sector);
    }
  }
  MIMDRAID_CHECK(false);  // a data track cannot be entirely remapped
}

}  // namespace mimdraid
