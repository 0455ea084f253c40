// Differential test for the run-length placement table and ArrayLayout::Map.
//
// SrDiskPlacement keeps one entry per run of identically shaped cylinders and
// Map fills a flat, reusable fragment buffer that clips each copy with the
// track position placement already computed. Both must reproduce, value for
// value, the per-cylinder table (one entry per cylinder, a binary search per
// lookup) and the Map that re-translated every copy with ToChs. Reference
// copies of those two live below. The comparison covers Dr 1-4, Dm 1-3, both
// placement modes, layouts whose reserved and spare tracks leave partial
// cylinders, a layout with remapped sectors, and a heterogeneous fleet
// (capacity-weighted deal): every sector next to a change of cylinder shape
// (zone edges, reserved and spare tracks) plus random ranges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/placement.h"
#include "src/disk/geometry.h"
#include "src/disk/layout.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

// --- Reference: the per-cylinder placement table -------------------------

class RefPlacement {
 public:
  struct Entry {
    uint64_t first_logical = 0;
    uint32_t cylinder = 0;
    uint32_t first_head = 0;
    uint32_t groups = 0;
    uint32_t spt = 0;
    uint32_t per_group = 0;
  };

  RefPlacement(const DiskLayout* layout, int dr, PlacementMode mode)
      : layout_(layout), dr_(dr), mode_(mode) {
    const DiskGeometry& geo = layout->geometry();
    uint64_t logical = 0;
    for (uint32_t c = 0; c < geo.num_cylinders; ++c) {
      uint32_t first_head = geo.num_heads;
      uint32_t avail = 0;
      for (uint32_t h = 0; h < geo.num_heads; ++h) {
        if (layout->IsDataTrack(c, h)) {
          if (first_head == geo.num_heads) {
            first_head = h;
          }
          EXPECT_EQ(first_head + avail, h);
          ++avail;
        }
      }
      const uint32_t spt = geo.SectorsPerTrack(c);
      uint32_t groups;
      uint32_t per_group;
      if (mode_ == PlacementMode::kCrossTrack) {
        groups = avail / static_cast<uint32_t>(dr_);
        per_group = spt;
      } else {
        groups = avail;
        per_group = spt / static_cast<uint32_t>(dr_);
      }
      if (groups == 0 || per_group == 0) {
        continue;
      }
      table_.push_back(Entry{logical, c, first_head, groups, spt, per_group});
      logical += static_cast<uint64_t>(groups) * per_group;
    }
    capacity_ = logical;
  }

  uint64_t capacity_sectors() const { return capacity_; }
  const std::vector<Entry>& table() const { return table_; }
  const DiskLayout& layout() const { return *layout_; }

  const Entry& EntryFor(uint64_t s) const {
    auto it = std::upper_bound(
        table_.begin(), table_.end(), s,
        [](uint64_t v, const Entry& e) { return v < e.first_logical; });
    return *(it - 1);
  }

  uint64_t PhysicalLba(uint64_t s, int r, double base_angle = 0.0) const {
    const Entry& e = EntryFor(s);
    const uint64_t off = s - e.first_logical;
    const uint32_t group = static_cast<uint32_t>(off / e.per_group);
    const uint32_t sector = static_cast<uint32_t>(off % e.per_group);
    if (mode_ == PlacementMode::kIntraTrack) {
      const uint32_t head = e.first_head + group;
      const uint32_t shift =
          static_cast<uint32_t>(std::llround(base_angle * e.spt));
      const uint32_t replica_offset = static_cast<uint32_t>(
          static_cast<uint64_t>(r) * e.spt / static_cast<uint64_t>(dr_));
      // A remapped slot is a hole: the replica takes the next slot that
      // still maps, cyclically along the track.
      for (uint32_t step = 0; step < e.spt; ++step) {
        const uint64_t lba = layout_->ToLba(Chs{
            e.cylinder, head, (sector + replica_offset + shift + step) % e.spt});
        if (lba != kInvalidLba) {
          return lba;
        }
      }
      ADD_FAILURE() << "track entirely remapped";
      return kInvalidLba;
    }
    const uint32_t head = e.first_head +
                          group * static_cast<uint32_t>(dr_) +
                          static_cast<uint32_t>(r);
    const Chs virtual_track{e.cylinder, e.first_head + group, sector};
    const double rotate =
        base_angle + static_cast<double>(r) / static_cast<double>(dr_);
    double angle = layout_->AngleOf(virtual_track) + rotate;
    angle -= std::floor(angle);
    for (uint32_t attempt = 0; attempt < e.spt; ++attempt) {
      const uint64_t lba = layout_->LbaForAngle(e.cylinder, head, angle);
      if (lba != kInvalidLba) {
        return lba;
      }
      angle += 1.0 / e.spt;
      if (angle >= 1.0) {
        angle -= 1.0;
      }
    }
    ADD_FAILURE() << "track entirely remapped";
    return kInvalidLba;
  }

  uint32_t ContiguousRun(uint64_t s) const {
    const Entry& e = EntryFor(s);
    return e.per_group -
           static_cast<uint32_t>((s - e.first_logical) % e.per_group);
  }

  uint32_t CylinderOf(uint64_t s) const { return EntryFor(s).cylinder; }

  uint32_t CylinderSpan(uint64_t sectors) const {
    return sectors == 0 ? 0 : EntryFor(sectors - 1).cylinder;
  }

  uint64_t PhysicalSpanSectors(uint64_t sectors) const {
    if (sectors == 0) {
      return 0;
    }
    const Entry& e = EntryFor(sectors - 1);
    const uint32_t tracks_used = mode_ == PlacementMode::kCrossTrack
                                     ? e.groups * static_cast<uint32_t>(dr_)
                                     : e.groups;
    return layout_->ToLba(Chs{e.cylinder, e.first_head + tracks_used - 1,
                              e.spt - 1}) +
           1;
  }

  // Logical sectors on either side of every change of cylinder shape (zone
  // edges, reserved and spare tracks, skipped cylinders) and of the first
  // group boundary after it, plus the last sector.
  std::vector<uint64_t> EdgeSectors() const {
    std::set<uint64_t> edges;
    for (size_t i = 0; i < table_.size(); ++i) {
      const Entry& e = table_[i];
      const bool shape_changes =
          i == 0 || e.cylinder != table_[i - 1].cylinder + 1 ||
          e.first_head != table_[i - 1].first_head ||
          e.groups != table_[i - 1].groups || e.spt != table_[i - 1].spt;
      if (!shape_changes) {
        continue;
      }
      for (const uint64_t base :
           {e.first_logical, e.first_logical + e.per_group}) {
        // base - 1 wraps to UINT64_MAX at sector 0; the filter below drops it.
        edges.insert({base - 1, base, base + 1});
      }
    }
    edges.insert(capacity_ - 1);
    std::vector<uint64_t> out;
    for (const uint64_t s : edges) {
      if (s < capacity_) {
        out.push_back(s);
      }
    }
    return out;
  }

 private:
  const DiskLayout* layout_;
  int dr_;
  PlacementMode mode_;
  uint64_t capacity_ = 0;
  std::vector<Entry> table_;
};

// --- Reference: Map over per-disk reference placements -------------------

class RefArray {
 public:
  RefArray(const std::vector<const DiskLayout*>& layouts,
           const ArrayAspect& aspect, uint32_t unit, uint64_t dataset,
           PlacementMode mode)
      : aspect_(aspect), unit_(unit), dataset_(dataset) {
    for (const DiskLayout* l : layouts) {
      placements_.push_back(
          std::make_unique<RefPlacement>(l, aspect.dr, mode));
    }
    const uint32_t columns = static_cast<uint32_t>(aspect.ds * aspect.dr);
    std::vector<uint64_t> weight(columns);
    for (uint32_t c = 0; c < columns; ++c) {
      uint64_t cap = std::numeric_limits<uint64_t>::max();
      for (int m = 0; m < aspect.dm; ++m) {
        cap = std::min(cap, placements_[DiskFor(c, m)]->capacity_sectors());
      }
      weight[c] = cap / unit;
    }
    const uint64_t units = (dataset + unit - 1) / unit;
    const bool equal = std::all_of(weight.begin(), weight.end(),
                                   [&](uint64_t w) { return w == weight[0]; });
    if (equal) {
      return;  // round-robin: LocateUnit's closed form
    }
    std::vector<uint64_t> assigned(columns, 0);
    for (uint64_t i = 0; i < units; ++i) {
      uint32_t best = columns;
      for (uint32_t c = 0; c < columns; ++c) {
        if (assigned[c] >= weight[c]) {
          continue;
        }
        if (best == columns ||
            (assigned[c] + 1) * weight[best] < (assigned[best] + 1) * weight[c]) {
          best = c;
        }
      }
      unit_group_.push_back(best);
      unit_row_.push_back(assigned[best]++);
    }
  }

  void LocateUnit(uint64_t unit_index, uint32_t* group, uint64_t* row) const {
    const uint32_t columns = static_cast<uint32_t>(aspect_.ds * aspect_.dr);
    if (unit_group_.empty()) {
      *group = static_cast<uint32_t>(unit_index % columns);
      *row = unit_index / columns;
      return;
    }
    *group = unit_group_[unit_index];
    *row = unit_row_[unit_index];
  }

  uint32_t DiskFor(uint32_t group, int m) const {
    return group * static_cast<uint32_t>(aspect_.dm) + static_cast<uint32_t>(m);
  }
  const RefPlacement& placement(uint32_t disk) const {
    return *placements_[disk];
  }

  // The array LBA whose column `group` stores disk sector `disk_sector`, or
  // UINT64_MAX if that column stores no such sector.
  uint64_t LbaOf(uint32_t group, uint64_t disk_sector) const {
    const uint64_t row = disk_sector / unit_;
    uint64_t unit_index = UINT64_MAX;
    if (unit_group_.empty()) {
      unit_index = row * static_cast<uint64_t>(aspect_.ds * aspect_.dr) + group;
    } else {
      for (uint64_t i = 0; i < unit_group_.size(); ++i) {
        if (unit_group_[i] == group && unit_row_[i] == row) {
          unit_index = i;
          break;
        }
      }
    }
    if (unit_index == UINT64_MAX) {
      return UINT64_MAX;
    }
    const uint64_t lba = unit_index * unit_ + disk_sector % unit_;
    return lba < dataset_ ? lba : UINT64_MAX;
  }

  std::vector<ArrayFragment> Map(uint64_t lba, uint32_t sectors) const {
    std::vector<ArrayFragment> out;
    const int dr = aspect_.dr;
    const int dm = aspect_.dm;
    uint64_t cur = lba;
    uint32_t remaining = sectors;
    while (remaining > 0) {
      const uint64_t stripe_index = cur / unit_;
      const uint32_t offset_in_unit = static_cast<uint32_t>(cur % unit_);
      uint32_t group = 0;
      uint64_t row = 0;
      LocateUnit(stripe_index, &group, &row);
      const uint64_t disk_sector = row * unit_ + offset_in_unit;
      uint32_t len = std::min(remaining, unit_ - offset_in_unit);
      for (int m = 0; m < dm; ++m) {
        len = std::min(len, placements_[DiskFor(group, m)]->ContiguousRun(
                                disk_sector));
      }
      ArrayFragment frag;
      frag.group = group;
      for (int m = 0; m < dm; ++m) {
        const double base_angle =
            static_cast<double>(m) / static_cast<double>(dm * dr);
        const uint32_t disk = DiskFor(group, m);
        const RefPlacement& p = *placements_[disk];
        const DiskLayout& dl = p.layout();
        for (int r = 0; r < dr; ++r) {
          const uint64_t phys = p.PhysicalLba(disk_sector, r, base_angle);
          frag.replicas.push_back(ReplicaLocation{disk, phys});
          const Chs chs = dl.ToChs(phys);
          len = std::min(len, dl.geometry().SectorsPerTrack(chs.cylinder) -
                                  chs.sector);
        }
      }
      frag.logical_lba = cur;
      frag.sectors = len;
      out.push_back(std::move(frag));
      cur += len;
      remaining -= len;
    }
    return out;
  }

 private:
  ArrayAspect aspect_;
  uint32_t unit_;
  uint64_t dataset_;
  std::vector<std::unique_ptr<RefPlacement>> placements_;
  std::vector<uint32_t> unit_group_;
  std::vector<uint64_t> unit_row_;
};

// --- Drive layouts under test ---------------------------------------------

// A second drive generation for the heterogeneous fleet: more cylinders,
// three zones, its own skews.
DiskGeometry MakeLargerGeometry() {
  DiskGeometry g = MakeTestGeometry();
  g.num_cylinders = 84;
  Zone z2;
  z2.first_cylinder = 60;
  z2.sectors_per_track = 26;
  z2.track_skew = 5;
  z2.cylinder_skew = 6;
  g.zones.push_back(z2);
  return g;
}

struct Drives {
  Drives()
      : test_geo(MakeTestGeometry()),
        big_geo(MakeSt39133Geometry()),
        larger_geo(MakeLargerGeometry()),
        plain(&test_geo),
        ragged(&test_geo, /*reserved_tracks=*/5, /*spare_tracks_per_zone=*/3),
        remapped(&test_geo),
        big(&big_geo),
        larger(&larger_geo, 2, 2) {
    Rng rng(17);
    for (int i = 0; i < 60; ++i) {
      remapped.AddBadSector(rng.UniformU64(remapped.num_data_sectors()));
    }
  }
  DiskGeometry test_geo;
  DiskGeometry big_geo;
  DiskGeometry larger_geo;
  DiskLayout plain;
  DiskLayout ragged;    // partial cylinders at both ends of each zone
  DiskLayout remapped;  // bad sectors moved to spare space
  DiskLayout big;       // the ST39133 model, 6962 cylinders
  DiskLayout larger;
};

const Drives& TheDrives() {
  // mdl-ok(MDL004): immutable after construction, shared read-only by tests
  static const Drives drives;
  return drives;
}

std::string ModeName(PlacementMode mode) {
  return mode == PlacementMode::kCrossTrack ? "cross" : "intra";
}

// --- Placement ------------------------------------------------------------

// `natural` is `layout` without its remaps (itself when it has none): a
// remap moves no physical extent, so the span is checked against it.
void ExpectSamePlacement(const DiskLayout& layout, const DiskLayout& natural,
                         int dr, PlacementMode mode, bool exhaustive) {
  SCOPED_TRACE("dr=" + std::to_string(dr) + " mode=" + ModeName(mode));
  const RefPlacement ref(&layout, dr, mode);
  const RefPlacement natural_ref(&natural, dr, mode);
  const SrDiskPlacement p(&layout, dr, mode);
  ASSERT_EQ(p.capacity_sectors(), ref.capacity_sectors());
  std::vector<uint64_t> sectors = ref.EdgeSectors();
  if (exhaustive) {
    sectors.clear();
    for (uint64_t s = 0; s < ref.capacity_sectors(); ++s) {
      sectors.push_back(s);
    }
  }
  Rng rng(static_cast<uint64_t>(dr) * 31 + static_cast<uint64_t>(mode));
  for (int i = 0; i < 2000; ++i) {
    sectors.push_back(rng.UniformU64(ref.capacity_sectors()));
  }
  for (const uint64_t s : sectors) {
    ASSERT_EQ(p.ContiguousRun(s), ref.ContiguousRun(s)) << "s=" << s;
    ASSERT_EQ(p.CylinderOf(s), ref.CylinderOf(s)) << "s=" << s;
    ASSERT_EQ(p.CylinderSpan(s + 1), ref.CylinderSpan(s + 1)) << "s=" << s;
    ASSERT_EQ(p.PhysicalSpanSectors(s + 1),
              natural_ref.PhysicalSpanSectors(s + 1))
        << "s=" << s;
    for (int r = 0; r < dr; ++r) {
      for (const double base : {0.0, 1.0 / (3.0 * dr)}) {
        const uint64_t want = ref.PhysicalLba(s, r, base);
        ASSERT_NE(want, kInvalidLba) << "s=" << s << " r=" << r;
        ASSERT_EQ(p.PhysicalLba(s, r, base), want)
            << "s=" << s << " r=" << r << " base=" << base;
      }
    }
  }
  EXPECT_EQ(p.CylinderSpan(0), 0u);
  EXPECT_EQ(p.PhysicalSpanSectors(0), 0u);
}

TEST(PlacementDifferential, MatchesPerCylinderTable) {
  const Drives& d = TheDrives();
  for (const PlacementMode mode :
       {PlacementMode::kCrossTrack, PlacementMode::kIntraTrack}) {
    for (int dr = 1; dr <= 4; ++dr) {
      {
        SCOPED_TRACE("plain");
        ExpectSamePlacement(d.plain, d.plain, dr, mode, /*exhaustive=*/true);
      }
      {
        SCOPED_TRACE("ragged");
        ExpectSamePlacement(d.ragged, d.ragged, dr, mode, /*exhaustive=*/true);
      }
      {
        SCOPED_TRACE("remapped");
        ExpectSamePlacement(d.remapped, d.plain, dr, mode, /*exhaustive=*/true);
      }
      {
        SCOPED_TRACE("larger");
        ExpectSamePlacement(d.larger, d.larger, dr, mode, /*exhaustive=*/true);
      }
      {
        SCOPED_TRACE("st39133");
        ExpectSamePlacement(d.big, d.big, dr, mode, /*exhaustive=*/false);
      }
    }
  }
}

TEST(PlacementDifferential, IntraTrackStepsOverRemappedSlots) {
  // On a drive with remapped sectors, every intra-track replica lands on a
  // valid LBA: where the computed slot still maps, the LBA the unremapped
  // twin drive gives; where the drive's layout reports a hole, the next slot
  // along the track that maps.
  const Drives& d = TheDrives();
  ASSERT_TRUE(d.remapped.has_remaps());
  uint64_t holes = 0;
  for (int dr = 1; dr <= 4; ++dr) {
    SCOPED_TRACE("dr=" + std::to_string(dr));
    const SrDiskPlacement p(&d.remapped, dr, PlacementMode::kIntraTrack);
    const SrDiskPlacement natural(&d.plain, dr, PlacementMode::kIntraTrack);
    ASSERT_EQ(p.capacity_sectors(), natural.capacity_sectors());
    for (uint64_t s = 0; s < p.capacity_sectors(); ++s) {
      for (int r = 0; r < dr; ++r) {
        const uint64_t want = natural.PhysicalLba(s, r);
        const uint64_t got = p.PhysicalLba(s, r);
        ASSERT_NE(got, kInvalidLba) << "s=" << s << " r=" << r;
        const Chs slot = d.plain.ToChs(want);
        if (d.remapped.ToLba(slot) != kInvalidLba) {
          ASSERT_EQ(got, want) << "s=" << s << " r=" << r;
          continue;
        }
        ++holes;
        // The slot is a hole: the replica takes the first later slot on the
        // same track that maps.
        const uint32_t spt = d.plain.geometry().SectorsPerTrack(slot.cylinder);
        uint64_t next = kInvalidLba;
        for (uint32_t step = 1; step < spt && next == kInvalidLba; ++step) {
          next = d.remapped.ToLba(
              Chs{slot.cylinder, slot.head, (slot.sector + step) % spt});
        }
        ASSERT_EQ(got, next) << "s=" << s << " r=" << r;
      }
    }
  }
  EXPECT_GT(holes, 0u) << "no replica slot fell on a remapped sector";
}

// --- Map --------------------------------------------------------------------

struct MapCase {
  std::string name;
  std::vector<const DiskLayout*> disks;
  ArrayAspect aspect;
  PlacementMode mode = PlacementMode::kCrossTrack;
};

void ExpectSameFragments(const std::vector<ArrayFragment>& got,
                         const std::vector<ArrayFragment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].logical_lba, want[i].logical_lba) << "fragment " << i;
    EXPECT_EQ(got[i].sectors, want[i].sectors) << "fragment " << i;
    EXPECT_EQ(got[i].group, want[i].group) << "fragment " << i;
    ASSERT_EQ(got[i].replicas.size(), want[i].replicas.size());
    for (size_t r = 0; r < got[i].replicas.size(); ++r) {
      EXPECT_EQ(got[i].replicas[r].disk, want[i].replicas[r].disk);
      EXPECT_EQ(got[i].replicas[r].lba, want[i].replicas[r].lba)
          << "fragment " << i << " copy " << r;
    }
  }
}

void ExpectSameMap(const MapCase& c) {
  SCOPED_TRACE(c.name + " " + std::to_string(c.aspect.ds) + "x" +
               std::to_string(c.aspect.dr) + "x" +
               std::to_string(c.aspect.dm) + " " + ModeName(c.mode));
  constexpr uint32_t kUnit = 16;
  // Fill the fleet: the dataset reaches the innermost usable cylinders.
  const uint32_t columns = static_cast<uint32_t>(c.aspect.ds * c.aspect.dr);
  uint64_t units = 0;
  for (uint32_t g = 0; g < columns; ++g) {
    uint64_t cap = std::numeric_limits<uint64_t>::max();
    for (int m = 0; m < c.aspect.dm; ++m) {
      cap = std::min(cap, SrDiskPlacement(c.disks[g * c.aspect.dm + m],
                                          c.aspect.dr, c.mode)
                              .capacity_sectors());
    }
    units += cap / kUnit;
  }
  const uint64_t dataset = units * kUnit - 3;  // a partial last unit
  const ArrayLayout layout(c.disks, c.aspect, kUnit, dataset, c.mode);
  const RefArray ref(c.disks, c.aspect, kUnit, dataset, c.mode);

  // Array LBAs stored next to every cylinder-shape change of every column.
  std::vector<uint64_t> lbas;
  for (uint32_t g = 0; g < columns; ++g) {
    for (const uint64_t s : ref.placement(ref.DiskFor(g, 0)).EdgeSectors()) {
      const uint64_t lba = ref.LbaOf(g, s);
      if (lba != UINT64_MAX) {
        lbas.push_back(lba);
      }
    }
  }
  Rng rng(static_cast<uint64_t>(columns * 7 + c.aspect.dm));
  for (int i = 0; i < 300; ++i) {
    lbas.push_back(rng.UniformU64(dataset));
  }
  MappedFragments reused;
  for (const uint64_t lba : lbas) {
    for (const uint32_t want_len : {1u, 2u, kUnit, 3 * kUnit + 5}) {
      const uint32_t len =
          static_cast<uint32_t>(std::min<uint64_t>(want_len, dataset - lba));
      SCOPED_TRACE("lba=" + std::to_string(lba) + "+" + std::to_string(len));
      const std::vector<ArrayFragment> want = ref.Map(lba, len);
      ExpectSameFragments(layout.Map(lba, len), want);
      // The buffer form, reusing one buffer across every request.
      layout.Map(lba, len, &reused);
      ASSERT_EQ(reused.size(), want.size());
      ASSERT_EQ(reused.copies,
                static_cast<uint32_t>(c.aspect.dr * c.aspect.dm));
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(reused.fragments[i].logical_lba, want[i].logical_lba);
        EXPECT_EQ(reused.fragments[i].sectors, want[i].sectors);
        EXPECT_EQ(reused.fragments[i].group, want[i].group);
        const auto copies = reused.ReplicasOf(i);
        ASSERT_EQ(copies.size(), want[i].replicas.size());
        for (size_t r = 0; r < copies.size(); ++r) {
          EXPECT_EQ(copies[r].disk, want[i].replicas[r].disk);
          EXPECT_EQ(copies[r].lba, want[i].replicas[r].lba);
        }
      }
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
  // The array's seek span.
  uint32_t span = 0;
  for (uint32_t d = 0; d < layout.num_disks(); ++d) {
    span = std::max(span, ref.placement(d).CylinderSpan(layout.column_sectors(
                              d / static_cast<uint32_t>(c.aspect.dm))));
  }
  EXPECT_EQ(layout.CylinderSpan(), span);
}

TEST(MapDifferential, HomogeneousShapes) {
  const Drives& d = TheDrives();
  for (const PlacementMode mode :
       {PlacementMode::kCrossTrack, PlacementMode::kIntraTrack}) {
    for (int dr = 1; dr <= 4; ++dr) {
      for (int dm = 1; dm <= 3; ++dm) {
        for (const int ds : {1, 2}) {
          MapCase c;
          c.aspect.ds = ds;
          c.aspect.dr = dr;
          c.aspect.dm = dm;
          c.mode = mode;
          c.name = "ragged";
          c.disks.assign(static_cast<size_t>(c.aspect.TotalDisks()),
                         &d.ragged);
          ExpectSameMap(c);
        }
      }
    }
  }
}

TEST(MapDifferential, RemappedDrive) {
  // Both placement modes step over remapped holes.
  const Drives& d = TheDrives();
  for (const PlacementMode mode :
       {PlacementMode::kCrossTrack, PlacementMode::kIntraTrack}) {
    for (int dr = 1; dr <= 4; ++dr) {
      MapCase c;
      c.aspect.ds = 1;
      c.aspect.dr = dr;
      c.aspect.dm = 2;
      c.mode = mode;
      c.name = "remapped";
      // Every column's first mirror carries the remaps.
      for (int g = 0; g < dr; ++g) {
        c.disks.push_back(&d.remapped);
        c.disks.push_back(&d.plain);
      }
      ExpectSameMap(c);
    }
  }
}

TEST(MapDifferential, HeterogeneousFleet) {
  const Drives& d = TheDrives();
  for (const PlacementMode mode :
       {PlacementMode::kCrossTrack, PlacementMode::kIntraTrack}) {
    for (int dr = 1; dr <= 3; ++dr) {
      for (int dm = 1; dm <= 3; ++dm) {
        MapCase c;
        c.aspect.ds = 2;
        c.aspect.dr = dr;
        c.aspect.dm = dm;
        c.mode = mode;
        c.name = "mixed";
        // Alternate generations across slots: mirrors of one column differ,
        // and column capacities differ, so the deal is capacity-weighted.
        for (int i = 0; i < c.aspect.TotalDisks(); ++i) {
          c.disks.push_back(i % 3 == 0 ? &d.larger : &d.plain);
        }
        ExpectSameMap(c);
      }
    }
  }
}

TEST(MapDifferential, St39133Stripe) {
  const Drives& d = TheDrives();
  MapCase c;
  c.aspect.ds = 4;
  c.aspect.dr = 1;
  c.aspect.dm = 1;
  c.name = "st39133";
  c.disks.assign(4, &d.big);
  ExpectSameMap(c);
}

}  // namespace
}  // namespace mimdraid
