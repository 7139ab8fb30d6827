// Tests for access-trace capture, serialization, and profile replay.
#include <gtest/gtest.h>

#include <fstream>

#include "common/rng.h"
#include "workloads/kv/hash_store.h"
#include "workloads/trace/trace_io.h"
#include "tier_aliases.h"

namespace mtat {
namespace {

std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

TEST(TraceIo, RoundTripsSamples) {
  const std::string path = temp_path("roundtrip.trace");
  std::vector<TraceSample> samples = {{0, AccessKind::kRead},
                                      {99, AccessKind::kWrite},
                                      {5, AccessKind::kRead}};
  write_trace(path, 100, samples);
  const Trace t = read_trace(path);
  EXPECT_EQ(t.footprint_pages, 100u);
  ASSERT_EQ(t.samples.size(), 3u);
  EXPECT_EQ(t.samples[1].vpage, 99u);
  EXPECT_EQ(t.samples[1].kind, AccessKind::kWrite);
  EXPECT_EQ(t.samples[2].vpage, 5u);
  EXPECT_EQ(t.samples[2].kind, AccessKind::kRead);
}

TEST(TraceIo, RejectsMissingAndCorruptFiles) {
  EXPECT_THROW(read_trace(temp_path("nonexistent.trace")), std::runtime_error);
  const std::string path = temp_path("corrupt.trace");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a trace";
  }
  EXPECT_THROW(read_trace(path), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfFootprintSamples) {
  const std::string path = temp_path("oob.trace");
  write_trace(path, 10, {{10, AccessKind::kRead}});  // vpage == footprint: invalid
  EXPECT_THROW(read_trace(path), std::runtime_error);
}

TEST(TraceProfile, WeightsMatchSampleFrequencies) {
  Trace t;
  t.footprint_pages = 4;
  t.samples = {{0, AccessKind::kRead}, {0, AccessKind::kRead}, {1, AccessKind::kRead},
               {3, AccessKind::kWrite}};
  const PageProfile p = profile_from_trace(t, 2.5);
  EXPECT_DOUBLE_EQ(p.weight[0], 0.5);
  EXPECT_DOUBLE_EQ(p.weight[1], 0.25);
  EXPECT_DOUBLE_EQ(p.weight[2], 0.0);
  EXPECT_DOUBLE_EQ(p.weight[3], 0.25);
  EXPECT_DOUBLE_EQ(p.accesses_per_iteration, 2.5);
  EXPECT_THROW(profile_from_trace(Trace{4, {}}, 1.0), std::invalid_argument);
}

TEST(TraceRecorder, CapturesARealWorkloadsAccesses) {
  // Record a hash-store tenant, write/read the trace, and check the rebuilt
  // profile concentrates where the accesses actually went.
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  HashStore::Config hc;
  hc.n_records = 2000;
  AddressSpace space(mem, 0, HashStore::required_bytes(hc), kTierOnly(Tier::kSMem),
                     /*sample_period=*/1);
  TraceRecorder rec(space);
  space.set_observer(&rec);
  HashStore store(space, hc);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) store.get(rng.next_below(hc.n_records));
  ASSERT_GT(rec.size(), 2000u);  // probes + record touches

  const std::string path = temp_path("kv.trace");
  const auto samples = rec.take();
  write_trace(path, space.num_pages(), samples);
  const Trace t = read_trace(path);
  EXPECT_EQ(t.samples.size(), samples.size());

  const PageProfile prof = profile_from_trace(t, 16.0);
  double sum = 0;
  for (double w : prof.weight) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Bucket-array pages (front of the space) are touched every request, so
  // the profile's hottest page must sit in that region.
  const std::uint64_t bucket_pages =
      store.n_buckets() * HashStore::kBucketBytes / kPageSize + 1;
  std::uint64_t hottest = 0;
  for (std::uint64_t i = 1; i < prof.num_pages(); ++i)
    if (prof.weight[i] > prof.weight[hottest]) hottest = i;
  EXPECT_LT(hottest, bucket_pages);
}

TEST(TraceRecorder, IgnoresOtherTenants) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 12);
  TieredMemory mem(mc);
  AddressSpace a(mem, 0, 16 * kPageSize, kTierOnly(Tier::kSMem), 1);
  AddressSpace b(mem, 1, 16 * kPageSize, kTierOnly(Tier::kSMem), 1);
  TraceRecorder rec(a);
  a.set_observer(&rec);
  b.set_observer(&rec);  // misdirected feed: recorder must filter it out
  a.access(0);
  b.access(0);
  b.access(kPageSize);
  EXPECT_EQ(rec.size(), 1u);
}

}  // namespace
}  // namespace mtat
