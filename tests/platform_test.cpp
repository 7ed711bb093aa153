// Unit tests for the platform module: architecture model, template
// generation, NoC topology/wire allocation, and the area model.
#include <gtest/gtest.h>

#include "platform/arch_template.hpp"
#include "platform/architecture.hpp"
#include "platform/area.hpp"
#include "platform/io.hpp"
#include "platform/noc_topology.hpp"

namespace mamps::platform {
namespace {

// ------------------------------------------------------------ Architecture

TEST(ArchitectureTest, AddTiles) {
  Architecture arch("a");
  Tile t;
  t.name = "tile0";
  t.kind = TileKind::Master;
  const TileId id = arch.addTile(t);
  EXPECT_EQ(arch.tileCount(), 1u);
  EXPECT_EQ(arch.tile(id).name, "tile0");
  EXPECT_TRUE(arch.tile(id).hasPeripherals());
}

TEST(ArchitectureTest, DuplicateTileNameThrows) {
  Architecture arch;
  Tile t;
  t.name = "x";
  arch.addTile(t);
  EXPECT_THROW(arch.addTile(t), ModelError);
}

TEST(ArchitectureTest, MemoryLimitEnforced) {
  Architecture arch;
  Tile t;
  t.name = "big";
  t.memory = {200 * 1024, 100 * 1024};  // 300 kB > 256 kB
  EXPECT_THROW(arch.addTile(t), ModelError);
}

TEST(ArchitectureTest, AtMostOneMaster) {
  Architecture arch;
  Tile a;
  a.name = "m1";
  a.kind = TileKind::Master;
  Tile b;
  b.name = "m2";
  b.kind = TileKind::Master;
  arch.addTile(a);
  arch.addTile(b);
  EXPECT_THROW(arch.validate(), ModelError);
}

TEST(ArchitectureTest, NocMeshMustCoverTiles) {
  Architecture arch;
  for (int i = 0; i < 5; ++i) {
    Tile t;
    t.name = "t";
    t.name += std::to_string(i);
    arch.addTile(t);
  }
  arch.setInterconnect(InterconnectKind::NocMesh);
  arch.noc().rows = 2;
  arch.noc().cols = 2;  // 4 < 5 tiles
  EXPECT_THROW(arch.validate(), ModelError);
  arch.noc().cols = 3;
  EXPECT_NO_THROW(arch.validate());
}

TEST(ArchitectureTest, ZeroSlotTdmWheelIsRejected) {
  Architecture arch;
  Tile t;
  t.name = "t0";
  t.tdm.slotsPerWheel = 0;
  arch.addTile(t);
  EXPECT_THROW(arch.validate(), ModelError);
}

TEST(ArchitectureTest, HardwareIpCannotRunATdmScheduler) {
  Architecture arch;
  Tile ip;
  ip.name = "accel";
  ip.kind = TileKind::HardwareIp;
  ip.tdm.slotsPerWheel = 4;
  arch.addTile(ip);
  EXPECT_THROW(arch.validate(), ModelError);
  // The degenerate 1-slot wheel (no sharing) stays legal on IP tiles.
  Architecture ok;
  ip.tdm.slotsPerWheel = 1;
  ok.addTile(ip);
  EXPECT_NO_THROW(ok.validate());
}

TEST(ArchitectureTest, WithTdmConfiguresProcessorTilesOnly) {
  const Architecture arch =
      generateFromTemplate(withTdm(heterogeneousPreset(4, {"accel"}), 4, 200));
  for (TileId t = 0; t < arch.tileCount(); ++t) {
    if (arch.tile(t).kind == TileKind::HardwareIp) {
      EXPECT_EQ(arch.tile(t).tdm, TdmConfig{});
    } else {
      EXPECT_EQ(arch.tile(t).tdm.slotsPerWheel, 4u);
      EXPECT_EQ(arch.tile(t).tdm.wheelOverheadCycles, 200u);
      EXPECT_TRUE(arch.tile(t).tdm.shared());
    }
  }
}

TEST(ArchitectureTest, KindNamesRoundTrip) {
  for (const TileKind kind : {TileKind::Master, TileKind::Slave, TileKind::CommAssist,
                              TileKind::HardwareIp}) {
    EXPECT_EQ(tileKindFromName(tileKindName(kind)), kind);
  }
  EXPECT_THROW((void)tileKindFromName("bogus"), ParseError);
  for (const InterconnectKind kind : {InterconnectKind::Fsl, InterconnectKind::NocMesh}) {
    EXPECT_EQ(interconnectKindFromName(interconnectKindName(kind)), kind);
  }
}

// ---------------------------------------------------------------- Template

TEST(TemplateTest, GeneratesRequestedTileCount) {
  TemplateRequest request;
  request.tileCount = 4;
  const Architecture arch = generateFromTemplate(request);
  EXPECT_EQ(arch.tileCount(), 4u);
  EXPECT_EQ(arch.tile(0).kind, TileKind::Master);
  EXPECT_EQ(arch.tile(1).kind, TileKind::Slave);
}

TEST(TemplateTest, CommAssistTiles) {
  TemplateRequest request;
  request.tileCount = 3;
  request.withCommAssist = true;
  const Architecture arch = generateFromTemplate(request);
  EXPECT_EQ(arch.tile(0).kind, TileKind::Master);
  EXPECT_EQ(arch.tile(1).kind, TileKind::CommAssist);
  EXPECT_EQ(arch.tile(2).kind, TileKind::CommAssist);
}

TEST(TemplateTest, NocMeshNearSquare) {
  TemplateRequest request;
  request.tileCount = 6;
  request.interconnect = InterconnectKind::NocMesh;
  const Architecture arch = generateFromTemplate(request);
  EXPECT_EQ(arch.noc().rows * arch.noc().cols, 6u);
  EXPECT_EQ(arch.noc().rows, 2u);
  EXPECT_EQ(arch.noc().cols, 3u);
}

TEST(TemplateTest, ZeroTilesThrows) {
  TemplateRequest request;
  request.tileCount = 0;
  EXPECT_THROW(generateFromTemplate(request), ModelError);
}

class NearSquareTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NearSquareTest, CoversAndStaysNearSquare) {
  const std::uint32_t n = GetParam();
  const auto [rows, cols] = nearSquareMesh(n);
  EXPECT_GE(rows * cols, n);
  EXPECT_LE(rows, cols);
  // Near-square: the aspect gap stays small.
  EXPECT_LE(cols - rows, (n < 4 ? 3u : (cols + 1) / 2));
  // Minimality of the column count for the chosen row count.
  if (n > 0) {
    EXPECT_LT(rows * (cols - 1), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NearSquareTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 25, 60));

// ------------------------------------------------------------ NocTopology

TEST(NocTopologyTest, LinkEnumeration) {
  NocConfig config;
  config.rows = 2;
  config.cols = 2;
  const NocTopology topo(config);
  EXPECT_EQ(topo.routerCount(), 4u);
  // 2x2 mesh: 4 undirected edges -> 8 directed links.
  EXPECT_EQ(topo.linkCount(), 8u);
}

TEST(NocTopologyTest, CoordMapping) {
  NocConfig config;
  config.rows = 2;
  config.cols = 3;
  const NocTopology topo(config);
  EXPECT_EQ(topo.coordOf(0), (MeshCoord{0, 0}));
  EXPECT_EQ(topo.coordOf(4), (MeshCoord{1, 1}));
  EXPECT_EQ(topo.routerAt({2, 1}), 5u);
  EXPECT_THROW((void)topo.coordOf(6), ModelError);
}

TEST(NocTopologyTest, XyRouteGoesXFirst) {
  NocConfig config;
  config.rows = 3;
  config.cols = 3;
  const NocTopology topo(config);
  // Router 0 (0,0) to router 8 (2,2): x,x then y,y.
  const auto route = topo.xyRoute(0, 8);
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(topo.link(route[0]).fromRouter, 0u);
  EXPECT_EQ(topo.link(route[0]).toRouter, 1u);
  EXPECT_EQ(topo.link(route[1]).toRouter, 2u);
  EXPECT_EQ(topo.link(route[2]).toRouter, 5u);
  EXPECT_EQ(topo.link(route[3]).toRouter, 8u);
}

TEST(NocTopologyTest, RouteLengthEqualsHopDistance) {
  NocConfig config;
  config.rows = 3;
  config.cols = 4;
  const NocTopology topo(config);
  for (std::uint32_t a = 0; a < topo.routerCount(); ++a) {
    for (std::uint32_t b = 0; b < topo.routerCount(); ++b) {
      EXPECT_EQ(topo.xyRoute(a, b).size(), topo.hopDistance(a, b));
    }
  }
}

TEST(NocTopologyTest, EmptyRouteForSameRouter) {
  NocConfig config;
  config.rows = 2;
  config.cols = 2;
  const NocTopology topo(config);
  EXPECT_TRUE(topo.xyRoute(3, 3).empty());
}

TEST(NocTopologyTest, CyclesPerWord) {
  EXPECT_EQ(cyclesPerWord(32), 1u);
  EXPECT_EQ(cyclesPerWord(16), 2u);
  EXPECT_EQ(cyclesPerWord(8), 4u);
  EXPECT_EQ(cyclesPerWord(1), 32u);
  EXPECT_EQ(cyclesPerWord(5), 7u);
  EXPECT_THROW((void)cyclesPerWord(0), ModelError);
}

// -------------------------------------------------------------------- Area

TEST(AreaTest, FlowControlAddsTwelvePercent) {
  NocConfig with;
  with.flowControl = true;
  NocConfig without = with;
  without.flowControl = false;
  const double ratio = static_cast<double>(nocRouterSlices(with)) /
                       static_cast<double>(nocRouterSlices(without));
  EXPECT_NEAR(ratio, 1.12, 0.005);
}

TEST(AreaTest, TileKindsHaveDistinctAreas) {
  Tile master{.name = "m", .kind = TileKind::Master};
  Tile slave{.name = "s", .kind = TileKind::Slave};
  Tile ca{.name = "c", .kind = TileKind::CommAssist};
  Tile ip{.name = "i", .kind = TileKind::HardwareIp};
  EXPECT_GT(tileSlices(master), tileSlices(slave));
  EXPECT_GT(tileSlices(ca), tileSlices(slave));
  EXPECT_LT(tileSlices(ip), tileSlices(slave));
}

TEST(AreaTest, TdmWheelChargesPerSlotSlices) {
  // A shared wheel is not free silicon: the slot table, the timer, and
  // the per-slot context cost slices. The model charges one
  // tdmSlotSlices term per slot beyond the first, so a 1-slot (i.e.
  // unshared) tile pays nothing extra.
  Tile plain{.name = "p", .kind = TileKind::Slave};
  Tile shared = plain;
  shared.tdm.slotsPerWheel = 4;
  const AreaModel model;
  EXPECT_EQ(tileSlices(plain, model) + 3 * model.tdmSlotSlices, tileSlices(shared, model));

  // Hardware IP tiles never run the scheduler and never pay for it.
  Tile ip{.name = "i", .kind = TileKind::HardwareIp};
  Tile ipTdm = ip;
  ipTdm.tdm.slotsPerWheel = 4;  // ignored by the model (validate rejects it anyway)
  EXPECT_EQ(tileSlices(ip, model), tileSlices(ipTdm, model));
}

TEST(AreaTest, PlatformAreaSumsComponents) {
  TemplateRequest request;
  request.tileCount = 2;
  const Architecture arch = generateFromTemplate(request);
  const std::uint32_t total = platformSlices(arch, /*fslLinkCount=*/3);
  const AreaModel model;
  EXPECT_EQ(total, tileSlices(arch.tile(0)) + tileSlices(arch.tile(1)) + 3 * model.fslLinkSlices);
}

TEST(AreaTest, NocAreaScalesWithMesh) {
  TemplateRequest request;
  request.tileCount = 4;
  request.interconnect = InterconnectKind::NocMesh;
  const Architecture small = generateFromTemplate(request);
  request.tileCount = 9;
  const Architecture large = generateFromTemplate(request);
  EXPECT_GT(interconnectSlices(large, 0), interconnectSlices(small, 0));
}

// ---------------------------------------------------------------------- IO

TEST(PlatformIoTest, ArchitectureRoundTripFsl) {
  TemplateRequest request;
  request.tileCount = 3;
  const Architecture original = generateFromTemplate(request);
  const Architecture reparsed = architectureFromString(architectureToXml(original));
  EXPECT_EQ(reparsed.name(), original.name());
  ASSERT_EQ(reparsed.tileCount(), original.tileCount());
  for (TileId t = 0; t < original.tileCount(); ++t) {
    EXPECT_EQ(reparsed.tile(t).name, original.tile(t).name);
    EXPECT_EQ(reparsed.tile(t).kind, original.tile(t).kind);
    EXPECT_EQ(reparsed.tile(t).memory.instrBytes, original.tile(t).memory.instrBytes);
  }
  EXPECT_EQ(reparsed.interconnect(), InterconnectKind::Fsl);
  EXPECT_EQ(reparsed.fsl().fifoDepthWords, original.fsl().fifoDepthWords);
}

TEST(PlatformIoTest, ArchitectureRoundTripNoc) {
  TemplateRequest request;
  request.tileCount = 6;
  request.interconnect = InterconnectKind::NocMesh;
  request.nocWiresPerLink = 16;
  const Architecture original = generateFromTemplate(request);
  const Architecture reparsed = architectureFromString(architectureToXml(original));
  EXPECT_EQ(reparsed.interconnect(), InterconnectKind::NocMesh);
  EXPECT_EQ(reparsed.noc().rows, original.noc().rows);
  EXPECT_EQ(reparsed.noc().cols, original.noc().cols);
  EXPECT_EQ(reparsed.noc().wiresPerLink, 16u);
  EXPECT_EQ(reparsed.noc().flowControl, true);
}

TEST(PlatformIoTest, TdmConfigRoundTripsBitIdentically) {
  // write -> read -> write: the serialized form is a fixed point, so
  // TDM attributes survive any number of save/load cycles unchanged.
  const Architecture original =
      generateFromTemplate(withTdm(heterogeneousPreset(4, {"accel"}), 4, 200));
  const std::string xml = architectureToXml(original);
  const Architecture reparsed = architectureFromString(xml);
  ASSERT_EQ(reparsed.tileCount(), original.tileCount());
  for (TileId t = 0; t < original.tileCount(); ++t) {
    EXPECT_EQ(reparsed.tile(t).tdm, original.tile(t).tdm);
  }
  EXPECT_EQ(architectureToXml(reparsed), xml);
}

TEST(PlatformIoTest, AbsentTdmAttributesDefaultToAnExclusiveTile) {
  // Pre-TDM architecture files carry no tdm attributes; they must load
  // as 1-slot (exclusive) wheels, and writing them back must not
  // invent the attributes — old files stay byte-stable.
  TemplateRequest request;
  request.tileCount = 3;
  const Architecture original = generateFromTemplate(request);
  const std::string xml = architectureToXml(original);
  EXPECT_EQ(xml.find("tdmSlots"), std::string::npos);
  const Architecture reparsed = architectureFromString(xml);
  for (TileId t = 0; t < reparsed.tileCount(); ++t) {
    EXPECT_EQ(reparsed.tile(t).tdm, TdmConfig{});
    EXPECT_FALSE(reparsed.tile(t).tdm.shared());
  }
  EXPECT_EQ(architectureToXml(reparsed), xml);
}

TEST(PlatformIoTest, AttributesAbove32BitsThrowInsteadOfTruncating) {
  // A narrowing cast would wrap 2^32 + 1 to 1 and read a 4-slot TDM
  // wheel back as an exclusive tile; the reader must refuse it.
  const std::string xml =
      architectureToXml(generateFromTemplate(withTdm(heterogeneousPreset(4, {"accel"}), 4, 200)));
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = xml;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? out : out.replace(at, from.size(), to);
  };
  EXPECT_NO_THROW(architectureFromString(xml));
  EXPECT_THROW(architectureFromString(replaced("tdmSlots=\"4\"", "tdmSlots=\"4294967297\"")),
               ParseError);
  // Prefixing digits pushes a memory size past 32 bits.
  EXPECT_THROW(architectureFromString(replaced("instrMem=\"", "instrMem=\"4294967296")),
               ParseError);
}

TEST(PlatformIoTest, MalformedArchitectureThrows) {
  EXPECT_THROW(architectureFromString("<architecture/>"), ParseError);  // no interconnect
  EXPECT_THROW(architectureFromString("<other interconnect=\"fsl\"/>"), ParseError);
}

}  // namespace
}  // namespace mamps::platform
