#include "platform/io.hpp"

#include <memory>

#include "support/strings.hpp"
#include "support/xml.hpp"

namespace mamps::platform {

namespace {

/// Comma-join an ordered set of link indices ("0,3,7").
std::string joinIndices(const std::set<std::uint32_t>& indices) {
  std::string joined;
  for (const std::uint32_t index : indices) {
    if (!joined.empty()) {
      joined += ',';
    }
    joined += std::to_string(index);
  }
  return joined;
}

/// Parse a comma-joined index list back into a set.
std::set<std::uint32_t> splitIndices(std::string_view joined) {
  std::set<std::uint32_t> indices;
  for (const std::string& field : split(joined, ',')) {
    indices.insert(parseU32(trim(field)));
  }
  return indices;
}

}  // namespace

std::string architectureToXml(const Architecture& arch) {
  return architectureToXml(arch, FaultState{});
}

std::string architectureToXml(const Architecture& arch, const FaultState& faults) {
  auto root = std::make_unique<xml::Element>("architecture");
  root->setAttribute("name", arch.name());
  root->setAttribute("interconnect", std::string(interconnectKindName(arch.interconnect())));

  for (TileId id = 0; id < arch.tileCount(); ++id) {
    const Tile& t = arch.tile(id);
    xml::Element& te = root->addChild("tile");
    te.setAttribute("name", t.name);
    te.setAttribute("kind", std::string(tileKindName(t.kind)));
    te.setAttribute("processorType", t.processorType);
    te.setAttribute("instrMem", std::to_string(t.memory.instrBytes));
    te.setAttribute("dataMem", std::to_string(t.memory.dataBytes));
    // TDM attributes are written only when non-default so pre-TDM
    // files round-trip byte-identically.
    if (t.tdm != TdmConfig{}) {
      te.setAttribute("tdmSlots", std::to_string(t.tdm.slotsPerWheel));
      te.setAttribute("tdmOverhead", std::to_string(t.tdm.wheelOverheadCycles));
    }
    // Fault annotations follow the same only-when-present rule, so a
    // healthy platform's document is byte-identical to the legacy form.
    if (faults.tileFailed(id)) {
      te.setAttribute("failed", "true");
    }
    const auto degraded = faults.degradedTdm.find(id);
    if (degraded != faults.degradedTdm.end()) {
      te.setAttribute("degradedTdmSlots", std::to_string(degraded->second.slotsPerWheel));
      te.setAttribute("degradedTdmOverhead",
                      std::to_string(degraded->second.wheelOverheadCycles));
    }
  }

  if (arch.interconnect() == InterconnectKind::NocMesh) {
    xml::Element& ne = root->addChild("noc");
    ne.setAttribute("rows", std::to_string(arch.noc().rows));
    ne.setAttribute("cols", std::to_string(arch.noc().cols));
    ne.setAttribute("wiresPerLink", std::to_string(arch.noc().wiresPerLink));
    ne.setAttribute("hopLatency", std::to_string(arch.noc().hopLatencyCycles));
    ne.setAttribute("connectionBuffer", std::to_string(arch.noc().connectionBufferWords));
    ne.setAttribute("flowControl", arch.noc().flowControl ? "true" : "false");
    if (!faults.failedNocLinks.empty()) {
      std::set<std::uint32_t> indices(faults.failedNocLinks.begin(),
                                      faults.failedNocLinks.end());
      ne.setAttribute("failedLinks", joinIndices(indices));
    }
  } else {
    xml::Element& fe = root->addChild("fsl");
    fe.setAttribute("fifoDepth", std::to_string(arch.fsl().fifoDepthWords));
    fe.setAttribute("latency", std::to_string(arch.fsl().latencyCycles));
    fe.setAttribute("maxLinks", std::to_string(arch.fsl().maxLinks));
    if (!faults.failedFslLinks.empty()) {
      fe.setAttribute("failedLinks", joinIndices(faults.failedFslLinks));
    }
  }
  return xml::Document(std::move(root)).toString();
}

Architecture architectureFromString(const std::string& text) {
  return architectureWithFaultsFromString(text).arch;
}

ArchitectureWithFaults architectureWithFaultsFromString(const std::string& text) {
  const xml::Document doc = xml::parse(text);
  const xml::Element& root = doc.root();
  if (root.name() != "architecture") {
    throw ParseError("expected <architecture>, found <" + root.name() + ">");
  }
  ArchitectureWithFaults out;
  Architecture& arch = out.arch;
  FaultState& faults = out.faults;
  arch.setName(std::string(root.attribute("name").value_or("mamps")));
  arch.setInterconnect(interconnectKindFromName(root.requiredAttribute("interconnect")));

  for (const xml::Element* te : root.childrenNamed("tile")) {
    Tile tile;
    tile.name = std::string(te->requiredAttribute("name"));
    tile.kind = tileKindFromName(te->requiredAttribute("kind"));
    tile.processorType = std::string(te->attribute("processorType").value_or("microblaze"));
    tile.memory.instrBytes = parseU32(te->attribute("instrMem").value_or("65536"));
    tile.memory.dataBytes = parseU32(te->attribute("dataMem").value_or("65536"));
    tile.tdm.slotsPerWheel = parseU32(te->attribute("tdmSlots").value_or("1"));
    tile.tdm.wheelOverheadCycles = parseU32(te->attribute("tdmOverhead").value_or("0"));
    const TileId id = arch.addTile(std::move(tile));
    if (te->attribute("failed").value_or("false") == "true") {
      faults.failedTiles.insert(id);
    }
    if (const auto slots = te->attribute("degradedTdmSlots")) {
      TdmConfig wheel;
      wheel.slotsPerWheel = parseU32(*slots);
      wheel.wheelOverheadCycles = parseU32(te->attribute("degradedTdmOverhead").value_or("0"));
      faults.degradedTdm.emplace(id, wheel);
    }
  }

  if (const xml::Element* ne = root.firstChild("noc")) {
    arch.noc().rows = parseU32(ne->requiredAttribute("rows"));
    arch.noc().cols = parseU32(ne->requiredAttribute("cols"));
    arch.noc().wiresPerLink = parseU32(ne->attribute("wiresPerLink").value_or("32"));
    arch.noc().hopLatencyCycles = parseU32(ne->attribute("hopLatency").value_or("3"));
    arch.noc().connectionBufferWords = parseU32(ne->attribute("connectionBuffer").value_or("4"));
    arch.noc().flowControl = ne->attribute("flowControl").value_or("true") == "true";
    if (const auto failed = ne->attribute("failedLinks")) {
      for (const std::uint32_t index : splitIndices(*failed)) {
        faults.failedNocLinks.insert(index);
      }
    }
  }
  if (const xml::Element* fe = root.firstChild("fsl")) {
    arch.fsl().fifoDepthWords = parseU32(fe->attribute("fifoDepth").value_or("16"));
    arch.fsl().latencyCycles = parseU32(fe->attribute("latency").value_or("1"));
    arch.fsl().maxLinks = parseU32(fe->attribute("maxLinks").value_or("0"));
    if (const auto failed = fe->attribute("failedLinks")) {
      faults.failedFslLinks = splitIndices(*failed);
    }
  }
  arch.validate();
  faults.validate(arch);
  return out;
}

}  // namespace mamps::platform
