#include "sdf/io.hpp"

#include <fstream>
#include <memory>
#include <sstream>

#include "support/strings.hpp"

namespace mamps::sdf {
namespace {

void graphToElement(const Graph& g, xml::Element& el) {
  el.setAttribute("name", g.name());
  for (const Actor& a : g.actors()) {
    el.addChild("actor").setAttribute("name", a.name);
  }
  for (const Channel& c : g.channels()) {
    xml::Element& ce = el.addChild("channel");
    ce.setAttribute("name", c.name);
    ce.setAttribute("src", g.actor(c.src).name);
    ce.setAttribute("srcRate", std::to_string(c.prodRate));
    ce.setAttribute("dst", g.actor(c.dst).name);
    ce.setAttribute("dstRate", std::to_string(c.consRate));
    if (c.initialTokens != 0) {
      ce.setAttribute("initialTokens", std::to_string(c.initialTokens));
    }
    ce.setAttribute("tokenSize", std::to_string(c.tokenSizeBytes));
  }
}

Rational rationalFromString(std::string_view text) {
  const auto parts = split(text, '/');
  if (parts.size() == 1) {
    return Rational(parseI64(parts[0]));
  }
  if (parts.size() == 2) {
    return {parseI64(parts[0]), parseI64(parts[1])};
  }
  throw ParseError("malformed rational: '" + std::string(text) + "'");
}

}  // namespace

std::string graphToXml(const Graph& g) {
  auto root = std::make_unique<xml::Element>("sdfGraph");
  graphToElement(g, *root);
  return xml::Document(std::move(root)).toString();
}

Graph graphFromXml(const xml::Element& element) {
  if (element.name() != "sdfGraph") {
    throw ParseError("expected <sdfGraph>, found <" + element.name() + ">");
  }
  Graph g(std::string(element.attribute("name").value_or("sdf")));
  for (const xml::Element* a : element.childrenNamed("actor")) {
    g.addActor(std::string(a->requiredAttribute("name")));
  }
  for (const xml::Element* c : element.childrenNamed("channel")) {
    ChannelSpec spec;
    spec.name = std::string(c->attribute("name").value_or(""));
    spec.src = g.actorByName(c->requiredAttribute("src"));
    spec.dst = g.actorByName(c->requiredAttribute("dst"));
    spec.prodRate = parseU32(c->attribute("srcRate").value_or("1"));
    spec.consRate = parseU32(c->attribute("dstRate").value_or("1"));
    spec.initialTokens = parseU64(c->attribute("initialTokens").value_or("0"));
    spec.tokenSizeBytes = parseU32(c->attribute("tokenSize").value_or("4"));
    g.connect(spec);
  }
  g.validate();
  return g;
}

Graph graphFromString(const std::string& text) {
  const xml::Document doc = xml::parse(text);
  return graphFromXml(doc.root());
}

std::string applicationModelToXml(const ApplicationModel& model) {
  auto root = std::make_unique<xml::Element>("applicationModel");
  const Graph& g = model.graph();
  root->setAttribute("name", g.name());
  if (!model.throughputConstraint().isZero()) {
    root->setAttribute("throughputConstraint", model.throughputConstraint().toString());
  }
  graphToElement(g, root->addChild("sdfGraph"));

  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    // Self-edges default to implicit; record only deviations from the
    // default so files stay small.
    const bool deflt = g.channel(c).isSelfEdge();
    if (model.isImplicit(c) != deflt) {
      xml::Element& ce = root->addChild("channelProperties");
      ce.setAttribute("channel", g.channel(c).name);
      ce.setAttribute("implicit", model.isImplicit(c) ? "true" : "false");
    }
  }

  for (ActorId a = 0; a < g.actorCount(); ++a) {
    for (const ActorImplementation& impl : model.implementations(a)) {
      xml::Element& ie = root->addChild("implementation");
      ie.setAttribute("actor", g.actor(a).name);
      ie.setAttribute("function", impl.functionName);
      if (!impl.initFunctionName.empty()) {
        ie.setAttribute("initFunction", impl.initFunctionName);
      }
      ie.setAttribute("processorType", impl.processorType);
      ie.setAttribute("wcet", std::to_string(impl.wcetCycles));
      ie.setAttribute("instrMem", std::to_string(impl.instrMemBytes));
      ie.setAttribute("dataMem", std::to_string(impl.dataMemBytes));
      for (const ChannelId c : impl.argumentChannels) {
        ie.addChild("arg").setAttribute("channel", g.channel(c).name);
      }
    }
  }
  return xml::Document(std::move(root)).toString();
}

ApplicationModel applicationModelFromString(const std::string& text) {
  const xml::Document doc = xml::parse(text);
  const xml::Element& root = doc.root();
  if (root.name() != "applicationModel") {
    throw ParseError("expected <applicationModel>, found <" + root.name() + ">");
  }
  ApplicationModel model(graphFromXml(root.requiredChild("sdfGraph")));
  const Graph& g = model.graph();

  if (const auto tc = root.attribute("throughputConstraint")) {
    model.setThroughputConstraint(rationalFromString(*tc));
  }
  for (const xml::Element* ce : root.childrenNamed("channelProperties")) {
    const auto channel = g.findChannel(ce->requiredAttribute("channel"));
    if (!channel) {
      throw ParseError("channelProperties references unknown channel");
    }
    model.setImplicit(*channel, ce->requiredAttribute("implicit") == "true");
  }
  for (const xml::Element* ie : root.childrenNamed("implementation")) {
    const ActorId actor = g.actorByName(ie->requiredAttribute("actor"));
    ActorImplementation impl;
    impl.functionName = std::string(ie->requiredAttribute("function"));
    impl.initFunctionName = std::string(ie->attribute("initFunction").value_or(""));
    impl.processorType = std::string(ie->requiredAttribute("processorType"));
    impl.wcetCycles = parseU64(ie->requiredAttribute("wcet"));
    impl.instrMemBytes = parseU32(ie->attribute("instrMem").value_or("0"));
    impl.dataMemBytes = parseU32(ie->attribute("dataMem").value_or("0"));
    for (const xml::Element* arg : ie->childrenNamed("arg")) {
      const auto channel = g.findChannel(arg->requiredAttribute("channel"));
      if (!channel) {
        throw ParseError("implementation argument references unknown channel");
      }
      impl.argumentChannels.push_back(*channel);
    }
    model.addImplementation(actor, std::move(impl));
  }
  model.validate();
  return model;
}

ApplicationModel applicationModelFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return applicationModelFromString(buffer.str());
}

}  // namespace mamps::sdf
