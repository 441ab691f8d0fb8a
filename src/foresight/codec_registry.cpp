#include "foresight/codec_registry.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "foresight/compressor.hpp"  // complete Compressor for unique_ptr use

namespace cosmo::foresight {

namespace {

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

}  // namespace

bool CodecCapabilities::supports_mode(const std::string& mode) const {
  return std::find(modes.begin(), modes.end(), mode) != modes.end();
}

std::string CodecCapabilities::modes_label() const { return join(modes); }

void CodecCapabilities::require_mode(const std::string& mode) const {
  if (!supports_mode(mode)) {
    throw InvalidArgument(name + ": unsupported mode '" + mode +
                          "' (supported: " + modes_label() + ")");
  }
}

CodecRegistry& CodecRegistry::instance() {
  // The hooks take the registry by reference: calling instance() from
  // inside them would re-enter this initializer.
  static CodecRegistry registry = [] {
    CodecRegistry r;
    detail::register_paper_codecs(r);
    detail::register_fz_codecs(r);
    return r;
  }();
  return registry;
}

void CodecRegistry::add(CodecCapabilities caps, Factory factory) {
  require(!caps.name.empty(), "codec registry: empty codec name");
  require(!caps.modes.empty(), "codec registry: '" + caps.name + "' registers no modes");
  require(static_cast<bool>(factory), "codec registry: '" + caps.name + "' has no factory");
  require(find(caps.name) == nullptr,
          "codec registry: duplicate registration of '" + caps.name + "'");
  entries_.push_back({std::move(caps), std::move(factory)});
}

bool CodecRegistry::contains(const std::string& name) const { return find(name) != nullptr; }

const CodecRegistry::Entry* CodecRegistry::find(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.caps.name == name) return &entry;
  }
  return nullptr;
}

std::string CodecRegistry::names_label() const { return join(names()); }

const CodecCapabilities& CodecRegistry::capabilities(const std::string& name) const {
  const Entry* entry = find(name);
  if (entry == nullptr) {
    throw InvalidArgument("codec registry: unknown compressor '" + name +
                          "' (registered: " + names_label() + ")");
  }
  return entry->caps;
}

std::unique_ptr<Compressor> CodecRegistry::make(const std::string& name,
                                                gpu::GpuSimulator* sim) const {
  const Entry* entry = find(name);
  if (entry == nullptr) {
    throw InvalidArgument("make_compressor: unknown compressor '" + name +
                          "' (registered: " + names_label() + ")");
  }
  if (entry->caps.needs_device && sim == nullptr) {
    throw InvalidArgument("make_compressor: '" + name + "' needs a GPU simulator");
  }
  return entry->factory(sim);
}

std::vector<std::string> CodecRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.caps.name);
  return out;
}

}  // namespace cosmo::foresight
