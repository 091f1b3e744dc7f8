#include "core/api.hpp"

#include <map>
#include <stdexcept>

namespace bento::core {

VerifyReport verify_upload(const script::Program& program,
                           const FunctionManifest& manifest) {
  VerifyReport report;
  report.analysis = script::analyze(program);

  if (const script::Diagnostic* err = report.analysis.first_error()) {
    report.decision = {false, "static analysis failed: " + err->to_string()};
    return report;
  }

  const std::set<sandbox::Syscall> declared(manifest.required.begin(),
                                            manifest.required.end());
  for (const auto& use : report.analysis.required) {
    if (!declared.contains(use.syscall)) {
      report.decision = {
          false, "line " + std::to_string(use.line) + ": function reaches " +
                     use.capability + " but the manifest does not request " +
                     sandbox::to_string(use.syscall)};
      return report;
    }
  }

  if (report.analysis.min_steps > manifest.resources.cpu_instructions) {
    report.decision = {
        false,
        "static instruction lower bound " +
            std::to_string(report.analysis.min_steps) +
            " exceeds the manifest cpu budget " +
            std::to_string(manifest.resources.cpu_instructions)};
    return report;
  }

  return report;
}

ParsedUrl parse_url(const std::string& url) {
  const std::string scheme = "http://";
  if (url.rfind(scheme, 0) != 0) {
    throw std::invalid_argument("parse_url: only http:// URLs supported: " + url);
  }
  std::string rest = url.substr(scheme.size());
  ParsedUrl out;
  const auto slash = rest.find('/');
  std::string host = slash == std::string::npos ? rest : rest.substr(0, slash);
  out.path = slash == std::string::npos ? "/" : rest.substr(slash);
  const auto colon = host.find(':');
  if (colon != std::string::npos) {
    const int port = std::stoi(host.substr(colon + 1));
    if (port <= 0 || port > 65535) throw std::invalid_argument("parse_url: bad port");
    out.endpoint.port = static_cast<tor::Port>(port);
    host = host.substr(0, colon);
  } else {
    out.endpoint.port = 80;
  }
  out.endpoint.addr = tor::parse_addr(host);
  return out;
}

void NativeRegistry::add(const std::string& name, FunctionFactory factory) {
  factories_[name] = std::move(factory);
}

std::unique_ptr<Function> NativeRegistry::create(const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw std::invalid_argument("NativeRegistry: unknown function " + name);
  }
  return it->second();
}

bool NativeRegistry::has(const std::string& name) const {
  return factories_.contains(name);
}

}  // namespace bento::core
