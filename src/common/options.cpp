#include "common/options.hpp"

#include <cstdlib>
#include <string_view>

namespace gridadmm {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = std::string("1");
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool Options::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int Options::get_int(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atoi(it->second.c_str());
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

std::optional<std::string> Options::env(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

bool Options::env_flag(const std::string& name) {
  const auto v = env(name);
  return v && (*v == "1" || *v == "true" || *v == "yes");
}

}  // namespace gridadmm
