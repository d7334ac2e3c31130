#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.dur_us;
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    if (s.excluded) continue;
    LayerTime& t = out[s.name];
    auto it = child_us.find(s.id);
    const double self_us = s.dur_us - (it == child_us.end() ? 0 : it->second);
    t.self_s += self_us * 1e-6;
    t.total_s += s.dur_us * 1e-6;
    ++t.spans;
  }
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path,
                      const std::string& process_name) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (const Span& s : spans) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"query\":%llu",
                 s.name.c_str(), s.excluded ? "bench" : "layer", s.lane,
                 s.start_us, s.dur_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ",\"%s\":%.17g", key.c_str(), value);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
