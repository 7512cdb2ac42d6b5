// pfbench_compare: diff a fresh pfbench run against a committed baseline
// (bench/baselines/) and exit non-zero on regression.
//
// Tolerance by class (bench/report.h): exact rows, ledger totals, and metric
// counters must match bit-for-bit — they come from the deterministic cost
// model, so drift is a behavioural change that requires re-baselining in the
// same commit. Wall and obs rows are ratio-gated, and only when the fresh
// run is a Release-family non-sanitized build (--gate-host auto); Debug and
// sanitizer runs still validate structure and exact numbers, so the same
// ctest entry passes under the ASan CI job.
//
// Flags:
//   --baseline FILE   committed reference (required)
//   --fresh FILE      freshly generated run (required)
//   --wall-tol X      wall-clock ratio threshold (default 5.0)
//   --obs-tol X       obs tax-ratio threshold (default 2.0)
//   --gate-host MODE  auto (default: from the fresh run's build meta), on, off
//   --perturb PCT     self-test: scale every fresh number by (1 + PCT/100)
//                     before comparing — the pfbench_perturb_check WILL_FAIL
//                     ctest entry proves a +20% shift trips the gate
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/report.h"

namespace {

bool ReadFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* fresh_path = nullptr;
  std::string gate_host = "auto";
  double perturb = 0;
  pfbench::CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(argv[i], "--baseline") == 0) {
      baseline_path = value();
    } else if (std::strcmp(argv[i], "--fresh") == 0) {
      fresh_path = value();
    } else if (std::strcmp(argv[i], "--wall-tol") == 0) {
      const char* v = value();
      if (v == nullptr) return 2;
      options.wall_tol = std::atof(v);
    } else if (std::strcmp(argv[i], "--obs-tol") == 0) {
      const char* v = value();
      if (v == nullptr) return 2;
      options.obs_tol = std::atof(v);
    } else if (std::strcmp(argv[i], "--gate-host") == 0) {
      const char* v = value();
      if (v == nullptr) return 2;
      gate_host = v;
    } else if (std::strcmp(argv[i], "--perturb") == 0) {
      const char* v = value();
      if (v == nullptr) return 2;
      perturb = std::atof(v);
    } else {
      baseline_path = nullptr;
      break;
    }
  }
  if (baseline_path == nullptr || fresh_path == nullptr) {
    std::fprintf(stderr,
                 "usage: pfbench_compare --baseline FILE --fresh FILE\n"
                 "                       [--wall-tol X] [--obs-tol X]\n"
                 "                       [--gate-host auto|on|off] [--perturb PCT]\n");
    return 2;
  }

  std::string baseline_text, fresh_text, error;
  pfbench::RunDoc baseline, fresh;
  if (!ReadFile(baseline_path, &baseline_text)) {
    std::fprintf(stderr, "pfbench_compare: cannot read %s\n", baseline_path);
    return 2;
  }
  if (!ReadFile(fresh_path, &fresh_text)) {
    std::fprintf(stderr, "pfbench_compare: cannot read %s\n", fresh_path);
    return 2;
  }
  if (!pfbench::RunDocFromString(baseline_text, &baseline, &error)) {
    std::fprintf(stderr, "pfbench_compare: baseline %s: %s\n", baseline_path, error.c_str());
    return 2;
  }
  if (!pfbench::RunDocFromString(fresh_text, &fresh, &error)) {
    std::fprintf(stderr, "pfbench_compare: fresh %s: %s\n", fresh_path, error.c_str());
    return 2;
  }

  if (perturb != 0) {
    std::fprintf(stderr, "pfbench_compare: self-test, perturbing fresh run by %+.1f%%\n",
                 perturb);
    pfbench::Perturb(&fresh, perturb);
  }

  if (gate_host == "on") {
    options.gate_host = true;
  } else if (gate_host == "off") {
    options.gate_host = false;
  } else {
    options.gate_host = pfbench::HostGatesArmed(fresh.build_type, fresh.sanitizers);
  }
  if (!options.gate_host) {
    std::fprintf(stderr,
                 "pfbench_compare: host wall/obs gates off (%s build%s) — "
                 "exact rows, ledger, and metrics still gated\n",
                 fresh.build_type.empty() ? "unknown" : fresh.build_type.c_str(),
                 fresh.sanitizers.empty() ? "" : ", sanitized");
  }

  const pfbench::CompareResult result = pfbench::CompareRuns(baseline, fresh, options);
  std::fputs(result.report.c_str(), stdout);
  std::printf("pfbench_compare: %d regression(s), %d improvement(s), %d warning(s)\n",
              result.regressions, result.improvements, result.warnings);
  return result.regressions > 0 ? 1 : 0;
}
