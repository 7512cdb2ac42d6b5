// Wall-clock ns/packet for filter execution, all routed through pf::Engine —
// the §4 "inner loop is quite busy" code, plus the §7 improvements this
// repository implements as Engine strategies:
//   * kChecked vs kFast: run-time checking vs ahead-of-time validation,
//   * kFast vs kPredecoded: bind-time pre-decode removes the remaining
//     per-instruction word splitting and literal fetches,
//   * kTree / kIndexed: one decision-tree walk / hash probe where eligible,
//   * kCompiled: bind-time compilation to fused ops (DESIGN.md §15) —
//     constant folding, push+compare fusion, mask folding, dead-code
//     elimination, and a hoisted short-packet guard,
//   * short-circuit operators (fig. 3-8 vs fig. 3-9 on hit/miss traffic),
//   * filter length sweep (the table 6-10 shape in nanoseconds).
//
// Rows land in the observatory's `wall` tolerance class ("ns"-leading unit),
// so the baseline gate only enforces them on Release, sanitizer-free hosts.
//
// `--check` (and any pfbench sweep) evaluates the kCompiled regression gate:
// on the long-filter shapes, kCompiled must stay at least 2x faster than
// kFast. The gate is enforced only on a sanitizer-free Release-family build;
// elsewhere the ratios print as informational.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/pf/builder.h"
#include "src/pf/engine.h"
#include "tests/test_packets.h"

namespace {

constexpr pf::Engine::Key kKey = 1;

const std::vector<uint8_t>& MatchingPacket() {
  static const std::vector<uint8_t> packet = pftest::MakePupFrame(50, 35, 2, 1, 64);
  return packet;
}
const std::vector<uint8_t>& NonMatchingPacket() {
  static const std::vector<uint8_t> packet = pftest::MakePupFrame(50, 9999, 2, 1, 64);
  return packet;
}

// The table 6-10 shape: a constant chain of n instructions. Entirely
// compile-time-constant, so kCompiled folds it to a single verdict op.
pf::Program LengthN(int n) {
  pf::FilterBuilder b;
  if (n > 0) {
    b.PushOne();
    for (int i = 1; i < n; ++i) {
      b.ConstOp(pf::StackAction::kPushOne, pf::BinaryOp::kAnd);
    }
  }
  return b.Build(10);
}

// A long short-circuit conjunction over live packet words (terms cycle
// through the three fig. 3-9 tests, all true on MatchingPacket). Every load
// is dynamic, so nothing folds — this measures push+compare fusion and the
// hoisted guard, not constant folding.
pf::Program ConjunctionN(int terms) {
  static const uint8_t kWords[] = {8, 7, 1};
  static const uint16_t kValues[] = {35, 0, 2};
  pf::FilterBuilder b;
  for (int i = 0; i < terms; ++i) {
    const int t = i % 3;
    if (i + 1 < terms) {
      b.PushWord(kWords[t]).Lit(pf::BinaryOp::kCand, kValues[t]);
    } else {
      b.PushWord(kWords[t]).Lit(pf::BinaryOp::kEq, kValues[t]);
    }
  }
  return b.Build(10);
}

// Fig. 3-8 style miss: plain EQ + AND, no short-circuits, so a miss still
// walks the whole program.
pf::Program NoShortCircuit() {
  pf::FilterBuilder b;
  b.WordEquals(8, 35).WordEquals(7, 0).Op(pf::BinaryOp::kAnd).WordEquals(1, 2).Op(
      pf::BinaryOp::kAnd);
  return b.Build(10);
}

// v2 indirect push (§7): the variable-offset read the paper wished for.
pf::Program IndirectPush() {
  pf::FilterBuilder b(pf::LangVersion::kV2);
  b.PushLit(2).Lit(pf::BinaryOp::kAdd, 4).IndOp().Lit(pf::BinaryOp::kEq, 0);
  return b.Build(10);
}

// One bound filter, one packet, one strategy: warm up, then time the
// Match+Test hot loop with the steady clock. Reported as the minimum over
// several repetitions — the noise-robust estimator, since scheduler and
// cache interference only ever add time.
double MeasureNsPerPacket(pf::Strategy strategy, const pf::Program& program,
                          const std::vector<uint8_t>& packet) {
  pf::Engine engine(strategy);
  engine.Bind(kKey, *pf::ValidatedProgram::Create(program));

  uint64_t accepted = 0;
  constexpr int kWarmup = 2048;
  for (int i = 0; i < kWarmup; ++i) {
    pf::Engine::MatchPass pass = engine.Match(packet);
    accepted += pass.Test(kKey).accept ? 1 : 0;
  }

  constexpr int kReps = 5;
  constexpr int kIters = 16384;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      pf::Engine::MatchPass pass = engine.Match(packet);
      accepted += pass.Test(kKey).accept ? 1 : 0;
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()) /
        kIters;
    best = ns < best ? ns : best;
  }
  // Keep the verdicts observable so the loop cannot be elided.
  if (accepted == static_cast<uint64_t>(-1)) {
    std::printf("unreachable\n");
  }
  return best;
}

struct Shape {
  std::string name;
  pf::Program program;
  const std::vector<uint8_t>* packet;
  bool long_shape;  // participates in the kCompiled >= 2x gate
};

}  // namespace

static int BenchMain(int argc, char** argv) {
  bool check = pfbench::CaptureActive();  // sweeps always evaluate the gates
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }

  const std::vector<Shape> shapes = {
      {"fig38 hit", pf::PaperFig38Filter(), &MatchingPacket(), false},
      {"fig39 hit", pf::PaperFig39Filter(), &MatchingPacket(), false},
      {"fig39 miss", pf::PaperFig39Filter(), &NonMatchingPacket(), false},
      {"no-sc miss", NoShortCircuit(), &NonMatchingPacket(), false},
      {"indirect v2", IndirectPush(), &MatchingPacket(), false},
      {"len 21 const", LengthN(21), &MatchingPacket(), false},
      {"len 101 const", LengthN(101), &MatchingPacket(), true},
      {"conj 21 hit", ConjunctionN(21), &MatchingPacket(), true},
  };

  const double nan = std::nan("");
  std::vector<pfbench::Row> rows;
  struct Ratio {
    std::string shape;
    double fast_ns = 0;
    double compiled_ns = 0;
  };
  std::vector<Ratio> gate;

  for (const Shape& shape : shapes) {
    Ratio ratio;
    ratio.shape = shape.name;
    for (const pf::Strategy strategy : pf::kAllStrategies) {
      const double ns = MeasureNsPerPacket(strategy, shape.program, *shape.packet);
      char label[64];
      std::snprintf(label, sizeof(label), "%-14s %s", shape.name.c_str(),
                    pf::ToString(strategy).c_str());
      rows.push_back({label, nan, ns});
      if (strategy == pf::Strategy::kFast) {
        ratio.fast_ns = ns;
      }
      if (strategy == pf::Strategy::kCompiled) {
        ratio.compiled_ns = ns;
      }
    }
    if (shape.long_shape) {
      gate.push_back(ratio);
    }
  }

  pfbench::PrintTable("Filter execution wall clock (host CPU)",
                      "§4 inner loop; §7 improvements as Engine strategies", "ns/packet",
                      rows);
  pfbench::PrintNote(
      "Long shapes are the kCompiled showcase: 'len 101 const' folds to one "
      "verdict op, 'conj 21 hit' fuses every push+compare pair.");

  if (check) {
    // Under -O0 or ASan/UBSan the interpreters' bounds checks and shadow
    // traffic dominate, so the gate would measure the sanitizer.
    const bool enforce = pfbench::HostGatesArmed();
    bool ok = true;
    for (const Ratio& r : gate) {
      const double speedup = r.compiled_ns > 0 ? r.fast_ns / r.compiled_ns : 0;
      std::printf("check: %-14s kFast = %.1f ns, kCompiled = %.1f ns, speedup = %.2fx "
                  "(need >= 2x)%s\n",
                  r.shape.c_str(), r.fast_ns, r.compiled_ns, speedup,
                  enforce ? "" : " [informational: non-Release or sanitized build]");
      if (enforce) {
        std::string slug = r.shape;
        for (char& c : slug) {
          if (c == ' ') c = '_';
        }
        pfbench::ReportCheck("micro_interpreter.compiled_2x." + slug, speedup >= 2.0);
        ok = ok && speedup >= 2.0;
      }
    }
    if (!ok) {
      std::printf("check FAILED\n");
      return 1;
    }
    std::printf("check passed\n");
  }
  return 0;
}

PFBENCH_MAIN("micro_interpreter", BenchMain)
