// Ledger semantics (Charge/total/count/Reset/grand_total), the name/slug
// coverage of every Cost enumerator, and the Ledger -> MetricsRegistry
// bridge (src/obs).
#include "src/kernel/ledger.h"

#include <gtest/gtest.h>

#include <set>

#include "src/obs/metrics.h"

namespace {

using pfkern::Cost;
using pfkern::Ledger;
using pfsim::Microseconds;
using pfsim::Milliseconds;

TEST(LedgerTest, StartsEmpty) {
  Ledger ledger;
  for (size_t i = 0; i < static_cast<size_t>(Cost::kCount); ++i) {
    const auto category = static_cast<Cost>(i);
    EXPECT_EQ(ledger.total(category).count(), 0) << pfkern::ToString(category);
    EXPECT_EQ(ledger.count(category), 0u) << pfkern::ToString(category);
  }
  EXPECT_EQ(ledger.grand_total().count(), 0);
}

TEST(LedgerTest, ChargeAccumulatesPerCategory) {
  Ledger ledger;
  ledger.Charge(Cost::kSyscall, Microseconds(100));
  ledger.Charge(Cost::kSyscall, Microseconds(150));
  ledger.Charge(Cost::kCopy, Microseconds(40));

  EXPECT_EQ(ledger.total(Cost::kSyscall), Microseconds(250));
  EXPECT_EQ(ledger.count(Cost::kSyscall), 2u);
  EXPECT_EQ(ledger.total(Cost::kCopy), Microseconds(40));
  EXPECT_EQ(ledger.count(Cost::kCopy), 1u);
  // Untouched categories stay zero.
  EXPECT_EQ(ledger.total(Cost::kFilterEval).count(), 0);
  EXPECT_EQ(ledger.count(Cost::kFilterEval), 0u);
}

TEST(LedgerTest, GrandTotalSumsEveryCategory) {
  Ledger ledger;
  ledger.Charge(Cost::kInterrupt, Microseconds(400));
  ledger.Charge(Cost::kFilterEval, Microseconds(35));
  ledger.Charge(Cost::kContextSwitch, Microseconds(400));
  EXPECT_EQ(ledger.grand_total(), Microseconds(835));
}

TEST(LedgerTest, ResetZeroesEverything) {
  Ledger ledger;
  ledger.Charge(Cost::kIpInput, Milliseconds(1));
  ledger.Charge(Cost::kChecksum, Milliseconds(2));
  ledger.Reset();
  EXPECT_EQ(ledger.grand_total().count(), 0);
  EXPECT_EQ(ledger.count(Cost::kIpInput), 0u);
  EXPECT_EQ(ledger.total(Cost::kChecksum).count(), 0);
}

// Every enumerator must render to a real name and slug; a newly added Cost
// without a switch case falls through to "?" and fails here.
TEST(LedgerTest, EveryCategoryHasAName) {
  std::set<std::string> names;
  std::set<std::string> slugs;
  for (size_t i = 0; i < static_cast<size_t>(Cost::kCount); ++i) {
    const auto category = static_cast<Cost>(i);
    const std::string name = pfkern::ToString(category);
    const std::string slug = pfkern::ToSlug(category);
    EXPECT_NE(name, "?") << "Cost enumerator " << i << " has no ToString case";
    EXPECT_NE(slug, "?") << "Cost enumerator " << i << " has no ToSlug case";
    names.insert(name);
    slugs.insert(slug);
    // Slugs are metric-name segments: lowercase identifiers, no spaces.
    for (const char c : slug) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_') << slug;
    }
  }
  // All distinct (a copy-pasted case would collapse two categories).
  EXPECT_EQ(names.size(), static_cast<size_t>(Cost::kCount));
  EXPECT_EQ(slugs.size(), static_cast<size_t>(Cost::kCount));
}

// The hash-dispatch category, pinned by name so the metric names the docs
// and dashboards use ("ledger.index_probe.*") cannot drift silently.
// (EveryCategoryHasAName already proves it exists.)
TEST(LedgerTest, IndexProbeCategoryIsNamed) {
  EXPECT_EQ(pfkern::ToString(Cost::kIndexProbe), "index probe");
  EXPECT_EQ(pfkern::ToSlug(Cost::kIndexProbe), "index_probe");
}

TEST(LedgerTest, FormatListsChargedCategoriesOnly) {
  Ledger ledger;
  ledger.Charge(Cost::kFilterEval, Microseconds(35));
  const std::string text = ledger.Format();
  EXPECT_NE(text.find("filter evaluation"), std::string::npos);
  EXPECT_EQ(text.find("syscall crossing"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
}

TEST(LedgerTest, ExportToWritesGauges) {
  Ledger ledger;
  ledger.Charge(Cost::kFilterEval, Microseconds(35));
  ledger.Charge(Cost::kFilterEval, Microseconds(65));
  ledger.Charge(Cost::kCopy, Microseconds(10));

  pfobs::MetricsRegistry registry;
  ledger.ExportTo(&registry);

  const pfobs::Gauge* total = registry.FindGauge("ledger.filter_eval.total_ns");
  const pfobs::Gauge* charges = registry.FindGauge("ledger.filter_eval.charges");
  const pfobs::Gauge* grand = registry.FindGauge("ledger.grand_total_ns");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(charges, nullptr);
  ASSERT_NE(grand, nullptr);
  EXPECT_EQ(total->value(), Microseconds(100).count());
  EXPECT_EQ(charges->value(), 2);
  EXPECT_EQ(grand->value(), Microseconds(110).count());
  // Unused categories are not exported.
  EXPECT_EQ(registry.FindGauge("ledger.syscall.total_ns"), nullptr);

  // Re-export after more charges overwrites (gauges, not counters).
  ledger.Charge(Cost::kFilterEval, Microseconds(100));
  ledger.ExportTo(&registry);
  EXPECT_EQ(total->value(), Microseconds(200).count());
  EXPECT_EQ(charges->value(), 3);
}

}  // namespace
