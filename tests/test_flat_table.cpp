// util::FlatTable against std::unordered_map: the same inserts and erases,
// in a random order dense enough to grow the table and to make erase shift
// long probe runs, leave both holding the same entries.
#include "cake/util/flat_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "cake/util/rng.hpp"

namespace cake::util {
namespace {

TEST(FlatTable, AgreesWithUnorderedMapUnderRandomInsertsAndErases) {
  FlatTable<std::uint32_t, std::uint64_t> table;
  std::unordered_map<std::uint32_t, std::uint64_t> model;
  Rng rng{2002};
  for (std::uint64_t step = 0; step < 20'000; ++step) {
    // A small key space, so most operations hit keys already present.
    const auto key = static_cast<std::uint32_t>(rng.below(600) * 977);
    if (rng.chance(0.45)) {
      table.erase(key);
      model.erase(key);
    } else {
      table.try_emplace(key) += step;
      model[key] += step;
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
  }
  for (std::uint32_t k = 0; k < 600; ++k) {
    const std::uint32_t key = k * 977;
    const auto it = model.find(key);
    const std::uint64_t* found = table.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << "key " << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second) << "key " << key;
    }
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(977), nullptr);
}

TEST(FlatTable, TheEmptyMarkerIsNeverFound) {
  FlatTable<std::uint64_t, int> table;
  EXPECT_EQ(table.find(FlatTable<std::uint64_t, int>::kEmpty), nullptr);
  table.try_emplace(7, 1);
  EXPECT_EQ(table.find(FlatTable<std::uint64_t, int>::kEmpty), nullptr);
  EXPECT_EQ(*table.find(7), 1);
}

}  // namespace
}  // namespace cake::util
