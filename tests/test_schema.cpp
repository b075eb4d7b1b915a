// Unit tests for the attribute-stage association (G_c) and generality
// ranking.
#include "cake/weaken/schema.hpp"

#include <gtest/gtest.h>

#include "cake/workload/types.hpp"

namespace cake::weaken {
namespace {

using event::EventImage;
using value::Value;

TEST(StageSchema, RequiresAtLeastOneStage) {
  EXPECT_THROW(StageSchema("T", {}), std::invalid_argument);
}

TEST(StageSchema, RejectsNonMonotoneStages) {
  // Stage 1 introduces an attribute missing from stage 0.
  EXPECT_THROW(StageSchema("T", {{"a"}, {"a", "b"}}), std::invalid_argument);
  EXPECT_THROW(StageSchema("T", {{"a", "b"}, {"c"}}), std::invalid_argument);
}

TEST(StageSchema, AcceptsMonotoneSubsets) {
  const StageSchema s{"T", {{"a", "b", "c"}, {"a", "b"}, {"a"}, {}}};
  EXPECT_EQ(s.stages(), 4u);
  EXPECT_EQ(s.attributes_at(0).size(), 3u);
  EXPECT_EQ(s.attributes_at(3).size(), 0u);
}

TEST(StageSchema, DropOnePerStageMatchesPaperBiblioLayout) {
  // §5.2: stage 0 all four, then Title, Author, Conference dropped.
  const StageSchema s = StageSchema::drop_one_per_stage(
      "Publication", {"year", "conference", "author", "title"}, 4);
  EXPECT_EQ(s.attributes_at(0),
            (std::vector<std::string>{"year", "conference", "author", "title"}));
  EXPECT_EQ(s.attributes_at(1),
            (std::vector<std::string>{"year", "conference", "author"}));
  EXPECT_EQ(s.attributes_at(2), (std::vector<std::string>{"year", "conference"}));
  EXPECT_EQ(s.attributes_at(3), (std::vector<std::string>{"year"}));
}

TEST(StageSchema, DropOnePerStageClampsAtEmpty) {
  const StageSchema s = StageSchema::drop_one_per_stage("T", {"a", "b"}, 5);
  EXPECT_EQ(s.attributes_at(2).size(), 0u);
  EXPECT_EQ(s.attributes_at(3).size(), 0u);
  EXPECT_EQ(s.attributes_at(4).size(), 0u);
}

TEST(StageSchema, StagesBeyondSchemaClampToWeakest) {
  const StageSchema s = StageSchema::drop_one_per_stage("T", {"a", "b"}, 2);
  EXPECT_EQ(s.attributes_at(1), (std::vector<std::string>{"a"}));
  EXPECT_EQ(s.attributes_at(10), (std::vector<std::string>{"a"}));
}

TEST(StageSchema, ZeroStagesThrows) {
  EXPECT_THROW(StageSchema::drop_one_per_stage("T", {"a"}, 0),
               std::invalid_argument);
}

TEST(StageSchema, FromTypeInfoUsesDeclarationOrder) {
  workload::ensure_types_registered();
  const auto& type = reflect::TypeRegistry::global().get("Stock");
  const StageSchema s = StageSchema::drop_one_per_stage(type, 3);
  EXPECT_EQ(s.type_name(), "Stock");
  EXPECT_EQ(s.attributes_at(0),
            (std::vector<std::string>{"symbol", "price", "volume"}));
  EXPECT_EQ(s.attributes_at(2), (std::vector<std::string>{"symbol"}));
}

TEST(StageSchema, EncodeDecodeRoundTrip) {
  const StageSchema s = StageSchema::drop_one_per_stage("T", {"a", "b", "c"}, 4);
  wire::Writer w;
  s.encode(w);
  wire::Reader r{w.bytes()};
  EXPECT_EQ(StageSchema::decode(r), s);
}

TEST(RankByGenerality, LowCardinalityFirst) {
  std::vector<EventImage> sample;
  for (int i = 0; i < 30; ++i) {
    sample.push_back(EventImage{
        "T",
        {{"year", Value{2000 + i % 3}},  // 3 distinct values
         {"author",                      // 10 distinct
          Value{std::string{"a"}.append(std::to_string(i % 10))}},
         {"title",                       // 30 distinct
          Value{std::string{"t"}.append(std::to_string(i))}}}});
  }
  const auto ranked =
      rank_by_generality(sample, {"title", "year", "author"});
  EXPECT_EQ(ranked, (std::vector<std::string>{"year", "author", "title"}));
}

TEST(RankByGenerality, TiesKeepInputOrder) {
  std::vector<EventImage> sample{
      EventImage{"T", {{"a", Value{1}}, {"b", Value{2}}}}};
  EXPECT_EQ(rank_by_generality(sample, {"b", "a"}),
            (std::vector<std::string>{"b", "a"}));
}

TEST(RankByGenerality, MissingAttributesCountZeroDistinct) {
  std::vector<EventImage> sample{EventImage{"T", {{"a", Value{1}}}}};
  const auto ranked = rank_by_generality(sample, {"a", "ghost"});
  EXPECT_EQ(ranked.front(), "ghost");  // zero distinct values = most general
}

TEST(RankByGenerality, EmptySampleKeepsOrder) {
  EXPECT_EQ(rank_by_generality({}, {"x", "y"}),
            (std::vector<std::string>{"x", "y"}));
}

}  // namespace
}  // namespace cake::weaken
