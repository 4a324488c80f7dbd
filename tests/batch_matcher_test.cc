#include "middleware/batch_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "middleware/count_batch.h"
#include "mining/inmemory_provider.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;

std::unique_ptr<Expr> Bound(const Schema& schema, const std::string& sql) {
  auto pred = ParsePredicate(sql);
  EXPECT_TRUE(pred.ok()) << sql;
  EXPECT_TRUE((*pred)->Bind(schema).ok());
  return std::move(*pred);
}

std::vector<int> Sorted(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(BatchMatcherTest, SinglePredicate) {
  Schema schema = MakeSchema({3, 3}, 2);
  auto p = Bound(schema, "A1 = 1");
  BatchMatcher matcher({p.get()});
  EXPECT_TRUE(matcher.fully_indexed());
  std::vector<int> out;
  matcher.Match({1, 0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  matcher.Match({2, 0, 0}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BatchMatcherTest, TruePredicateMatchesAll) {
  Schema schema = MakeSchema({3}, 2);
  auto p = Expr::True();
  BatchMatcher matcher({p.get()});
  std::vector<int> out;
  matcher.Match({0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
}

TEST(BatchMatcherTest, SiblingPredicatesAreDisjoint) {
  Schema schema = MakeSchema({3, 3}, 2);
  auto left = Bound(schema, "A1 = 0");
  auto right = Bound(schema, "A1 <> 0");
  BatchMatcher matcher({left.get(), right.get()});
  std::vector<int> out;
  matcher.Match({0, 1, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  matcher.Match({2, 1, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(BatchMatcherTest, SharedPrefixesRouteCorrectly) {
  Schema schema = MakeSchema({3, 3, 3}, 2);
  // A frontier of four nodes under a two-level tree.
  auto p0 = Bound(schema, "A1 = 0 AND A2 = 1");
  auto p1 = Bound(schema, "A1 = 0 AND A2 <> 1");
  auto p2 = Bound(schema, "A1 <> 0 AND A3 = 2");
  auto p3 = Bound(schema, "A1 <> 0 AND A3 <> 2");
  BatchMatcher matcher({p0.get(), p1.get(), p2.get(), p3.get()});
  EXPECT_TRUE(matcher.fully_indexed());
  std::vector<int> out;
  matcher.Match({0, 1, 0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  matcher.Match({0, 2, 0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{1}));
  matcher.Match({1, 1, 2, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{2}));
  matcher.Match({1, 1, 1, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{3}));
}

TEST(BatchMatcherTest, OverlappingPredicatesBothMatch) {
  Schema schema = MakeSchema({3, 3}, 2);
  auto p0 = Bound(schema, "A1 = 1");
  auto p1 = Bound(schema, "A2 = 2");
  BatchMatcher matcher({p0.get(), p1.get()});
  std::vector<int> out;
  matcher.Match({1, 2, 0}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<int>{0, 1}));
}

TEST(BatchMatcherTest, NonConjunctiveFallsBackAndStaysExact) {
  Schema schema = MakeSchema({3, 3}, 2);
  auto p0 = Bound(schema, "A1 = 1 OR A2 = 1");  // not trie-indexable
  auto p1 = Bound(schema, "A1 = 0");
  BatchMatcher matcher({p0.get(), p1.get()});
  EXPECT_FALSE(matcher.fully_indexed());
  std::vector<int> out;
  matcher.Match({0, 1, 0}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<int>{0, 1}));
  matcher.Match({2, 2, 0}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BatchMatcherTest, NotPredicateFallsBack) {
  Schema schema = MakeSchema({3}, 2);
  auto p = Bound(schema, "NOT A1 = 1");
  BatchMatcher matcher({p.get()});
  EXPECT_FALSE(matcher.fully_indexed());
  std::vector<int> out;
  matcher.Match({0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  matcher.Match({1, 0}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BatchMatcherTest, NullPredicateMatchesEverything) {
  BatchMatcher matcher({nullptr});
  std::vector<int> out;
  matcher.Match({5, 5}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
}

TEST(BatchMatcherTest, DuplicatePredicatesBothReported) {
  Schema schema = MakeSchema({3}, 2);
  auto p0 = Bound(schema, "A1 = 1");
  auto p1 = Bound(schema, "A1 = 1");
  BatchMatcher matcher({p0.get(), p1.get()});
  std::vector<int> out;
  matcher.Match({1, 0}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<int>{0, 1}));
}

TEST(BatchMatcherTest, AgreesWithDirectEvaluationOnRandomBatches) {
  Schema schema = MakeSchema({4, 4, 4, 4}, 3);
  Random rng(101);
  // Build 30 random conjunctive predicates of varying depth.
  std::vector<std::unique_ptr<Expr>> preds;
  for (int i = 0; i < 30; ++i) {
    std::vector<std::unique_ptr<Expr>> conj;
    const int depth = 1 + static_cast<int>(rng.Uniform(3));
    for (int d = 0; d < depth; ++d) {
      const int col = static_cast<int>(rng.Uniform(4));
      const Value v = static_cast<Value>(rng.Uniform(4));
      const std::string name = "A" + std::to_string(col + 1);
      conj.push_back(rng.Bernoulli(0.5) ? Expr::ColEq(name, v)
                                        : Expr::ColNe(name, v));
    }
    auto pred = Expr::And(std::move(conj));
    ASSERT_TRUE(pred->Bind(schema).ok());
    preds.push_back(std::move(pred));
  }
  std::vector<const Expr*> raw;
  for (const auto& p : preds) raw.push_back(p.get());
  BatchMatcher matcher(raw);

  std::vector<Row> rows = RandomRows(schema, 500, 77);
  std::vector<int> out;
  for (const Row& row : rows) {
    matcher.Match(row, &out);
    std::vector<int> expected;
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i]->Eval(row)) expected.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(Sorted(out), expected);
  }
}

// ------------------------------------------------------------- CountBatch

// A frontier whose predicates share prefixes (siblings and a parent with its
// children), each node counting its own attribute subset.
struct Frontier {
  std::vector<std::string> sql;
  std::vector<std::unique_ptr<Expr>> predicates;
  std::vector<std::vector<int>> attrs;

  std::vector<CountBatch::Node> Nodes() const {
    std::vector<CountBatch::Node> nodes;
    for (size_t i = 0; i < predicates.size(); ++i) {
      nodes.push_back({predicates[i].get(), &attrs[i]});
    }
    return nodes;
  }
};

Frontier PrefixSharingFrontier(const Schema& schema) {
  Frontier f;
  f.sql = {"A1 = 0",
           "A1 = 0 AND A2 = 1",
           "A1 = 0 AND A2 <> 1",
           "A1 = 0 AND A2 <> 1 AND A3 = 2",
           "A1 <> 0 AND A4 = 3",
           "A1 <> 0 AND A4 <> 3"};
  f.attrs = {{1, 2, 3}, {2, 3}, {2, 3}, {3}, {0, 1, 2}, {0, 1, 2}};
  for (const std::string& sql : f.sql) f.predicates.push_back(Bound(schema, sql));
  return f;
}

TEST(CountBatchTest, PartialsMergedInFixedOrderEqualOneBatchAndReference) {
  Schema schema = MakeSchema({4, 4, 4, 4}, 3);
  const int class_column = schema.class_column();
  const int num_classes = 3;
  const std::vector<Row> rows = RandomRows(schema, 2000, 91);
  const Frontier frontier = PrefixSharingFrontier(schema);

  CountBatch whole(frontier.Nodes(), class_column, num_classes);
  for (const Row& row : rows) whole.CountRow(row.data());

  // The reference provider evaluates every predicate directly.
  InMemoryCcProvider reference(schema, &rows);
  for (size_t i = 0; i < frontier.sql.size(); ++i) {
    CcRequest request;
    request.node_id = static_cast<int>(i);
    auto predicate = ParsePredicate(frontier.sql[i]);
    ASSERT_TRUE(predicate.ok());
    request.predicate = std::move(*predicate);
    ASSERT_TRUE(request.predicate->Bind(schema).ok());
    request.active_attrs = frontier.attrs[i];
    ASSERT_TRUE(reference.QueueRequest(std::move(request)).ok());
  }
  auto expected = reference.FulfillSome();
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), whole.size());

  uint64_t expected_updates = 0;
  for (size_t i = 0; i < whole.size(); ++i) {
    const CcResult& result = (*expected)[i];
    ASSERT_EQ(result.node_id, static_cast<int>(i));
    EXPECT_TRUE(whole.cc(i) == result.cc) << frontier.sql[i];
    EXPECT_EQ(whole.rows(i), static_cast<uint64_t>(result.cc.TotalRows()));
    expected_updates += whole.rows(i) * frontier.attrs[i].size();
  }
  EXPECT_EQ(whole.CcUpdates(), expected_updates);

  // The same rows split over k partials (strided, as morsels interleave),
  // merged in partial order.
  for (size_t k : {1u, 2u, 3u, 7u}) {
    CountBatch merged(frontier.Nodes(), class_column, num_classes);
    std::vector<CountBatch> partials;
    for (size_t p = 0; p < k; ++p) partials.push_back(merged.Partial());
    for (size_t r = 0; r < rows.size(); ++r) {
      partials[r % k].CountRow(rows[r].data());
    }
    for (const CountBatch& partial : partials) merged.Merge(partial);
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_TRUE(merged.cc(i) == whole.cc(i)) << "k=" << k << " node=" << i;
      EXPECT_EQ(merged.rows(i), whole.rows(i)) << "k=" << k << " node=" << i;
    }
    EXPECT_EQ(merged.CcUpdates(), whole.CcUpdates());
  }
}

TEST(CountBatchTest, DroppedNodeStaysEmptyButStillMatches) {
  Schema schema = MakeSchema({3, 3}, 2);
  const std::vector<Row> rows = RandomRows(schema, 400, 17);
  auto everything = Bound(schema, "A1 <> 9");
  auto some = Bound(schema, "A1 = 1");
  const std::vector<int> attrs = {0, 1};
  CountBatch counts({{everything.get(), &attrs}, {some.get(), &attrs}},
                    schema.class_column(), 2);

  const size_t half = rows.size() / 2;
  for (size_t r = 0; r < half; ++r) counts.CountRow(rows[r].data());
  const uint64_t rows_before_drop = counts.rows(1);
  ASSERT_GT(rows_before_drop, 0u);

  counts.Drop(1);
  EXPECT_TRUE(counts.dropped(1));
  EXPECT_EQ(counts.cc(1).NumEntries(), 0u);
  size_t still_matched = 0;
  for (size_t r = half; r < rows.size(); ++r) {
    const std::vector<int>& matched = counts.CountRow(rows[r].data());
    const bool reported =
        std::find(matched.begin(), matched.end(), 1) != matched.end();
    EXPECT_EQ(reported, rows[r][0] == 1);
    if (reported) ++still_matched;
  }
  EXPECT_GT(still_matched, 0u);
  // The dropped node's table stays empty and its tally stops; the other
  // node keeps counting every row.
  EXPECT_EQ(counts.cc(1).NumEntries(), 0u);
  EXPECT_EQ(counts.cc(1).TotalRows(), 0);
  EXPECT_EQ(counts.rows(1), rows_before_drop);
  EXPECT_EQ(counts.rows(0), rows.size());
  EXPECT_EQ(counts.cc(0).TotalRows(), static_cast<int64_t>(rows.size()));

  // A merged partial does not revive it either.
  CountBatch partial = counts.Partial();
  for (const Row& row : rows) partial.CountRow(row.data());
  counts.Merge(partial);
  EXPECT_EQ(counts.cc(1).NumEntries(), 0u);
  EXPECT_EQ(counts.rows(1), rows_before_drop);

  counts.Reset();
  EXPECT_FALSE(counts.dropped(1));
  EXPECT_EQ(counts.rows(0), 0u);
  EXPECT_EQ(counts.cc(0).TotalRows(), 0);
}

}  // namespace
}  // namespace sqlclass
