#ifndef SQLCLASS_MIDDLEWARE_BATCH_MATCHER_H_
#define SQLCLASS_MIDDLEWARE_BATCH_MATCHER_H_

#include <memory>
#include <vector>

#include "catalog/row.h"
#include "sql/expr.h"

namespace sqlclass {

/// Routes each scanned row to the batch nodes whose predicates it satisfies.
///
/// This is where the middleware exploits the *structure* of the query wave
/// (§1): node predicates are conjunctions of edge literals in root-to-leaf
/// order, and requests from one frontier share long prefixes. Inserting the
/// conjunct sequences into a trie lets one row be matched against hundreds
/// of node predicates in O(tree depth) literal evaluations instead of
/// O(batch size x depth).
///
/// Predicates that are not conjunctions of (column = v) / (column <> v)
/// literals fall back to direct evaluation, so the matcher is exact for any
/// client.
class BatchMatcher {
 public:
  /// `predicates` must be bound and outlive the matcher; index i in Match
  /// output refers to predicates[i].
  explicit BatchMatcher(const std::vector<const Expr*>& predicates);

  /// Clears and fills `*out` with the indexes of all matching predicates.
  void Match(const Row& row, std::vector<int>* out) const {
    Match(row.data(), out);
  }

  /// Pointer-row overload for batch-decoded rows (RowBatch::RowAt);
  /// `values` must span every column any predicate references.
  void Match(const Value* values, std::vector<int>* out) const;

  /// True when every predicate was trie-indexable (exposed for tests).
  bool fully_indexed() const { return fallback_.empty(); }

  /// One column =/<> literal of a flattened conjunction.
  struct Literal {
    int column = -1;     // bound column index; -1 if the literal is unbound
    bool equals = true;  // true: column == value, false: column != value
    Value value = 0;

    bool Eval(const Value* values) const {
      return equals ? values[column] == value : values[column] != value;
    }
    bool operator==(const Literal& other) const {
      return column == other.column && equals == other.equals &&
             value == other.value;
    }
  };

  /// The one "conjunction of column =/<> literals" flattener: appends the
  /// literals of `expr` (null and TRUE contribute none) to `*literals` and
  /// returns false if `expr` contains a disjunction or negation. Node
  /// predicates never do; the bitmap engine serves exactly the shapes this
  /// accepts.
  static bool FlattenConjunction(const Expr* expr,
                                 std::vector<Literal>* literals);

 private:
  struct TrieNode {
    std::vector<std::pair<Literal, std::unique_ptr<TrieNode>>> children;
    std::vector<int> terminals;  // predicate indexes fully matched here
  };

  void Insert(const std::vector<Literal>& literals, int index);
  void MatchRec(const TrieNode& node, const Value* values,
                std::vector<int>* out) const;

  TrieNode root_;
  std::vector<std::pair<const Expr*, int>> fallback_;  // (pred, index)
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_BATCH_MATCHER_H_
