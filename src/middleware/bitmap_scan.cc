#include "middleware/bitmap_scan.h"

#include <algorithm>

#include "common/env.h"
#include "storage/bitmap/bitmap.h"

namespace sqlclass {

bool ResolveUseBitmapIndex(bool configured) {
  return EnvFlag("SQLCLASS_BITMAP_INDEX", configured);
}

bool BitmapCountScan::Servable(const Expr* predicate) {
  std::vector<BatchMatcher::Literal> literals;
  return BatchMatcher::FlattenConjunction(predicate, &literals);
}

Status BitmapCountScan::Run(BitmapIndexReader* index, const Schema& schema,
                            CountBatch* counts, CostCounters* cost) {
  const int class_column = schema.class_column();
  if (class_column < 0) {
    return Status::InvalidArgument("bitmap scan needs a class column");
  }
  const int num_classes = schema.attribute(class_column).cardinality;
  const uint64_t words = index->words_per_bitmap();

  std::vector<uint64_t> node_bm(words);
  std::vector<std::vector<uint64_t>> slices(
      num_classes, std::vector<uint64_t>(words));
  std::vector<int64_t> class_counts(num_classes, 0);

  for (size_t pos = 0; pos < counts->size(); ++pos) {
    std::vector<BatchMatcher::Literal> literals;
    if (!BatchMatcher::FlattenConjunction(counts->predicates()[pos],
                                          &literals)) {
      return Status::InvalidArgument(
          "bitmap scan cannot serve a non-conjunctive predicate");
    }

    // Node bitmap: all rows, narrowed by each conjunct. An equality on an
    // out-of-domain value empties the node; an inequality on one is a
    // no-op (no row carries the value). Unbound literals are a caller bug.
    FillAllRows(node_bm.data(), index->num_rows());
    bool node_empty = false;
    for (const BatchMatcher::Literal& lit : literals) {
      if (lit.column < 0) {
        return Status::InvalidArgument("bitmap scan predicate is not bound");
      }
      const bool in_domain =
          lit.value >= 0 && static_cast<uint32_t>(lit.value) <
                                index->cardinality(lit.column);
      if (!in_domain) {
        if (lit.equals) node_empty = true;
        continue;
      }
      SQLCLASS_ASSIGN_OR_RETURN(const uint64_t* bm,
                                index->BitmapWords(lit.column, lit.value));
      cost->mw_bitmap_words_read += words;
      if (lit.equals) {
        FoldAnd(node_bm.data(), bm, words);
      } else {
        FoldAndNot(node_bm.data(), bm, words);
      }
      cost->mw_bitmap_and_ops += words;
    }
    if (node_empty) std::fill(node_bm.begin(), node_bm.end(), 0);

    // Per-class slices of the node bitmap; their popcounts are the class
    // totals (and sum to the node's row count — the invariant the
    // middleware checks against request.data_size).
    CcTable cc(num_classes);
    for (int k = 0; k < num_classes; ++k) {
      SQLCLASS_ASSIGN_OR_RETURN(const uint64_t* class_bm,
                                index->BitmapWords(class_column, k));
      cost->mw_bitmap_words_read += words;
      AndInto(node_bm.data(), class_bm, slices[k].data(), words);
      cost->mw_bitmap_and_ops += words;
      const uint64_t total = PopcountWords(slices[k].data(), words);
      cost->mw_bitmap_popcounts += words;
      cc.AddClassTotal(k, static_cast<int64_t>(total));
    }

    // Every (attribute value x class) count is one AND+popcount against
    // the class slice. Cells are created only when the (attribute, value)
    // pair occurs in the node's data, and only occurring classes are
    // added — the exact cell/count structure a row scan builds, which is
    // what makes the two paths' CC tables compare equal.
    for (int attr : counts->attrs(pos)) {
      const uint32_t card = index->cardinality(attr);
      for (uint32_t v = 0; v < card; ++v) {
        SQLCLASS_ASSIGN_OR_RETURN(
            const uint64_t* bm,
            index->BitmapWords(attr, static_cast<Value>(v)));
        cost->mw_bitmap_words_read += words;
        int64_t any = 0;
        for (int k = 0; k < num_classes; ++k) {
          class_counts[k] =
              static_cast<int64_t>(AndPopcount(slices[k].data(), bm, words));
          cost->mw_bitmap_and_ops += words;
          cost->mw_bitmap_popcounts += words;
          any += class_counts[k];
        }
        if (any == 0) continue;
        for (int k = 0; k < num_classes; ++k) {
          if (class_counts[k] > 0) {
            cc.Add(attr, static_cast<Value>(v), k, class_counts[k]);
          }
        }
      }
    }
    counts->Assign(pos, std::move(cc));
  }
  return Status::OK();
}

}  // namespace sqlclass
