// Generic worst-case-optimal join (Ngo-Porat-Ré-Rudra style) over sorted
// in-memory atom indexes.
//
// Evaluates a full conjunctive query variable-by-variable: at each variable
// the candidate values are the intersection of the matching values across
// all atoms containing it, enumerated from the atom with the currently
// smallest residual range and probed into the others by binary search.
// This is the evaluation substrate for true cardinalities in the
// experiments and the black-box evaluator inside the Sec 2.2 partitioning
// algorithm (our PANDA stand-in, exec/partition.h).
#ifndef LPB_EXEC_GENERIC_JOIN_H_
#define LPB_EXEC_GENERIC_JOIN_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "relation/catalog.h"
#include "relation/relation.h"

namespace lpb {

struct JoinOptions {
  // Global variable order; empty selects a connectivity-aware greedy order
  // (most-covered variable first, preferring variables adjacent to already
  // ordered ones).
  std::vector<int> var_order;
};

// Number of output tuples of Q(D). Atoms with repeated variables (e.g.
// R(X,X)) apply the implied equality selection.
uint64_t CountJoin(const Query& query, const Catalog& catalog,
                   const JoinOptions& options = {});

// Materializes Q(D) as a relation whose columns follow the query's
// variable ids (attribute i = query.var_name(i)).
Relation MaterializeJoin(const Query& query, const Catalog& catalog,
                         const JoinOptions& options = {});

// The default variable order used when JoinOptions::var_order is empty.
std::vector<int> DefaultVariableOrder(const Query& query);

}  // namespace lpb

#endif  // LPB_EXEC_GENERIC_JOIN_H_
