// Synthetic JOB-style workload (the stand-in for IMDB + the Join Order
// Benchmark used in Appendix C.2 / Figure 1, neither of which is bundled
// with the repository).
//
// A scaled-down IMDB-like snowflake: a `title` hub, fact tables
// (cast_info, movie_companies, movie_keyword, movie_info, movie_info_idx,
// movie_link, aka_title, complete_cast, person_info) with Zipf-skewed
// foreign keys into it, and primary-key dimension tables (name,
// company_name, keyword, info_type, kind_type, company_type, role_type,
// link_type, comp_cast_type). Thirty-three acyclic join queries of 4-14
// relations mirror JOB's topology: 1-3 skewed star joins on the movie id
// plus PK/FK lookups, occasionally chained through movie_link.
#ifndef LPB_DATAGEN_JOB_GEN_H_
#define LPB_DATAGEN_JOB_GEN_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "relation/catalog.h"

namespace lpb {

struct JobWorkloadOptions {
  // Scale factor on every table size (1.0 ≈ 30k movies, 120k cast_info).
  double scale = 1.0;
  // Zipf exponent for fact-table foreign keys into `title`.
  double movie_skew = 0.30;
  uint64_t seed = 2024;
};

struct JobWorkload {
  Catalog catalog;
  std::vector<Query> queries;  // 33 acyclic join queries
};

JobWorkload GenerateJobWorkload(const JobWorkloadOptions& options = {});

// The 33 query texts (Datalog syntax, parseable by ParseQuery); exposed for
// tests and documentation.
std::vector<std::string> JobQueryTexts();

}  // namespace lpb

#endif  // LPB_DATAGEN_JOB_GEN_H_
