// A named collection of relations: the database instance D of the paper.
#ifndef LPB_RELATION_CATALOG_H_
#define LPB_RELATION_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace lpb {

class Catalog {
 public:
  // Adds (or replaces) a relation under its own name.
  void Add(Relation rel);

  bool Has(const std::string& name) const;
  // `name` must be present (asserted only); Find is the checked lookup.
  const Relation& Get(const std::string& name) const;
  const Relation* Find(const std::string& name) const;  // nullptr if absent
  Relation* GetMutable(const std::string& name);

  std::vector<std::string> Names() const;
  size_t size() const { return relations_.size(); }

 private:
  std::map<std::string, Relation> relations_;
};

}  // namespace lpb

#endif  // LPB_RELATION_CATALOG_H_
