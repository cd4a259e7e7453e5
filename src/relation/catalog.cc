#include "relation/catalog.h"

#include <cassert>
#include <utility>

namespace lpb {

void Catalog::Add(Relation rel) {
  std::string name = rel.name();
  assert(!name.empty());
  relations_.insert_or_assign(std::move(name), std::move(rel));
}

bool Catalog::Has(const std::string& name) const {
  return relations_.count(name) > 0;
}

const Relation& Catalog::Get(const std::string& name) const {
  auto it = relations_.find(name);
  assert(it != relations_.end());
  return it->second;
}

const Relation* Catalog::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Catalog::GetMutable(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

}  // namespace lpb
