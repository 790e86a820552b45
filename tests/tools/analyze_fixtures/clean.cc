// Fixture: a well-behaved TU — only ordered containers escape, a hash-order
// walk is sorted before it returns, and every call goes downwards. Must
// produce zero findings.
#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

namespace alvc::graph {
int weight(int key);
}

struct Ledger {
  std::map<int, int> entries;
  std::unordered_map<int, int> index;

  std::vector<int> ordered_dump() const {
    std::vector<int> out;
    for (const auto& [k, v] : entries) out.push_back(v);  // std::map: stable
    return out;
  }

  std::vector<int> sorted_keys() const {
    std::vector<int> out;
    for (const auto& [k, v] : index) out.push_back(k);
    std::sort(out.begin(), out.end());
    return out;
  }

  int weigh(int key) const { return alvc::graph::weight(key); }
};
