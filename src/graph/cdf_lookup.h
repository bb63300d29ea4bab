#ifndef SERIGRAPH_GRAPH_CDF_LOOKUP_H_
#define SERIGRAPH_GRAPH_CDF_LOOKUP_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "graph/types.h"

namespace serigraph {

/// Inverse-CDF lookup for weighted sampling, as PowerLawChungLu uses it.
/// Find(u) returns std::lower_bound's answer over `cdf` (the first index
/// h with cdf[h] >= u), or the last index when every entry is below u,
/// in O(1) expected steps for u uniform in [0, 1) instead of a binary
/// search.
///
/// A guide table (Chen & Asau's method) holds guide[k] = lower_bound(cdf,
/// k/K) for k = 0..K, K = cdf.size(). Find starts at the bucket of u and
/// walks to the exact answer, down while the entry below is still >= u
/// and up while the current one is < u. The walk, not the bucket, fixes
/// the result, so it equals the binary search's however rounding places
/// u*K or k/K; a bucket holds cdf.size()/K = 1 entry on average.
class CdfLookup {
 public:
  /// `cdf` must be non-empty and nondecreasing.
  explicit CdfLookup(std::vector<double> cdf)
      : cdf_(std::move(cdf)), guide_(cdf_.size() + 1) {
    SG_CHECK(!cdf_.empty());
    const VertexId n = size();
    VertexId h = 0;
    for (VertexId k = 0; k <= n; ++k) {  // one monotone sweep
      const double bucket_start =
          static_cast<double>(k) / static_cast<double>(n);
      while (h < n && cdf_[h] < bucket_start) ++h;
      guide_[k] = h;
    }
  }

  /// `u` must lie in [0, 1].
  VertexId Find(double u) const {
    const VertexId n = size();
    VertexId h = guide_[std::min(
        static_cast<VertexId>(u * static_cast<double>(n)), n)];
    while (h > 0 && cdf_[h - 1] >= u) --h;
    while (h < n && cdf_[h] < u) ++h;
    return h == n ? n - 1 : h;
  }

 private:
  VertexId size() const { return static_cast<VertexId>(cdf_.size()); }

  std::vector<double> cdf_;
  std::vector<VertexId> guide_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_GRAPH_CDF_LOOKUP_H_
