#ifndef SERIGRAPH_OBS_WAITFOR_H_
#define SERIGRAPH_OBS_WAITFOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace serigraph {

/// One edge of a wait-for graph: worker `from` is blocked acquiring
/// philosopher `waiter` and is missing the fork shared with philosopher
/// `resource`, which is owned by worker `to`. `waited_us` is how long
/// `from` has been blocked at sampling time.
struct WaitForEdge {
  int from = -1;
  int to = -1;
  int64_t waiter = -1;
  int64_t resource = -1;
  int64_t waited_us = 0;
};

/// Instantaneous worker-level wait-for graph, assembled by the watchdog
/// from the per-worker state beacons (obs/introspect.h). It describes who
/// waits on whom in snapshots and incident bundles; it decides nothing.
/// Each beacon's wait list is written once at wait entry and not updated
/// as forks arrive, so a cycle here is routinely a stale picture (two
/// workers each waiting on the other's *eating* philosopher). Deadlocks
/// are confirmed from the fork table instead (StuckChain).
struct WaitForGraph {
  int num_workers = 0;
  std::vector<WaitForEdge> edges;
};

/// Chandy-Misra philosophers that cannot move (ChandyMisraTable::
/// FindStuckChain): each member but the last is hungry and misses a fork
/// that the next holds, clean, with the request token (nothing in
/// flight); the next is hungry too, or thinking and will not eat. The
/// chain closes into a cycle or ends at that thinking philosopher, which
/// no correct run allows (docs/OBSERVABILITY.md, "Watchdog"). `versions`
/// are change counters: equal chains show that no member moved.
struct StuckChain {
  std::vector<int64_t> philosophers;
  std::vector<uint64_t> versions;
  bool cycle = false;

  bool empty() const { return philosophers.empty(); }
  bool operator==(const StuckChain&) const = default;
};

/// Finds a directed cycle among workers, returned as the worker ids along
/// the cycle (first == the entry point, not repeated at the end); empty if
/// the graph is acyclic. Self-loops (from == to) are ignored: two compute
/// threads of one worker waiting on each other's philosophers is
/// indistinguishable from a benign in-worker handoff at this granularity.
std::vector<int> FindWorkerCycle(const WaitForGraph& graph);

/// Serializes the edge list as a JSON array (used in watchdog snapshots
/// and stall reports): [{"from":0,"to":1,"waiter":5,"resource":7,
/// "waited_us":120},...]
std::string WaitForEdgesJson(const WaitForGraph& graph);

/// One-line human-readable rendering for logs and abort messages.
std::string WaitForGraphSummary(const WaitForGraph& graph);

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_WAITFOR_H_
