// Section 7.1 ablation: partitions per worker. The paper uses Giraph's
// default of |W| partitions per worker and reports that more partitions
// cut more edges (more forks, smaller batches) while too few restrict
// parallelism. We sweep partitions/worker for partition-based locking.

#include <iostream>

#include "algos/coloring.h"
#include "algos/pagerank.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

int main() {
  PrintHeader(std::cout,
              "Section 7.1 ablation: partitions per worker "
              "(partition-based locking, 16 workers, OR')");
  Graph directed = MakeDataset(FindSpec("OR'"));
  Graph undirected = directed.Undirected();

  TablePrinter table({"algorithm", "partitions/worker", "forks", "time",
                      "ctrl msgs", "max concurrent"});
  for (int ppw : {1, 2, 4, 8, 16, 32}) {
    for (bool pagerank : {false, true}) {
      RunConfig config;
      config.sync_mode = SyncMode::kPartitionLocking;
      config.num_workers = 16;
      config.partitions_per_worker = ppw;
      config.network = BenchNetwork();
      RunStats stats;
      if (pagerank) {
        stats = RunProgram(directed, PageRank(0.01), config);
      } else {
        std::vector<int64_t> colors;
        stats = RunProgram(undirected, GreedyColoring(), config, &colors);
        SG_CHECK(IsProperColoring(undirected, colors));
      }
      table.AddRow(
          {pagerank ? "PageRank" : "coloring", std::to_string(ppw),
           TablePrinter::Count(stats.Metric("sync.num_forks")),
           TablePrinter::Seconds(stats.computation_seconds),
           TablePrinter::Count(stats.Metric("net.control_messages")),
           std::to_string(stats.Metric("pregel.max_concurrent_executions"))});
    }
  }
  table.Print(std::cout);
  std::cout << "\npaper: the sweet spot is |W| partitions per worker (=16 "
               "here); 1/worker restricts\nparallelism, many/worker "
               "multiplies forks and shrinks message batches. The 'max\n"
               "concurrent' column is the parallelism partition locking "
               "reached: when most\npartition pairs share a fork, few "
               "partitions execute at once at any count, so\n1/worker "
               "gives up little parallelism while the fork/ctrl-msg growth "
               "of more\npartitions still costs time.\n";
  return 0;
}
