#include "harness/table.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>

#include "common/logging.h"
#include "graph/stats.h"

namespace serigraph {

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  SG_CHECK_EQ(cells.size(), columns_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "| ";
    for (size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << cells[c]
         << " | ";
    }
    os << "\n";
  };
  print_row(columns_);
  os << "|";
  for (size_t c = 0; c < columns_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "-|";
  }
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::Seconds(double seconds) {
  char buf[32];
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

std::string TablePrinter::Count(int64_t value) { return HumanCount(value); }

std::string TablePrinter::Ratio(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", value);
  return buf;
}

void PrintHeader(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

namespace {

std::string Micros(int64_t us) {
  char buf[32];
  if (us >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2f s", static_cast<double>(us) / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld us", (long long)us);
  }
  return buf;
}

}  // namespace

void PrintTimeline(std::ostream& os,
                   const std::vector<SuperstepSample>& timeline,
                   int max_rows) {
  if (timeline.empty()) return;
  // Sum each superstep across workers. The timeline is ordered by
  // (superstep, worker), so supersteps form contiguous runs.
  std::vector<SuperstepSample> per_step;
  for (const SuperstepSample& s : timeline) {
    if (per_step.empty() || per_step.back().superstep != s.superstep) {
      SuperstepSample agg;
      agg.superstep = s.superstep;
      per_step.push_back(agg);
    }
    SuperstepSample& agg = per_step.back();
    agg.compute_us += s.compute_us;
    agg.barrier_wait_us += s.barrier_wait_us;
    agg.flush_wait_us += s.flush_wait_us;
    agg.fork_wait_us += s.fork_wait_us;
    agg.vertices_executed += s.vertices_executed;
    agg.messages_sent += s.messages_sent;
    // Global per-superstep values: every worker's row carries the same
    // density, edge share and mode, so overwriting is a no-op past the
    // first.
    agg.frontier_density_milli = s.frontier_density_milli;
    agg.frontier_edge_share_milli = s.frontier_edge_share_milli;
    agg.pull_mode = s.pull_mode;
  }
  // Merge consecutive supersteps into ranges when the run is long.
  const int total = static_cast<int>(per_step.size());
  const int bucket = std::max(1, (total + max_rows - 1) / max_rows);

  TablePrinter table({"superstep", "compute", "barrier wait", "flush wait",
                      "fork wait", "vertices", "messages", "density",
                      "edge share", "mode"});
  auto mode_name = [](uint8_t mode) {
    switch (mode) {
      case 1:
        return "pull";
      case 2:
        return "gather";
      case 3:
        return "pull+g";
      default:
        return "push";
    }
  };
  for (int i = 0; i < total; i += bucket) {
    SuperstepSample agg;
    const int end = std::min(total, i + bucket);
    bool mixed_mode = false;
    for (int j = i; j < end; ++j) {
      agg.compute_us += per_step[j].compute_us;
      agg.barrier_wait_us += per_step[j].barrier_wait_us;
      agg.flush_wait_us += per_step[j].flush_wait_us;
      agg.fork_wait_us += per_step[j].fork_wait_us;
      agg.vertices_executed += per_step[j].vertices_executed;
      agg.messages_sent += per_step[j].messages_sent;
      // A merged range reports its last superstep's density and edge
      // share (the trend endpoint) and "mixed" when the transfer mode
      // changed inside it.
      agg.frontier_density_milli = per_step[j].frontier_density_milli;
      agg.frontier_edge_share_milli = per_step[j].frontier_edge_share_milli;
      if (j > i && per_step[j].pull_mode != agg.pull_mode) mixed_mode = true;
      agg.pull_mode = per_step[j].pull_mode;
    }
    char label[32];
    if (end - i == 1) {
      std::snprintf(label, sizeof(label), "%d", per_step[i].superstep);
    } else {
      std::snprintf(label, sizeof(label), "%d-%d", per_step[i].superstep,
                    per_step[end - 1].superstep);
    }
    char density[16];
    std::snprintf(density, sizeof(density), "%lld/1000",
                  (long long)agg.frontier_density_milli);
    char edge_share[16];
    std::snprintf(edge_share, sizeof(edge_share), "%lld/1000",
                  (long long)agg.frontier_edge_share_milli);
    table.AddRow({label, Micros(agg.compute_us), Micros(agg.barrier_wait_us),
                  Micros(agg.flush_wait_us), Micros(agg.fork_wait_us),
                  TablePrinter::Count(agg.vertices_executed),
                  TablePrinter::Count(agg.messages_sent), density, edge_share,
                  mixed_mode ? "mixed" : mode_name(agg.pull_mode)});
  }
  table.Print(os);
}

}  // namespace serigraph
