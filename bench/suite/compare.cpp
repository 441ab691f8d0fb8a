/// \file compare.cpp
/// \brief `foresight_bench compare PARENT.json... -- CHANGE.json...`: one
/// verdict per workload and end-to-end metric, under the bounds in
/// BENCHMARK.json.
///
/// Give the runs in the order they ran, parent and change alternating:
/// the i-th parent run of a workload and its i-th change run form pair i,
/// and must share a seed. Every run must be correct. The verdicts:
///  - improved: the change wins at least 9/10 of the pairs (ties count for
///    neither side) and the medians differ by more than the parent's IQR;
///  - unresolved: the parent's own IQR is wider than the bound, unless
///    every change run reads better than every parent run;
///  - worse: the change's median is worse than the parent's by more than
///    the bound (a share of the parent's median);
///  - no-worse: anything else.
/// A change that fails more ops than the parent is worse on failed_ops and
/// improves nothing. Exits 1 when any verdict is worse.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "json/json.hpp"
#include "stats.hpp"
#include "suite.hpp"

namespace fbench {

namespace json = cosmo::json;

namespace {

struct Sides {
  std::vector<double> parent;
  std::vector<double> change;
};

const char* verdict(const Sides& s, bool higher_better, double bound, std::size_t& wins) {
  const auto better = [&](double change, double parent) {
    return higher_better ? change > parent : change < parent;
  };
  const std::size_t pairs = std::min(s.parent.size(), s.change.size());
  wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) wins += better(s.change[i], s.parent[i]) ? 1 : 0;
  const Quartiles p = quartiles(s.parent);
  const double mp = p.median;
  const double mc = median(s.change);
  const double iqr = p.q3 - p.q1;
  const double worse_by = (higher_better ? mp - mc : mc - mp) / std::fabs(mp);
  const bool all_better =
      higher_better
          ? *std::min_element(s.change.begin(), s.change.end()) >
                *std::max_element(s.parent.begin(), s.parent.end())
          : *std::max_element(s.change.begin(), s.change.end()) <
                *std::min_element(s.parent.begin(), s.parent.end());
  if (pairs > 0 && wins * 10 >= pairs * 9 && better(mc, mp) && std::fabs(mc - mp) > iqr) {
    return "improved";
  }
  if (iqr / std::fabs(mp) > bound && !all_better) return "unresolved";
  if (worse_by > bound) return "worse";
  return "no-worse";
}

/// Runs by workload, in the order given.
using RunsByWorkload = std::map<std::string, std::vector<json::Value>>;

RunsByWorkload load(const std::vector<std::string>& paths) {
  RunsByWorkload runs;
  for (const std::string& path : paths) {
    json::Value run = json::parse_file(path);
    cosmo::require(run.at("correct").as_bool(),
                   path + " failed its correctness checks; a failed run is not compared");
    runs[run.at("workload").as_string()].push_back(std::move(run));
  }
  return runs;
}

double total_failed(const std::vector<json::Value>& runs) {
  double failed = 0.0;
  for (const json::Value& r : runs) failed += r.at("failed").as_number();
  return failed;
}

}  // namespace

int compare_runs(const std::vector<std::string>& args) {
  std::vector<std::string> files[2];
  std::string bench_path = "BENCHMARK.json";
  int side = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--") {
      side = 1;
    } else if (args[i] == "--benchmark" && i + 1 < args.size()) {
      bench_path = args[++i];
    } else {
      files[side].push_back(args[i]);
    }
  }
  if (files[0].empty() || files[1].empty()) {
    std::fprintf(stderr, "usage: foresight_bench compare PARENT.json... -- CHANGE.json... "
                         "[--benchmark BENCHMARK.json]\n");
    return 64;
  }
  try {
    const json::Value bench = json::parse_file(bench_path);
    const json::Array& defs = bench.at("end_to_end").as_array();
    const RunsByWorkload parent = load(files[0]);
    const RunsByWorkload change = load(files[1]);
    cosmo::require(parent.size() == change.size(), "both sides must hold the same workloads");
    for (const auto& [workload, p_runs] : parent) {
      const auto it = change.find(workload);
      cosmo::require(it != change.end(), "no change runs of " + workload);
      cosmo::require(p_runs.size() == it->second.size(),
                     workload + ": every parent run needs its change run");
      for (std::size_t i = 0; i < p_runs.size(); ++i) {
        cosmo::require(p_runs[i].at("seed").as_number() == it->second[i].at("seed").as_number(),
                       workload + ": pair " + std::to_string(i + 1) + " ran two seeds");
      }
    }

    int worse = 0;
    std::printf("%-18s %-18s %14s %14s %8s %9s %7s  %s\n", "workload", "metric", "parent_p50",
                "change_p50", "delta%", "p_iqr%", "wins", "verdict");
    for (const auto& [workload, p_runs] : parent) {
      const std::vector<json::Value>& c_runs = change.at(workload);
      const double p_failed = total_failed(p_runs);
      const double c_failed = total_failed(c_runs);
      const bool fails_more = c_failed > p_failed;
      worse += fails_more ? 1 : 0;
      std::printf("%-18s %-18s %14g %14g %8s %9s %7s  %s\n", workload.c_str(), "failed_ops",
                  p_failed, c_failed, "", "", "", fails_more ? "worse" : "no-worse");

      for (const json::Value& def : defs) {
        const std::string name = def.at("name").as_string();
        const auto value = [&](const json::Value& run) {
          return run.at("metrics").at(name).at("value").as_number();
        };
        Sides s;
        for (const json::Value& r : p_runs) s.parent.push_back(value(r));
        for (const json::Value& r : c_runs) s.change.push_back(value(r));
        const bool higher = def.at("better").as_string() == "higher";
        std::size_t wins = 0;
        std::string v = verdict(s, higher, def.at("bound").as_number(), wins);
        if (fails_more && v == "improved") v = "no-worse";
        worse += v == "worse" ? 1 : 0;
        const Quartiles q = quartiles(s.parent);
        std::printf("%-18s %-18s %14.6g %14.6g %+7.2f%% %8.2f%% %3zu/%-3zu  %s\n",
                    workload.c_str(), name.c_str(), q.median, median(s.change),
                    100.0 * (median(s.change) - q.median) / std::fabs(q.median),
                    100.0 * (q.q3 - q.q1) / std::fabs(q.median), wins, s.parent.size(), v.c_str());
      }
    }
    return worse > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "foresight_bench compare: %s\n", e.what());
    return 1;
  }
}

}  // namespace fbench
