// embed_local_watermarks_parallel: the locality-parallel embedder must
// produce bit-identical results — same accepted records, same temporal
// edges, same final graph — at every thread count, serial (null pool)
// included, and the embedded marks must come back through detection.
// Runs under the `tsan` ctest label so the ThreadSanitizer preset
// exercises the concurrent planning waves.
#include "wm/sched_constraints.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "sched/schedule.h"
#include "wm/detector.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }

SchedWmOptions mega_options() {
  SchedWmOptions opts;
  opts.domain.tau = 4;
  opts.k = 4;
  return opts;
}

Graph mega(int ops) {
  dfglib::MegaConfig cfg;
  cfg.name = "par_embed";
  cfg.operations = ops;
  cfg.width = 32;
  cfg.seed = 23;
  return dfglib::make_mega_design(cfg);
}

std::string marks_fingerprint(const std::vector<SchedWatermark>& marks) {
  std::string fp;
  for (const SchedWatermark& m : marks) {
    fp += "root:" + std::to_string(m.root.value) + "\n";
    for (const TemporalConstraint& c : m.constraints) {
      fp += "  " + std::to_string(c.src.value) + "->" +
            std::to_string(c.dst.value) + " @" + std::to_string(c.src_pos) +
            "," + std::to_string(c.dst_pos) + "\n";
    }
    for (const cdfg::NodeId n : m.subtree) {
      fp += " t" + std::to_string(n.value);
    }
    fp += "\n";
  }
  return fp;
}

TEST(EmbedParallelTest, BitIdenticalAtEveryThreadCount) {
  const Graph pristine = mega(3000);
  std::optional<std::string> want_marks, want_graph;
  for (const int threads : {0, 1, 2, 8}) {
    Graph g = pristine;
    std::optional<exec::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    const auto marks = embed_local_watermarks_parallel(
        g, alice(), 12, mega_options(), pool ? &*pool : nullptr);
    ASSERT_FALSE(marks.empty()) << threads << " threads";
    const std::string fp = marks_fingerprint(marks);
    const std::string text = cdfg::to_text(g);
    if (!want_marks) {
      want_marks = fp;
      want_graph = text;
    } else {
      EXPECT_EQ(fp, *want_marks) << threads << " threads";
      EXPECT_EQ(text, *want_graph) << threads << " threads";
    }
  }
}

TEST(EmbedParallelTest, EmbeddedEdgesAreAcyclicAndDetectable) {
  Graph g = mega(3000);
  exec::ThreadPool pool(4);
  const auto marks =
      embed_local_watermarks_parallel(g, alice(), 12, mega_options(), &pool);
  ASSERT_FALSE(marks.empty());

  // Every temporal edge landed in the graph and the result is still a
  // DAG over all edge kinds (the topo-rank guard's whole job).
  int temporal = 0;
  for (const cdfg::EdgeId e : g.edge_ids()) {
    if (g.edge(e).kind == cdfg::EdgeKind::kTemporal) ++temporal;
  }
  int want_edges = 0;
  for (const SchedWatermark& m : marks) {
    want_edges += static_cast<int>(m.constraints.size());
  }
  EXPECT_EQ(temporal, want_edges);
  EXPECT_EQ(cdfg::topo_order(g, cdfg::EdgeFilter::all()).size(),
            g.node_count());

  // An ASAP schedule honoring all edges satisfies every constraint, so
  // detection must recover every record.
  const cdfg::TimingInfo timing =
      cdfg::compute_timing(g, -1, cdfg::EdgeFilter::all());
  sched::Schedule schedule(g);
  for (const cdfg::NodeId n : g.nodes()) {
    schedule.set_start(n, timing.asap[n.value]);
  }
  std::vector<SchedRecord> records;
  for (const SchedWatermark& m : marks) {
    records.push_back(SchedRecord::from(m, g));
  }
  const auto reports =
      detect_sched_watermarks(g, schedule, alice(), records, &pool);
  ASSERT_EQ(reports.size(), records.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i].detected()) << "record " << i;
  }
}

TEST(EmbedParallelTest, SerialEmbedderStaysOnItsOwnPath) {
  // The serial embedder plans under the exact cycle guard (reachability
  // among the T'' members); the parallel embedder's topo-rank guard is
  // deliberately more conservative, so the two may accept different
  // marks.  What must hold: both plant only acyclic edges.
  Graph serial = mega(1500);
  const auto serial_marks =
      embed_local_watermarks(serial, alice(), 6, mega_options());
  Graph par = mega(1500);
  const auto par_marks = embed_local_watermarks_parallel(
      par, alice(), 6, mega_options(), nullptr);
  ASSERT_FALSE(serial_marks.empty());
  ASSERT_FALSE(par_marks.empty());
  EXPECT_EQ(cdfg::topo_order(serial, cdfg::EdgeFilter::all()).size(),
            serial.node_count());
  EXPECT_EQ(cdfg::topo_order(par, cdfg::EdgeFilter::all()).size(),
            par.node_count());
}

// Every multi-mark embed entry point: a graph without executable nodes
// throws, and a budget <= 0 returns no marks without throwing — on that
// graph too — and leaves the graph untouched.
TEST(EmbedParallelTest, RejectsGraphWithoutExecutableNodes) {
  const SchedWmOptions opts = mega_options();
  using Embed = std::function<std::vector<SchedWatermark>(Graph&, int)>;
  const std::vector<std::pair<const char*, Embed>> entries = {
      {"embed_local_watermarks",
       [&](Graph& g, int budget) {
         return embed_local_watermarks(g, alice(), budget, opts);
       }},
      {"embed_watermarks_until_edges",
       [&](Graph& g, int budget) {
         return embed_watermarks_until_edges(g, alice(), budget, opts);
       }},
      {"embed_local_watermarks_parallel",
       [&](Graph& g, int budget) {
         return embed_local_watermarks_parallel(g, alice(), budget, opts,
                                                nullptr);
       }},
      {"embed_local_watermarks_parallel(ctx)",
       [&](Graph& g, int budget) {
         const PlanContext ctx = PlanContext::build(g);
         return embed_local_watermarks_parallel(g, alice(), budget, opts,
                                                nullptr, ctx);
       }},
  };
  for (const auto& [name, embed] : entries) {
    cdfg::Graph empty("empty");
    EXPECT_THROW((void)embed(empty, 1), std::invalid_argument) << name;
    for (const int budget : {0, -1}) {
      EXPECT_TRUE(embed(empty, budget).empty()) << name << " " << budget;
      Graph g = mega(200);
      const std::string before = cdfg::to_text(g);
      EXPECT_TRUE(embed(g, budget).empty()) << name << " " << budget;
      EXPECT_EQ(cdfg::to_text(g), before) << name << " " << budget;
    }
  }
}

}  // namespace
}  // namespace lwm::wm
