// backend_test — the witness-scheduler front door: name dispatch, the
// acyclic-only guard, the contract that schedule_with is bit-identical
// to calling each backend directly, and schedule legality of the list
// scheduler on a MediaBench app.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "sched/backend.h"
#include "sched/list_sched.h"
#include "sched/modulo.h"

namespace lwm::sched {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

bool same_schedule(const Graph& g, const Schedule& a, const Schedule& b) {
  for (const NodeId n : g.nodes()) {
    if (a.start_of(n) != b.start_of(n)) return false;
  }
  return true;
}

TEST(BackendTest, UnknownNameThrowsWithKnownList) {
  const Graph g = dfglib::make_fir(4);
  try {
    (void)schedule_with("ilp", g);
    FAIL() << "unknown backend must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend 'ilp'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(have: enumerate, modulo)"), std::string::npos)
        << msg;
  }
}

TEST(BackendTest, AcyclicOnlyBackendsRefuseMarkedGraphs) {
  Graph g = dfglib::make_fir(8);
  (void)dfglib::add_feedback(g, 1);
  try {
    (void)schedule_with("enumerate", g);
    FAIL() << "enumerate must refuse a marked graph";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("acyclic-only"), std::string::npos)
        << e.what();
  }
  // The periodic backend takes it.
  const BackendResult r = schedule_with("modulo", g);
  EXPECT_GE(r.ii, 1);
}

TEST(BackendTest, EnumerateWitnessIsAsap) {
  const Graph g = dfglib::make_fft(8);
  const BackendResult r = schedule_with("enumerate", g);
  const cdfg::TimingInfo t = cdfg::compute_timing(g);
  for (const NodeId n : g.nodes()) {
    EXPECT_EQ(r.schedule.start_of(n), t.asap[n.value]);
  }
  EXPECT_TRUE(r.optimal);
}

TEST(BackendTest, ModuloThroughApiMatchesDirect) {
  Graph g = dfglib::make_fir(16);
  (void)dfglib::add_feedback(g, 2);
  const BackendResult r = schedule_with("modulo", g);
  const ModuloResult direct = modulo_schedule(g);
  EXPECT_EQ(r.ii, direct.ii);
  EXPECT_TRUE(same_schedule(g, r.schedule, direct.schedule));
  EXPECT_EQ(r.optimal, direct.achieved_min_ii());
}

TEST(BackendTest, MediabenchSweepStaysLegalAcrossBackends) {
  // One mid-size real app through the resource-constrained list
  // scheduler; the verifier is the oracle.
  const auto& apps = dfglib::mediabench_table();
  ASSERT_FALSE(apps.empty());
  const Graph g = dfglib::make_mediabench_app(apps.front());
  ResourceSet resources = ResourceSet::unlimited();
  resources.set_count(cdfg::UnitClass::kMul, 3);
  resources.set_count(cdfg::UnitClass::kAlu, 3);
  ListScheduleOptions list_opts;
  list_opts.resources = resources;
  const Schedule list = list_schedule(g, list_opts);
  const ScheduleCheck chk =
      verify_schedule(g, list, cdfg::EdgeFilter::all(), resources);
  EXPECT_TRUE(chk.ok) << (chk.errors.empty() ? "" : chk.errors.front());
}

}  // namespace
}  // namespace lwm::sched
