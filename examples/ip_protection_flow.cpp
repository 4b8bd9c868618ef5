// ip_protection_flow — the realistic designer workflow from the paper's
// Fig. 1, including the adversarial aftermath:
//
//   1. a vendor watermarks a reusable DSP core with several *local*
//      watermarks and synthesizes it;
//   2. the core ships as a stripped specification + schedule (serialized
//      to the text interchange format, as it would be versioned);
//   3. a counterfeiter cuts half the core out and embeds it in their own
//      larger system;
//   4. the vendor proves authorship from the cut-and-embedded suspect
//      using only the archived records and signature.
#include <cstdio>
#include <string>

#include "cdfg/serialize.h"
#include "cdfg/subgraph.h"
#include "dfglib/synth.h"
#include "sched/list_sched.h"
#include "wm/detector.h"
#include "wm/pc.h"
#include "wm/sched_constraints.h"

int main() {
  using namespace lwm;

  // ---- 1. vendor side -----------------------------------------------------
  cdfg::Graph core = dfglib::make_dsp_design("fir_accelerator", 20, 400, 2024);
  const crypto::Signature vendor("acme-dsp", "acme-master-signing-key");

  wm::SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.epsilon = 0.3;
  const auto marks = wm::embed_local_watermarks(core, vendor, 8, opts);
  std::vector<wm::SchedRecord> records;
  for (const auto& m : marks) records.push_back(wm::SchedRecord::from(m, core));
  std::printf("[vendor] embedded %zu local watermarks\n", marks.size());

  const sched::Schedule schedule = sched::list_schedule(core);
  core.strip_temporal_edges();
  const wm::PcEstimate pc = wm::sched_pc_window_model(core, marks);
  std::printf("[vendor] proof of authorship: 1 - 10^%.1f\n", pc.log10_pc);

  // ---- 2. shipping --------------------------------------------------------
  const std::string shipped_text = cdfg::to_text(core);
  std::printf("[vendor] shipped spec: %zu bytes of text\n",
              shipped_text.size());

  // ---- 3. counterfeiter side ----------------------------------------------
  // Re-import (the thief reverse-engineered the netlist), cut out the
  // second half of the dataflow, and splice it into their own system.
  const cdfg::Graph reimported = cdfg::parse_cdfg(shipped_text).value();
  std::vector<cdfg::NodeId> half;
  const auto ids = reimported.node_ids();
  for (std::size_t i = ids.size() / 2; i < ids.size(); ++i) {
    half.push_back(ids[i]);
  }
  const cdfg::Partition stolen = cdfg::extract_partition(reimported, half);

  cdfg::Graph pirate_system =
      dfglib::make_dsp_design("pirate_system", 24, 700, 666);
  const cdfg::NodeMap splice =
      cdfg::embed_graph(pirate_system, stolen.graph, "ip_");
  std::printf("[thief ] cut %zu ops, embedded into a %zu-op system\n",
              stolen.graph.operation_count(), pirate_system.operation_count());

  // The thief reuses the stolen implementation's schedule (rebuilding it
  // would mean redoing the design work — the cost the paper argues about).
  sched::Schedule pirate_sched = sched::list_schedule(pirate_system);
  for (const cdfg::NodeId n : reimported.node_ids()) {
    const cdfg::NodeId cut_node = stolen.map.at(n);
    if (!cut_node.valid()) continue;
    const cdfg::NodeId host_node = splice.at(cut_node);
    const cdfg::NodeId orig = core.find(reimported.node(n).name);
    if (host_node.valid() && orig.valid() && schedule.is_scheduled(orig)) {
      pirate_sched.set_start(host_node, schedule.start_of(orig) + 5);
    }
  }

  // ---- 4. dispute ----------------------------------------------------------
  int found = 0;
  for (const auto& rec : records) {
    if (wm::detect_sched_watermark(pirate_system, pirate_sched, vendor, rec)
            .detected()) {
      ++found;
    }
  }
  std::printf("[vendor] detected %d/%zu local watermarks inside the "
              "pirate system\n", found, records.size());
  std::printf("[vendor] %s\n",
              found > 0 ? "authorship established on the embedded partition"
                        : "no watermark survived this cut");
  // Half the core was discarded, so marks rooted there are gone — but the
  // point of *local* watermarks is that the survivors are enough.
  return found > 0 ? 0 : 1;
}
