// quickstart — the smallest end-to-end tour of the public API:
// build a CDFG, embed a local scheduling watermark keyed by your
// signature, synthesize, strip the constraints, and detect the mark in
// the shipped artifact.
//
//   $ ./quickstart
#include <cstdio>

#include "cdfg/builder.h"
#include "dfglib/iir4.h"
#include "sched/list_sched.h"
#include "wm/detector.h"
#include "wm/sched_constraints.h"

int main() {
  using namespace lwm;

  // 1. Your design: here, the paper's 4th-order parallel IIR filter.
  cdfg::Graph design = dfglib::iir4_parallel();
  std::printf("design '%s': %zu operations, critical path %d steps\n",
              design.name().c_str(), design.operation_count(),
              cdfg::critical_path_length(design));

  // 2. Your secret signature.  Everything the watermark does is a pure
  //    function of this key and the design's structure.
  const crypto::Signature me("quickstart-author", "my-secret-signature-42");

  // 3. Embed one local watermark rooted at the output adder.
  wm::SchedWmOptions opts;
  opts.domain.tau = 6;     // locality radius
  opts.k = 3;              // temporal edges to hide
  opts.epsilon = 0.3;      // stay away from the critical path
  opts.domain.keep_num = 2;  // carve probability 2/3
  opts.domain.keep_den = 3;
  auto mark = wm::embed_sched_watermark(design, design.find("A9"), me, opts);
  if (!mark) {
    std::printf("this locality cannot host a watermark; try another root\n");
    return 1;
  }
  std::printf("embedded %zu hidden temporal constraints:\n",
              mark->constraints.size());
  for (const auto& c : mark->constraints) {
    std::printf("  %s must finish before %s starts\n",
                design.node(c.src).name.c_str(),
                design.node(c.dst).name.c_str());
  }

  // Archive the detection record (graph-independent coordinates).
  const wm::SchedRecord record = wm::SchedRecord::from(*mark, design);

  // 4. Synthesize with any scheduler — it simply honors the extra edges.
  const sched::Schedule schedule = sched::list_schedule(design);

  // 5. Strip the constraints; the shipped design is structurally the
  //    original, but its schedule still satisfies the hidden edges.
  design.strip_temporal_edges();
  std::printf("schedule length: %d steps (critical path %d)\n",
              schedule.length(design), cdfg::critical_path_length(design));

  // 6. Detection: scan every candidate root with your signature.
  const wm::SchedDetectionReport report =
      wm::detect_sched_watermark(design, schedule, me, record);
  std::printf("detection: %s (%zu hit(s) over %d scanned roots)\n",
              report.detected() ? "WATERMARK FOUND" : "nothing",
              report.hits.size(), report.roots_scanned);

  // A stranger's signature finds nothing.
  const crypto::Signature stranger("someone-else", "another-key");
  const auto foreign =
      wm::detect_sched_watermark(design, schedule, stranger, record);
  std::printf("foreign signature: %s\n",
              foreign.detected() ? "false positive!" : "nothing (as expected)");
  return report.detected() && !foreign.detected() ? 0 : 1;
}
