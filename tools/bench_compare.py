#!/usr/bin/env python3
"""Compare two bench JSON artifacts and fail on perf regression.

    python3 tools/bench_compare.py BASELINE.json CANDIDATE.json \
        [--max-regress 0.10] [--key fds_speedup ...]

Exits 1 if any compared higher-is-better key in CANDIDATE falls more
than --max-regress (default 10%) below BASELINE, or if either file is
missing a compared key.  Every compared key is printed with its delta,
so a passing run still documents the drift.

The compared keys follow the artifact schema, selected by the "bench"
tag both files must agree on:

  micro (default when the tag is absent): fds_speedup (the headline
      reference-vs-incremental ratio) and fds_eps_speedup (the
      approximate-mode ratio, when both files carry it).
  delay: unit_build_per_s (TimingCache construction throughput at the
      exact delay model), bounded_build_per_s (compute_timing_bounded
      throughput at the table delay model; before the optimistic band
      left TimingCache it was cache construction at the table model, so
      artifacts from either side of that change do not compare on this
      key) and kpaths_per_s (k-worst path enumeration throughput).
  scale: embed_ops_per_s / detect_ops_per_s (mega-design pipeline
      throughput at the largest size swept), plus the per-size
      embed_ops_per_s_<tag> / detect_ops_per_s_<tag> keys and
      stream_parse_mb_per_s when both artifacts carry them (a --smoke
      artifact stops at 10k, so the 100k/1m keys are optional).
  serve: resident_detect_per_s / cold_detect_per_s (service request
      throughput with the design resident vs re-loaded per request) and
      detect_speedup (their ratio), plus the per-size *_1k / *_100k
      keys when both artifacts carry them (a --smoke artifact stops
      at 1k).
  periodic: modulo_per_s / res_modulo_per_s (modulo-scheduling
      throughput with unlimited vs tight resources), verify_per_s
      (periodic legality re-check throughput), and minii_hit_rate (the
      fraction of unlimited-resource cases where the II search closed
      at MinII — 1.0 by construction, gated so it can only regress
      loudly).

Intended use: run the bench on the pre-change and post-change trees,
then diff the artifacts —

    ./build-old/bench/bench_micro --threads 1 --json old.json --benchmark_filter=^$
    ./build-new/bench/bench_micro --threads 1 --json new.json --benchmark_filter=^$
    python3 tools/bench_compare.py old.json new.json

The bench-smoke ctests self-compare the checked-in BENCH_micro.json and
BENCH_delay.json, which pins both artifact schemas (the keys must
exist) and the tool's CLI without depending on the noise of a live
timing run.
"""
import argparse
import json
import pathlib
import sys

# Per-schema higher-is-better keys, keyed by the artifact's "bench" tag.
# Artifacts without the tag predate it and are bench_micro ones.
# Benches whose tag has no entry here carry no gated throughput keys.
SCHEMAS = {
    "micro": {
        "required": ["fds_speedup"],
        "optional": ["fds_eps_speedup"],
    },
    "delay": {
        "required": ["unit_build_per_s", "bounded_build_per_s",
                     "kpaths_per_s"],
        "optional": [],
    },
    "scale": {
        "required": ["embed_ops_per_s", "detect_ops_per_s"],
        "optional": ["stream_parse_mb_per_s",
                     "embed_ops_per_s_1k", "detect_ops_per_s_1k",
                     "embed_ops_per_s_10k", "detect_ops_per_s_10k",
                     "embed_ops_per_s_100k", "detect_ops_per_s_100k",
                     "embed_ops_per_s_1m", "detect_ops_per_s_1m"],
    },
    "periodic": {
        "required": ["modulo_per_s", "res_modulo_per_s", "verify_per_s",
                     "minii_hit_rate"],
        "optional": [],
    },
    "serve": {
        "required": ["resident_detect_per_s", "cold_detect_per_s",
                     "detect_speedup"],
        "optional": ["resident_embed_per_s", "cold_embed_per_s",
                     "resident_detect_per_s_1k", "cold_detect_per_s_1k",
                     "detect_speedup_1k",
                     "resident_embed_per_s_1k", "cold_embed_per_s_1k",
                     "resident_detect_per_s_100k", "cold_detect_per_s_100k",
                     "detect_speedup_100k",
                     "resident_embed_per_s_100k", "cold_embed_per_s_100k"],
    },
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", type=pathlib.Path)
    ap.add_argument("candidate", type=pathlib.Path)
    ap.add_argument("--max-regress", type=float, default=0.10,
                    help="allowed fractional drop (default 0.10 = 10%%)")
    ap.add_argument("--key", action="append", default=[],
                    help="extra higher-is-better key to compare")
    args = ap.parse_args()

    try:
        base = json.loads(args.baseline.read_bytes())
        cand = json.loads(args.candidate.read_bytes())
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 1

    base_tag = base.get("bench", "micro")
    cand_tag = cand.get("bench", "micro")
    if base_tag != cand_tag:
        print(f"bench_compare: artifact mismatch ({base_tag} vs {cand_tag})",
              file=sys.stderr)
        return 1
    schema = SCHEMAS.get(base_tag)
    if schema is None:
        print(f"bench_compare: unknown bench tag '{base_tag}'",
              file=sys.stderr)
        return 1

    keys = list(schema["required"]) + args.key
    for key in schema["optional"]:
        if key in base and key in cand:
            keys.append(key)

    failed = False
    for key in keys:
        if key not in base or key not in cand:
            print(f"FAIL {key}: missing "
                  f"({'baseline' if key not in base else 'candidate'})")
            failed = True
            continue
        b, c = float(base[key]), float(cand[key])
        delta = (c - b) / b if b != 0 else 0.0
        regressed = b > 0 and c < b * (1.0 - args.max_regress)
        status = "FAIL" if regressed else "ok"
        print(f"{status:4s} {key}: {b:.3f} -> {c:.3f} ({delta:+.1%})")
        failed = failed or regressed

    if failed:
        print(f"bench_compare: regression beyond {args.max_regress:.0%}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
