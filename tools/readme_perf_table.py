#!/usr/bin/env python3
"""Regenerate README.md's performance tables from the bench artifacts.

The block between the `perf-table:begin` / `perf-table:end` markers is
owned by this script — edit the checked-in BENCH_scale / BENCH_serve
artifacts (by re-running their benches) and re-run this, never the
tables by hand:

    ./build/bench/bench_scale --threads 1 --json BENCH_scale.json
    ./build/bench/bench_serve --threads 1 --json BENCH_serve.json
    python3 tools/readme_perf_table.py
"""
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BEGIN = "<!-- perf-table:begin (generated by tools/readme_perf_table.py) -->"
END = "<!-- perf-table:end -->"


def scale_lines() -> list:
    """The workload-scale table from BENCH_scale.json."""
    scale = json.loads((ROOT / "BENCH_scale.json").read_bytes())
    lines = [
        "",
        f"`BENCH_scale.json` — the mega-design pipeline (generate,"
        f" streaming parse, locality-parallel embed, batch detect) per"
        f" workload scale, {scale['threads']} thread(s), streaming parse"
        f" {scale['stream_parse_mb_per_s']:.0f} MB/s at the largest size:",
        "",
        "| design size | parse MB/s | embed ops/s | detect ops/s |",
        "|-------------|------------|-------------|--------------|",
    ]
    for tag, label in (("1k", "1k ops"), ("10k", "10k ops"),
                       ("100k", "100k ops"), ("1m", "1M ops")):
        parse = scale.get(f"stream_parse_mb_per_s_{tag}")
        embed = scale.get(f"embed_ops_per_s_{tag}")
        detect = scale.get(f"detect_ops_per_s_{tag}")
        if embed is None or detect is None:
            continue
        parse_cell = "—" if parse is None else f"{parse:.1f}"
        lines.append(f"| {label} | {parse_cell} | {embed:,.0f} |"
                     f" {detect:,.0f} |")
    return lines


def serve_lines() -> list:
    """The resident-vs-cold service table from BENCH_serve.json."""
    serve = json.loads((ROOT / "BENCH_serve.json").read_bytes())
    lines = [
        "",
        f"`BENCH_serve.json` — the watermark service"
        f" (docs/service.md): requests/s against a resident design vs"
        f" paying parse + timing + planning per request,"
        f" {serve['threads']} thread(s):",
        "",
        "| design size | resident detect/s | cold detect/s | speedup |"
        " resident embed/s |",
        "|-------------|-------------------|---------------|---------|"
        "------------------|",
    ]
    for tag, label in (("1k", "1k ops"), ("100k", "100k ops")):
        res = serve.get(f"resident_detect_per_s_{tag}")
        cold = serve.get(f"cold_detect_per_s_{tag}")
        emb = serve.get(f"resident_embed_per_s_{tag}")
        if res is None or cold is None:
            continue
        speedup = res / cold if cold else 0.0
        lines.append(f"| {label} | {res:,.2f} | {cold:,.2f} |"
                     f" **{speedup:.1f}x** | {emb:,.2f} |")
    return lines


def main() -> int:
    block = "\n".join([BEGIN] + scale_lines() + serve_lines() + [END])

    readme_path = ROOT / "README.md"
    readme = readme_path.read_bytes().decode()
    begin = readme.find(BEGIN)
    end = readme.find(END)
    if begin < 0 or end < 0:
        print("README.md is missing the perf-table markers", file=sys.stderr)
        return 1
    readme = readme[:begin] + block + readme[end + len(END):]
    readme_path.write_bytes(readme.encode())
    print("README.md perf tables regenerated from BENCH_scale.json and "
          "BENCH_serve.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
