#!/usr/bin/env bash
# docs-check, API names: the maintained docs (README.md, DESIGN.md,
# EXPERIMENTS.md, docs/*.md) must not describe code that is gone.
#   * every backticked `ns::name` (or `ns::inner::name`) must name an
#     identifier that still appears in the sources (src/, and bench/ for
#     the bench:: CLI layer); wildcards (`wm::plan_*`) and std:: names
#     are skipped;
#   * every backticked snake_case identifier, bare or called
#     (`plan_sched_watermark`, `sched_pc_auto(g, marks)`), must appear in
#     src/, bench/, tools/, tests/, examples/ or svcbench/ — as a word
#     of a source, script or CMake file, or as a file name there.
#
# Usage: check_api_names.sh <repo-root>
set -u

ROOT="$1"
status=0
checked=0
DOCS=("$ROOT/README.md" "$ROOT/DESIGN.md" "$ROOT/EXPERIMENTS.md" "$ROOT"/docs/*.md)
TREES=("$ROOT/src" "$ROOT/bench" "$ROOT/tools" "$ROOT/tests" "$ROOT/examples"
       "$ROOT/svcbench")

for md in "${DOCS[@]}"; do
  [ -f "$md" ] || continue
  while IFS= read -r ref; do
    case "$ref" in
      std::*|*'*') continue ;;
    esac
    checked=$((checked + 1))
    if ! grep -rqw --include='*.h' --include='*.cpp' -e "${ref##*::}" \
         "$ROOT/src" "$ROOT/bench"; then
      echo "dead API name in ${md#"$ROOT"/}: \`$ref\` is not in the sources"
      status=1
    fi
  done < <(grep -oE '`[^`]+`' "$md" |
           grep -oE '\b[a-z_][a-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+\*?')
done

file_names=$(find "${TREES[@]}" -type f -printf '%f\n' | sed 's/\.[^.]*$//')
while IFS=$'\t' read -r md name; do
  [ -n "$name" ] || continue
  checked=$((checked + 1))
  if ! grep -qxF -e "$name" <<<"$file_names" &&
     ! grep -rqw --include='*.h' --include='*.cpp' --include='*.py' \
          --include='*.sh' --include='CMakeLists.txt' --include='*.cmake' \
          -e "$name" "${TREES[@]}"; then
    echo "dead name in ${md#"$ROOT"/}: \`$name\` is not in the sources"
    status=1
  fi
done < <(for md in "${DOCS[@]}"; do
           [ -f "$md" ] || continue
           grep -oE '`[^`]+`' "$md" |
             grep -oE '^`[a-z][a-z0-9]*(_[a-z0-9]+)+(\([^`]*\))?`$' |
             sed -E 's/^`//; s/[(`].*//' | sed "s|^|$md\t|"
         done | sort -u -t$'\t' -k1,1 -k2,2)

if [ "$status" -eq 0 ]; then
  echo "PASS: all $checked backticked API names resolve in the sources"
fi
exit $status
