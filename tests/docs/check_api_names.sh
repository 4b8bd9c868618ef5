#!/usr/bin/env bash
# docs-check, API names: every backticked `ns::name` in the maintained
# docs (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md) must name an
# identifier that still appears in the sources (src/, and bench/ for the
# bench:: CLI layer), so deleting or renaming API cannot leave the docs
# describing a function that is gone.  Wildcards (`sched::bnb_*`) and
# std:: names are skipped.
#
# Usage: check_api_names.sh <repo-root>
set -u

ROOT="$1"
status=0
checked=0

for md in "$ROOT/README.md" "$ROOT/DESIGN.md" "$ROOT/EXPERIMENTS.md" \
          "$ROOT"/docs/*.md; do
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
           grep -oE '\b[a-z_][a-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*\*?')
done

if [ "$status" -eq 0 ]; then
  echo "PASS: all $checked backticked API names resolve in the sources"
fi
exit $status
