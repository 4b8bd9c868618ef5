#!/usr/bin/env bash
# docs-check: fail on dead *relative* links in the repo's markdown,
# (check_api_names.sh) on backticked API names that left src/, and
# (check_public_callers.sh) on public src/ functions only tests call.
# Scans every tracked-location .md (skipping build trees and .git),
# extracts [text](target) links, and requires each relative target to
# exist on disk, resolved against the file's own directory.  External
# schemes and pure #anchors are skipped — this guards the file tree, not
# the web.
#
# Usage: check_links.sh <repo-root>
set -u

ROOT="$1"
status=0

while IFS= read -r md; do
  dir=$(dirname "$md")
  # Inline links: capture the (...) target of every [...](...).
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    # Strip any #anchor and surrounding whitespace.
    path="${target%%#*}"
    path="$(echo "$path" | sed 's/^ *//; s/ *$//')"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "dead link in $md: ($target)"
      status=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$md" 2>/dev/null | sed 's/^.*](\(.*\))$/\1/')
done < <(find "$ROOT" -name '*.md' \
           -not -path '*/build/*' -not -path '*/build-*/*' \
           -not -path '*/.git/*' -not -path '*/related/*' \
           -not -name 'PAPERS.md' -not -name 'SNIPPETS.md' \
           -not -name 'ISSUE.md')
# PAPERS.md / SNIPPETS.md / ISSUE.md are externally generated digests
# whose pdf-extraction artifacts and code snippets false-positive as
# markdown links; they are not part of the maintained doc tree.

if [ "$status" -eq 0 ]; then
  echo "PASS: no dead relative links"
fi
bash "$(dirname "$0")/check_api_names.sh" "$ROOT" || status=1
bash "$(dirname "$0")/check_public_callers.sh" "$ROOT" || status=1
exit $status
