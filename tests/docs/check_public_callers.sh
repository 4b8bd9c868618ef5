#!/usr/bin/env bash
# docs-check, public callers.  Two checks over the src/**/*.h headers,
# each against the C++ files under src/, bench/, examples/, tools/ and
# svcbench/ (the production files; tests/ does not count):
#
#   * functions: every function declared at namespace scope must be
#     named, as a word, in a production file other than its own .h/.cpp.
#     A function only tests/ reaches is test surface in the shipped
#     library: delete it, or move it into test support.
#   * option fields: every data member of a struct named *Options,
#     *Config or *Limits must be set in a production file other than its
#     own header, as ".name =" (a compound assignment or a designated
#     initializer too) or ".name." (a sub-field or a mutating call), or
#     the same after "->".  A knob that only a test sets selects a code
#     path no shipped flow runs: delete it with its branch, or make it a
#     named constant.  Fields are matched by name, so two structs that
#     share a field name share its setters.
#
# Comments, string literals and preprocessor lines never count.  Member
# functions are not checked.  Exceptions are the ALLOW (functions) and
# ALLOW_FIELDS lists below, one entry per line with its reason.  An
# entry that is no longer declared, or that has gained a caller or a
# setter, fails too, so the lists stay short.
#
# Usage: check_public_callers.sh <repo-root>
set -u

ROOT="$1"

# name <TAB> reason
ALLOW=$(cat <<'EOF'
validate	building block of validate_or_throw, which the generators call; tests check graphs with it
order_locality	the reference ordering the locality oracle test compares against
verify_binding	verifier that register-binding tests check bindings with
verify_coloring	verifier that coloring tests check colorings with
greedy_coloring	baseline the coloring watermark tests compare against
binding_from_coloring	small helper the coloring and binding tests use
parse_library	trust-boundary format with a fuzz target (tests/fuzz)
library_to_text	writer half of the parse_library round trip
plan_reg_watermark	building block of plan_reg_watermarks, tested directly
plan_color_watermark	building block of plan_color_watermarks, tested directly
order_ball	building block of the locality ordering, tested directly
resource_min_ii	building block of modulo_schedule's MinII, tested directly
matches_at	building block of the template matcher, tested directly
known_type	building block of the frame decoder, tested directly
append_frame	building block of the frame encoder, tested directly
response_type	small helper the frame tests use
write_trace_events	building block of write_chrome_trace, pinned by a golden test
EOF
)

# Struct::field <TAB> reason
ALLOW_FIELDS=$(cat <<'EOF'
ServiceOptions::max_marks	bound on untrusted embed/pc requests; tests probe the refusal at the default
ServiceOptions::max_k	bound on untrusted embed requests; tests probe the refusal at the default
ServiceOptions::max_tau	bound on untrusted embed/pc/detect requests; tests probe the refusal at the default
ReadLimits::max_bytes	bound on untrusted input files; tests probe the refusal at the default
StreamLimits::max_line_bytes	bound on untrusted streamed lines; tests lower it to reach the refusal
StreamLimits::chunk_bytes	window size of the untrusted-stream reader; tests shrink it to put lines across chunk seams
EOF
)

cxx_files() {
  find "$@" -type f \( -name '*.h' -o -name '*.cpp' \) \
    -not -path '*/build/*' -not -path '*/build-*/*' | sort
}

# Strips comments, string and character literals and preprocessor lines
# (with their continuations) from C++ text; prints what is left, one
# output line per input line.  Shared by both passes below.
STRIP='
  BEGIN { inblock = 0; cont = 0 }
  FNR == 1 { inblock = 0; cont = 0 }
  {
    line = $0
    if (cont) { cont = (line ~ /\\$/); print ""; next }
    if (!inblock && line ~ /^[ \t]*#/) { cont = (line ~ /\\$/); print ""; next }
    out = ""
    while (line != "") {
      if (inblock) {
        p = index(line, "*/")
        if (p == 0) { line = ""; break }
        line = substr(line, p + 2); inblock = 0; continue
      }
      p = match(line, /\/\/|\/\*|"|'"'"'/)
      if (p == 0) { out = out line; break }
      out = out substr(line, 1, p - 1)
      tok = substr(line, p, RLENGTH)
      line = substr(line, p + RLENGTH)
      if (tok == "//") break
      if (tok == "/*") { inblock = 1; continue }
      # A quote after a digit is a digit separator (1'"'"'000), not a literal.
      if (tok == "'"'"'" && substr(out, length(out), 1) ~ /[0-9A-Fa-f]/) continue
      # A string or character literal: skip to its closing quote.
      while (line != "") {
        c = substr(line, 1, 1)
        if (c == "\\") { line = substr(line, 3); continue }
        line = substr(line, 2)
        if (c == tok) break
      }
      out = out " "
    }
    print out
  }'

# Pass 1: "<name> <header>" for every namespace-scope function declaration
# or definition.  Braces that open a namespace (or extern "C") keep the
# scan at namespace scope; any other brace outside parentheses opens a
# scope whose contents are skipped.
decls=$(
  for h in $(cxx_files "$ROOT/src" | grep '\.h$'); do
    awk "$STRIP" "$h" | awk -v file="$h" '
      function check(s,    p, pre, name) {
        gsub(/[ \t]+/, " ", s)
        if (s ~ /(^|[^A-Za-z0-9_])(using|typedef|static_assert|operator)([^A-Za-z0-9_]|$)/) return
        p = index(s, "(")
        if (p == 0) return
        pre = substr(s, 1, p - 1)
        if (pre ~ /=/) return          # a variable with an initializer
        sub(/[ ]+$/, "", pre)
        if (!match(pre, /[A-Za-z_][A-Za-z0-9_]*$/)) return
        name = substr(pre, RSTART, RLENGTH)
        if (RSTART > 1 && substr(pre, RSTART - 1, 1) ~ /[:~]/) return
        if (name ~ /^[A-Z][A-Z0-9_]*$/) return   # a macro invocation
        if (name ~ /^(alignas|decltype|noexcept|requires)$/) return
        print name, file
      }
      BEGIN { depth = 0; other = 0; paren = 0; stmt = "" }
      {
        n = length($0)
        for (i = 1; i <= n; ++i) {
          c = substr($0, i, 1)
          if (paren > 0 || other > 0) {
            if (c == "(") ++paren
            else if (c == ")") --paren
            else if (paren == 0 && c == "{") { kind[++depth] = "o"; ++other }
            else if (paren == 0 && c == "}") { if (kind[depth--] == "o") --other }
            if (other == 0) stmt = stmt c
            continue
          }
          if (c == "(") { ++paren; stmt = stmt c }
          else if (c == ";") { check(stmt); stmt = "" }
          else if (c == "{") {
            if (stmt ~ /(^|[^A-Za-z0-9_])(namespace|extern)([^A-Za-z0-9_]|$)/) {
              kind[++depth] = "n"
            } else {
              check(stmt)
              kind[++depth] = "o"; ++other
            }
            stmt = ""
          } else if (c == "}") {
            if (kind[depth--] == "o") --other
            stmt = ""
          } else stmt = stmt c
        }
        stmt = stmt " "
      }'
  done | sort -u
)

# Pass 2: "<word> <file>" for every identifier of every C++ file under the
# non-test trees, once per file.
words=$(
  for f in $(cxx_files "$ROOT/src" "$ROOT/bench" "$ROOT/examples" \
                       "$ROOT/tools" "$ROOT/svcbench"); do
    awk "$STRIP" "$f" | tr -cs 'A-Za-z0-9_' '\n' | sort -u |
      awk -v file="$f" 'NF { print $1, file }'
  done
)

awk -v root="$ROOT/" '
  # Removes every " <file> " from the caller list s.
  function drop(s, file,    p, key) {
    key = " " file " "
    while ((p = index(s, key)) > 0) {
      s = substr(s, 1, p - 1) " " substr(s, p + length(key))
    }
    return s
  }
  section == 0 {
    if ($0 == "--decls--") { section = 1; next }
    split($0, f, "\t"); allow[f[1]] = 1; next
  }
  section == 1 {
    if ($0 == "--words--") { section = 2; next }
    ++nd; dname[nd] = $1; dfile[nd] = $2; declared[$1] = 1; next
  }
  section == 2 {
    if ($1 in declared) callers[$1] = callers[$1] " " $2 " "
  }
  END {
    status = 0
    for (i = 1; i <= nd; ++i) {
      name = dname[i]; h = dfile[i]; cpp = h; sub(/\.h$/, ".cpp", cpp)
      rest = drop(drop(callers[name], h), cpp)
      if (rest ~ /[^ ]/) { used[name] = 1; continue }
      if (name in allow) { allowed_unused[name] = 1; continue }
      rel = h
      if (index(rel, root) == 1) rel = substr(rel, length(root) + 1)
      printf "no non-test caller: %s (declared in %s)\n", name, rel
      status = 1
    }
    for (name in allow) {
      if (!(name in declared)) {
        printf "stale ALLOW entry: %s is not declared in src/\n", name
        status = 1
      } else if ((name in used) && !(name in allowed_unused)) {
        printf "stale ALLOW entry: %s has a non-test caller\n", name
        status = 1
      }
    }
    if (status == 0) {
      printf "PASS: all %d public src/ functions have a non-test caller" \
             " or an ALLOW entry\n", nd
    }
    exit status
  }' <(printf '%s\n--decls--\n%s\n--words--\n%s\n' "$ALLOW" "$decls" "$words")

status=$?

# ---- Option fields --------------------------------------------------------

# Pass 3: "<Struct>::<field> <header>" for every data member of every
# struct named *Options, *Config or *Limits.  Inside such a struct body
# a statement ending in ";" is a field unless it is a declaration of
# another kind (static, using, a nested type, a function); a braced
# initializer stays part of its field, a function body or nested type
# body is skipped.
fields=$(
  for h in $(cxx_files "$ROOT/src" | grep '\.h$'); do
    awk "$STRIP" "$h" | awk -v file="$h" '
      function field(s,    p) {
        gsub(/[ \t]+/, " ", s)
        sub(/^ /, "", s)
        sub(/^(public|private|protected) ?: ?/, "", s)
        if (s ~ /^(static|using|typedef|friend|enum|struct|class|union|template)([^A-Za-z0-9_]|$)/) return
        p = index(s, "="); if (p > 0) s = substr(s, 1, p - 1)
        p = index(s, "{"); if (p > 0) s = substr(s, 1, p - 1)
        if (index(s, "(") > 0) return        # a function declaration
        sub(/ ?\[[^]]*\] ?$/, "", s)         # an array bound
        sub(/ +$/, "", s)
        if (!match(s, /[A-Za-z_][A-Za-z0-9_]*$/)) return
        print sname "::" substr(s, RSTART, RLENGTH), file
      }
      BEGIN { depth = 0; sdepth = 0; stmt = "" }
      {
        n = length($0)
        for (i = 1; i <= n; ++i) {
          c = substr($0, i, 1)
          if (sdepth > 0 && depth > sdepth) {          # inside a member body
            if (c == "{") ++depth
            else if (c == "}" && --depth == sdepth) {
              if (stmt ~ /\(/ || stmt ~ /^[ ]*(enum|struct|class|union)([^A-Za-z0-9_]|$)/) stmt = ""
              else stmt = stmt "}"
            }
            continue
          }
          if (c == "{") {
            ++depth
            if (sdepth == 0) {
              if (match(stmt, /(^|[^A-Za-z0-9_])struct +[A-Za-z_][A-Za-z0-9_]*(Options|Config|Limits)( +final)?( *:[^{]*)? *$/)) {
                sname = substr(stmt, RSTART, RLENGTH)
                sub(/^[^A-Za-z0-9_]?struct +/, "", sname)
                sub(/[^A-Za-z0-9_].*$/, "", sname)
                sdepth = depth
              }
              stmt = ""
            } else stmt = stmt "{"
          } else if (c == "}") {
            if (sdepth > 0 && depth == sdepth) sdepth = 0
            --depth
            stmt = ""
          } else if (c == ";") {
            if (sdepth > 0 && depth == sdepth) field(stmt)
            stmt = ""
          } else stmt = stmt c
        }
        stmt = stmt " "
      }'
  done | sort -u
)

# Pass 4: "<field> <file>" for every ".field =" / ".field." (or "->")
# in the production files, once per file.
setters=$(
  for f in $(cxx_files "$ROOT/src" "$ROOT/bench" "$ROOT/examples" \
                       "$ROOT/tools" "$ROOT/svcbench"); do
    awk "$STRIP" "$f" | awk -v file="$f" '
      {
        line = $0
        while (match(line, /(\.|->)[A-Za-z_][A-Za-z0-9_]*[ \t]*(([-+*\/%&|^]|<<|>>)?=([^=]|$)|\.)/)) {
          at = RSTART
          tok = substr(line, RSTART, RLENGTH)
          sub(/^(\.|->)/, "", tok)
          match(tok, /^[A-Za-z_][A-Za-z0-9_]*/)
          print substr(tok, RSTART, RLENGTH), file
          line = substr(line, at + 1)
        }
      }' | sort -u
  done
)

awk -v root="$ROOT/" '
  section == 0 {
    if ($0 == "--fields--") { section = 1; next }
    if ($0 == "") next
    split($0, f, "\t"); allow[f[1]] = 1; next
  }
  section == 1 {
    if ($0 == "--setters--") { section = 2; next }
    ++nf; fqual[nf] = $1; ffile[nf] = $2; declared[$1] = 1
    name = $1; sub(/^.*::/, "", name); fname[nf] = name; wanted[name] = 1
    next
  }
  section == 2 {
    if ($1 in wanted) setters[$1] = setters[$1] " " $2 " "
  }
  END {
    status = 0
    for (i = 1; i <= nf; ++i) {
      q = fqual[i]; h = ffile[i]
      rest = setters[fname[i]]
      key = " " h " "
      while ((p = index(rest, key)) > 0) {
        rest = substr(rest, 1, p - 1) " " substr(rest, p + length(key))
      }
      if (rest ~ /[^ ]/) { set[q] = 1; continue }
      if (q in allow) continue
      rel = h
      if (index(rel, root) == 1) rel = substr(rel, length(root) + 1)
      printf "no non-test setter: %s (declared in %s)\n", q, rel
      status = 1
    }
    for (q in allow) {
      if (!(q in declared)) {
        printf "stale ALLOW_FIELDS entry: %s is not declared in src/\n", q
        status = 1
      } else if (q in set) {
        printf "stale ALLOW_FIELDS entry: %s has a non-test setter\n", q
        status = 1
      }
    }
    if (status == 0) {
      printf "PASS: all %d option fields are set outside tests/ or have" \
             " an ALLOW_FIELDS entry\n", nf
    }
    exit status
  }' <(printf '%s\n--fields--\n%s\n--setters--\n%s\n' "$ALLOW_FIELDS" \
         "$fields" "$setters") || status=1

exit "$status"
