#!/bin/sh
# Fail on exported values that no program code outside their own
# module uses.
#
# Every `val` in lib/**/*.mli is an export.  It counts as used when
# some .ml/.mli file under lib/, bin/, bench/, perf/ or examples/,
# other than the module's own <m>.ml and <m>.mli, contains both the
# value's name and the module's name as words (a qualified reference,
# an `open`, or a local alias all leave the module name in the file).
# Words inside comments and string literals do not count: a comment
# or a string naming an export is not a caller.
# Tests do not count as callers: an export only tests reach is either
# a test hook, which the allowlist says, or dead code.
#
# Survivors must appear in tools/exports_allowlist.txt as
# `<mli path>:<name>`, and every allowlist line must name a current
# survivor (stale lines fail).  The check is a grep heuristic: a name
# that is also a word in an unrelated file mentioning the module can
# hide a dead export, never invent one.

set -eu
cd "$(dirname "$0")/.."

allow=tools/exports_allowlist.txt

# One awk run over every file.  Each line has its OCaml comments and
# the contents of its string literals blanked out first: comments
# nest, and string and character literals are skipped whole, inside
# comments as well as outside, as the OCaml lexer does; the lexer
# state resets at each file's first line.  The
# words of what is left are recorded per file (extension dropped, so
# <m>.ml and <m>.mli are one module), and every `val` of an .mli under
# lib/ is an export.  At the end an export is used when another file
# has both its name and its module's name as words.
set -- $(find lib bin bench perf examples \( -name '*.ml' -o -name '*.mli' \) \
  -not -path '*/_build/*' | sort)
found=$(
  awk '
    FNR == 1 {
      depth = 0; str = 0
      f = FILENAME; sub(/\.mli?$/, "", f)
      mli = FILENAME ~ /^lib\/.*\.mli$/
    }
    {
      line = $0; out = ""; n = length(line); i = 1
      # outside comments and strings, a line that opens no comment and
      # has no quote is kept as it is
      if (!depth && !str && line !~ /\(\*|["\047]/) { out = line; i = n + 1 }
      while (i <= n) {
        c = substr(line, i, 1); c2 = substr(line, i, 2); w = 1
        lit = str
        if (str) {
          if (c == "\\") w = 2
          else if (c == "\"") str = 0
        } else if (c2 == "(*") {
          depth++; w = 2; c = " "
        } else if (depth && c2 == "*)") {
          depth--; w = 2; c = " "
        } else if (c == "\"") {
          str = 1
        } else if (c == "\047" && substr(line, i + 1, 1) == "\\") {
          w = 3
          while (i + w <= n && substr(line, i + w, 1) != "\047") w++
          w++
        } else if (c == "\047" && substr(line, i + 2, 1) == "\047") {
          w = 3
        }
        if (!depth && !lit && !str && c != " ") out = out substr(line, i, w)
        else out = out " "
        i += w
      }
      if (mli &&
          match(out, /^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_\047]*/)) {
        v = substr(out, RSTART, RLENGTH)
        sub(/^[[:space:]]*val[[:space:]]+/, "", v)
        nv++; vfile[nv] = f; vname[nv] = v
      }
      while (match(out, /[A-Za-z_][A-Za-z0-9_\047]*/)) {
        word = substr(out, RSTART, RLENGTH)
        out = substr(out, RSTART + RLENGTH)
        if (!((f, word) in has)) {
          has[f, word] = 1; files[word] = files[word] "|" f
        }
      }
    }
    END {
      for (k = 1; k <= nv; k++) {
        own = vfile[k]; m = own; sub(/.*\//, "", m)
        m = toupper(substr(m, 1, 1)) substr(m, 2)
        nf = split(files[vname[k]], fs, "|")
        used = 0
        for (i = 1; i <= nf; i++)
          if (fs[i] != "" && fs[i] != own && ((fs[i], m) in has)) {
            used = 1; break
          }
        if (!used) print own ".mli:" vname[k]
      }
    }' "$@" | sort -u
)

status=0
for entry in $found; do
  if ! grep -qxF "$entry" "$allow"; then
    printf 'lint-exports: %s: no caller outside its module\n' "$entry"
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  printf 'lint-exports: delete the export (or allowlist it in %s with a reason)\n' "$allow"
fi

# The converse: a line whose export is gone, or now has a caller,
# would silently excuse a future dead export of the same name.
for entry in $(grep -vE '^[[:space:]]*(#|$)' "$allow"); do
  if ! printf '%s\n' "$found" | grep -qxF "$entry"; then
    printf 'lint-exports: stale allowlist line %s: exported and used, or gone\n' "$entry"
    status=1
  fi
done

[ "$status" -eq 0 ] && echo "lint-exports: ok (every export in lib/ has a caller or a reason)"
exit "$status"
