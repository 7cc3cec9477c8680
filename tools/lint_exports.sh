#!/bin/sh
# Fail on exported values that no program code outside their own
# module uses.
#
# Every `val` in lib/**/*.mli is an export.  It counts as used when
# some .ml/.mli file under lib/, bin/, bench/, perf/ or examples/,
# other than the module's own <m>.ml and <m>.mli, contains both the
# value's name and the module's name as words (a qualified reference,
# an `open`, or a local alias all leave the module name in the file).
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

found=$(
  {
    find lib bin bench perf examples \( -name '*.ml' -o -name '*.mli' \) \
      -not -path '*/_build/*' | sort | while IFS= read -r f; do
      grep -oE "[A-Za-z_][A-Za-z0-9_']*" "$f" | sort -u \
        | awk -v f="$f" '{ print "W", f, $1 }'
    done
    find lib -name '*.mli' | sort | while IFS= read -r f; do
      grep -oE "^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_']*" "$f" \
        | awk -v f="$f" '{ print "V", f, $2 }'
    done
  } | awk '
    # W <file> <word>: the file (extension dropped) contains the word
    $1 == "W" {
      f = $2; sub(/\.mli?$/, "", f)
      has[f, $3] = 1
      if (index(files[$3], "|" f "|") == 0) files[$3] = files[$3] "|" f "|"
      next
    }
    # V <mli> <name>: used if another file has both name and module
    $1 == "V" {
      own = $2; sub(/\.mli$/, "", own)
      m = own; sub(/.*\//, "", m)
      m = toupper(substr(m, 1, 1)) substr(m, 2)
      n = split(files[$3], fs, "|")
      used = 0
      for (i = 1; i <= n; i++)
        if (fs[i] != "" && fs[i] != own && has[fs[i], m]) { used = 1; break }
      if (!used) print $2 ":" $3
    }' | sort -u
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
