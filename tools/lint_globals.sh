#!/bin/sh
# Fail on new module-level mutable state in lib/.
#
# The shard handle (DESIGN.md 3.6) owns every piece of per-kernel
# state; module-level refs and mutable containers are exactly what it
# de-globalized, so any new one is a bug unless it is an allowlisted
# installed-instance cell.  The check is a grep heuristic:
#
#   - candidate lines: `let <name> [: type] = ref ...` or
#     `= Hashtbl.create/Queue.create/Buffer.create/Stack.create/
#        Atomic.make/Array.make/Bytes.create/Dynarray.create`
#   - lines that bind with `... in` on the same line are
#     function-local and skipped
#   - survivors must appear in tools/globals_allowlist.txt as
#     `<file>:<binding-name>`, and every allowlist line must name a
#     surviving binding (stale lines fail)
#
# Multi-line function-local bindings can slip through as false
# positives; allowlist them with a comment rather than loosening the
# pattern.

set -eu
cd "$(dirname "$0")/.."

allow=tools/globals_allowlist.txt
pat='^[[:space:]]*let[[:space:]]+[a-z_][a-zA-Z0-9_'\'']*[[:space:]]*(:[^=]*)?=[[:space:]]*(ref[[:space:](]|Hashtbl\.create|Queue\.create|Buffer\.create|Stack\.create|Atomic\.make|Array\.make|Bytes\.create|Dynarray\.create)'

matches=$(grep -rEn "$pat" lib --include='*.ml' 2>/dev/null \
  | grep -vE '[[:space:]]in([[:space:]]|$)' || true)

# file:binding for every candidate line
found=$(printf '%s\n' "$matches" | while IFS= read -r m; do
  [ -n "$m" ] || continue
  file=${m%%:*}
  rest=${m#*:}
  rest=${rest#*:} # strip the line number
  name=$(printf '%s' "$rest" \
    | sed -E 's/^[[:space:]]*let[[:space:]]+([a-z_][a-zA-Z0-9_'\'']*).*/\1/')
  printf '%s:%s\n' "$file" "$name"
done)

status=0
printf '%s\n' "$found" | while IFS= read -r entry; do
  [ -n "$entry" ] || continue
  if ! grep -qxF "$entry" "$allow"; then
    printf 'lint-globals: %s\n' "$entry"
    printf 'lint-globals: module-level mutable state outside the shard handle;\n'
    printf 'lint-globals: move it into Kstate.t (or allowlist it in %s with a reason)\n' "$allow"
    touch .lint_globals_failed
  fi
done

# The converse: an allowlist line whose binding is gone (or no longer
# matches the pattern) would silently excuse a future binding of the
# same name, so stale lines fail too.
grep -vE '^[[:space:]]*(#|$)' "$allow" | while IFS= read -r entry; do
  if ! printf '%s\n' "$found" | grep -qxF "$entry"; then
    printf 'lint-globals: stale allowlist line %s: no such module-level binding in lib/\n' "$entry"
    touch .lint_globals_failed
  fi
done

if [ -e .lint_globals_failed ]; then
  rm -f .lint_globals_failed
  status=1
fi
[ "$status" -eq 0 ] && echo "lint-globals: ok (lib/ has no stray module-level mutable state)"
exit "$status"
