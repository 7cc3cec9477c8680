#!/bin/sh
# Fail on exported values that no program code outside their own
# module uses.
#
# Every `val` in lib/**/*.mli is an export.  It counts as used when
# some .ml/.mli file under lib/, bin/, bench/, perf/ or examples/,
# other than the module's own <m>.ml and <m>.mli, names it through its
# module: qualified (`Sysno.is_valid`, also at the end of a longer
# path such as `Abi.Sysno.is_valid`, or through a local alias
# `module S = Abi.Sysno` then `S.is_valid`), or by its bare name in a
# file that opens the module (`open M`, `let open M`, `include M`,
# `M.(`...`)`).  A same-named value of another module is not a caller.
# Words inside comments and string literals do not count: a comment
# or a string naming an export is not a caller.  Nor does a name in a
# type position (an interface, a `type` item, a signature, an
# annotation): a field `obs : Obs.engine` names the type, not the
# value `Obs.engine`.
# Tests do not count as callers: an export only tests reach is either
# a test hook, which the allowlist says, or dead code.
#
# The same holds for each optional parameter `?l` in an exported val's
# type: it counts as used when some .ml file outside the module passes
# `~l` or `?l`.  A knob no program sets is dead code too.
#
# Survivors must appear in tools/exports_allowlist.txt as
# `<mli path>:<name>` (a label as `<mli path>:<name>?<label>`), and
# every allowlist line must name a current survivor (stale lines
# fail).  Outside the allowlist's modelled-interface group, each line
# must be named in the comment block directly above it, which gives
# its reason.  The check is a lexical heuristic: a bare name in a file
# that opens the module, a module of the same name elsewhere, or a
# label of the same name passed to another function, can hide a dead
# export, never invent one.

set -eu
cd "$(dirname "$0")/.."

allow=tools/exports_allowlist.txt

# One awk run over every file.  Each line has its OCaml comments and
# the contents of its string literals blanked out first: comments
# nest, and string and character literals are skipped whole, inside
# comments as well as outside, as the OCaml lexer does; the lexer
# state resets at each file's first line.  An .ml line then has its
# type positions blanked too, and an .mli line is read only for its
# vals.  Of what is left, per file
# (extension dropped, so <m>.ml and <m>.mli are one module), the
# words, the qualified names `M.v`, the opened modules and the local
# module aliases are recorded, and every `val` of an .mli under lib/
# is an export.  At the end an export is used when another file names
# it through its module.
set -- $(find lib bin bench perf examples \( -name '*.ml' -o -name '*.mli' \) \
  -not -path '*/_build/*' | sort)
found=$(
  awk '
    # The line of an .ml with its type positions blanked: a `type` item
    # up to the next keyword that is not a type'"'"'s, a `sig ... end`, and
    # an annotation from its `:` or `:>` up to the `=`, `;`, closing
    # bracket or keyword that ends it.  The state carries over lines.
    # A type position it misses still counts as a caller, which can
    # hide a dead export, never invent one.
    function untyped(s,    r, i, j, n, c, t) {
      r = ""; n = length(s); i = 1
      while (i <= n) {
        c = substr(s, i, 1); j = i + 1
        if (c ~ /[A-Za-z_]/) {
          while (j <= n && substr(s, j, 1) ~ /[A-Za-z0-9_\047]/) j++
          t = substr(s, i, j - i)
          if (t ~ ends_type) tdef = ann = 0
          # not `(type a)`, `: type a.` or `module type`
          if (t == "type" && prev !~ /^(\(|:|module)$/) tdef = 1
          if (t ~ /^(sig|struct|object|begin)$/) insig += blk[++nb] = t == "sig"
          else if (t == "end" && nb > 0) insig -= blk[nb--]
          # the `:` right after a label `~l` or `?l` is not an annotation
          c = substr(s, i - 1, 1); label_end = c == "~" || c == "?" ? j : 0
          prev = t
        } else if (c == "\047" && substr(s, i + 2, 1) == "\047") {
          j = i + 3
        } else if (c == "\047" && substr(s, i + 1, 1) == "\\") {
          j = i + 3
          while (j <= n && substr(s, j, 1) != "\047") j++
          j++
        } else if (c == ":") {
          t = substr(s, j, 1)
          if (t == ":" || t == "=") j++
          else if (label_end != i) { ann = 1; ad = 0 }
          prev = c
        } else if (c != " ") {
          if (ann && c ~ /[([{]/) ad++
          else if (ann && c ~ /[)\]}]/) { if (ad) ad--; else ann = 0 }
          else if (ann && !ad && (c == "=" || c == ";")) ann = 0
          prev = c
        }
        t = substr(s, i, j - i)
        if (tdef || ann || insig) gsub(/./, " ", t)
        r = r t; i = j
      }
      return r
    }
    BEGIN {
      ends_type = "^(let|module|open|include|exception|external|class|val|" \
        "method|initializer|struct|sig|object|begin|end|in|match|fun|" \
        "function|if|then|else|try|while|for|do|with|when|assert|lazy|new)$"
    }
    FNR == 1 {
      depth = 0; str = 0; sp = 0; pend = ""; next_is = ""; cur = 0
      tdef = 0; nb = 0; insig = 0; ann = 0; ad = 0; prev = ""; label_end = 0
      f = FILENAME; sub(/\.mli?$/, "", f)
      fm = f; sub(/.*\//, "", fm); fm = toupper(substr(fm, 1, 1)) substr(fm, 2)
      mli = FILENAME ~ /^lib\/.*\.mli$/
      intf = FILENAME ~ /\.mli$/
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
      # what can call a value: an interface names only types, and an
      # implementation is read with its type positions blanked
      vals = intf ? "" : untyped(out)
      # opens: `open M`, `open! M`, `let open A.M in`, `include M`
      # (the path'"'"'s last module), and local opens `M.(`, `M.[`, `M.{`
      rest = vals
      while (match(rest, /(^|[^A-Za-z0-9_\047.])(open!?|include)[ \t]+[A-Z][A-Za-z0-9_\047.]*/)) {
        m = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        sub(/.*[ \t]/, "", m); sub(/.*\./, "", m)
        opened[f, m] = 1
      }
      rest = vals
      while (match(rest, /[A-Z][A-Za-z0-9_\047]*\.[([{]/)) {
        opened[f, substr(rest, RSTART, RLENGTH - 2)] = 1
        rest = substr(rest, RSTART + RLENGTH)
      }
      # aliases: `module X = A.M` makes `X.v` name `M.v`
      if (match(vals, /module[ \t]+[A-Z][A-Za-z0-9_\047]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_\047.]*/)) {
        m = substr(vals, RSTART, RLENGTH)
        x = m; sub(/^module[ \t]+/, "", x); sub(/[ \t]*=.*/, "", x)
        sub(/.*[ \t=]/, "", m); sub(/.*\./, "", m)
        if (x != m) alias[f] = alias[f] " " x "=" m
      }
      # qualified names, the module the one right before the value
      rest = vals; off = 0
      while (match(rest, /[A-Z][A-Za-z0-9_\047]*\.[a-z_][A-Za-z0-9_\047]*/)) {
        pre = off + RSTART > 1 ? substr(vals, off + RSTART - 1, 1) : ""
        if (pre !~ /[A-Za-z0-9_\047]/) qual[f, substr(rest, RSTART, RLENGTH)] = 1
        off += RSTART + RLENGTH - 1
        rest = substr(rest, RSTART + RLENGTH)
      }
      while (match(vals, /[A-Za-z_][A-Za-z0-9_\047]*/)) {
        word = substr(vals, RSTART, RLENGTH)
        pre = RSTART > 1 ? substr(vals, RSTART - 1, 1) : ""
        vals = substr(vals, RSTART + RLENGTH)
        # a label an .ml passes: `~l`, `~l:`, `?l`, `?l:`
        if ((pre == "~" || pre == "?") && !((f, word) in passed)) {
          passed[f, word] = 1; lfiles[word] = lfiles[word] "|" f
        }
        if (!((f, word) in has)) {
          has[f, word] = 1; files[word] = files[word] "|" f
        }
      }
      # an .mli'"'"'s vals, each under the innermost `module X : sig`
      # (the file'"'"'s module at top level), with the `?l` labels of
      # their types; vals of module types and class types are not
      # exports
      while (mli && match(out, /[A-Za-z_][A-Za-z0-9_\047]*/)) {
        word = substr(out, RSTART, RLENGTH)
        pre = RSTART > 1 ? substr(out, RSTART - 1, 1) : ""
        out = substr(out, RSTART + RLENGTH)
        if (next_is == "val") {
          named = fm; skip = 0; cur = 0
          for (j = 1; j <= sp; j++)
            if (stk[j] == "-") skip = 1; else named = stk[j]
          if (!skip) { nv++; vfile[nv] = f; vname[nv] = word; vmod[nv] = named; cur = nv }
        } else if (next_is == "module") pend = word == "type" ? "-" : word
        else if (cur && pre == "?") vlabels[cur] = vlabels[cur] " " word
        next_is = ""
        if (word == "val" || word == "module") next_is = word
        else if (word == "sig") { stk[++sp] = pend == "" ? "-" : pend; pend = "" }
        else if (word == "object") stk[++sp] = "-"
        else if (word == "end" && sp > 0) sp--
        # any other item ends the val'"'"'s type
        if (word ~ /^(type|module|end|exception|external|include|open|class)$/) cur = 0
      }
    }
    END {
      for (k = 1; k <= nv; k++) {
        own = vfile[k]; m = vmod[k]
        nf = split(files[vname[k]], fs, "|")
        used = 0
        for (i = 1; i <= nf && !used; i++) {
          g = fs[i]
          if (g == "" || g == own) continue
          if (((g, m "." vname[k]) in qual) || ((g, m) in opened)) used = 1
          na = split(alias[g], as, " ")
          for (j = 1; j <= na && !used; j++)
            if (as[j] ~ ("=" m "$")) {
              x = as[j]; sub(/=.*/, "", x)
              if ((g, x "." vname[k]) in qual) used = 1
            }
        }
        # a val of a nested module is named with its module
        fm = own; sub(/.*\//, "", fm); fm = toupper(substr(fm, 1, 1)) substr(fm, 2)
        entry = own ".mli:" (m == fm ? "" : m ".") vname[k]
        if (!used) print entry
        # a label is passed by some .ml outside the module
        nl = split(vlabels[k], ls, " ")
        for (j = 1; j <= nl; j++) {
          nf = split(lfiles[ls[j]], fs, "|")
          lused = 0
          for (i = 1; i <= nf && !lused; i++)
            if (fs[i] != "" && fs[i] != own) lused = 1
          if (!lused) print entry "?" ls[j]
        }
      }
    }' "$@" | sort -u
)

status=0
for entry in $found; do
  if ! grep -qxF "$entry" "$allow"; then
    case $entry in
      *\?*) printf 'lint-exports: %s: no program passes it outside its module\n' "$entry" ;;
      *) printf 'lint-exports: %s: no caller outside its module\n' "$entry" ;;
    esac
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

# Reasons: outside the `## Modelled interfaces` group, each line's
# name (`?label` for a label line) appears as a word, bare or at the
# end of a qualified name, in the `#` block directly above it (the
# block that ends at the line or at the lines sharing it).
unnamed=$(
  awk '
    function named(text, w,    i, off, b, a) {
      off = 0
      while ((i = index(substr(text, off + 1), w)) > 0) {
        i += off
        b = substr(text, i - 1, 1); a = substr(text, i + length(w), 1)
        if (b !~ /[A-Za-z0-9_\047]/ && a !~ /[A-Za-z0-9_\047]/) return 1
        off = i
      }
      return 0
    }
    /^##/ { exempt = $0 ~ /^## Modelled interfaces/; block = ""; after = 0; next }
    /^[[:space:]]*#/ { if (after) block = ""; block = block " " $0; after = 0; next }
    /^[[:space:]]*$/ { block = ""; after = 0; next }
    {
      after = 1
      w = $0; sub(/^[^:]*:/, "", w)
      if (index(w, "?")) w = substr(w, index(w, "?"))
      if (!exempt && !named(block, w)) print $0
    }' "$allow"
)
for entry in $unnamed; do
  printf 'lint-exports: allowlist line %s: not named in the comment block above it\n' "$entry"
  status=1
done

[ "$status" -eq 0 ] && echo "lint-exports: ok (every export in lib/ has a caller or a reason)"
exit "$status"
