BENCH = $(CURDIR)/_build/default/bench/main.exe

.PHONY: all check test lint-globals lint-exports bench-gates bench-golden perf-pairs clean FORCE

all:
	dune build @all

test:
	dune runtest

# Tier-1 verification, the two lints, and every bench gate with its
# documents diffed against the committed goldens (DESIGN.md 3.8,
# "The gates").
check: all test lint-globals lint-exports bench-gates

# No new module-level mutable state in lib/ outside the shard handle:
# everything a kernel owns lives in the Kstate record, and the only
# allowed globals are the allowlisted installed-instance cells
# (tools/globals_allowlist.txt).
lint-globals:
	tools/lint_globals.sh

# Every `val` in lib/**/*.mli has a caller outside its own module in
# lib/, bin/, bench/, perf/ or examples/, and every optional parameter
# of one is passed by such a caller (a knob no program sets is dead),
# or the export or `val?label` has a line in tools/exports_allowlist.txt.
# Lines outside the modelled-interface group (the ABI's constants and
# the libc wrappers) must be named in the comment block above them,
# which says what production behaviour a test observes through the
# hook; stale allowlist lines fail too.
lint-exports:
	tools/lint_exports.sh

# Every gate section, run in a scratch directory; any drifted, missing
# or extra BENCH_*.json fails the diff.  After an intended change,
# refresh the goldens with `make bench-golden` and commit the diff.
bench-gates:
	dune build ./bench/main.exe
	out=$$(mktemp -d) && \
	  (cd $$out && $(BENCH) gates) && \
	  diff -r $$out bench/golden; \
	  status=$$?; rm -rf $$out; exit $$status

bench-golden:
	dune build ./bench/main.exe
	rm -f bench/golden/BENCH_*.json
	cd bench/golden && $(BENCH) gates

# One bench section alone, named as `bench/main.exe --list` prints
# them: `make bench-netbench` writes BENCH_net.json, `make bench-causal`
# BENCH_causal.json, `make bench-table3.2` prints Table 3-2.  An
# unknown name prints the list and fails.
bench-%: FORCE
	@dune build ./bench/main.exe
	@if $(BENCH) --list | cut -f1 | grep -qxF '$*'; then $(BENCH) '$*'; \
	else echo "no bench section '$*'; the sections:" >&2; \
	  $(BENCH) --list >&2; exit 2; fi

FORCE:

# Host time of the working tree against commit REV, in alternating
# pairs under perf's compare rule (tools/perf_pairs.sh, which holds the
# defaults).  WORKLOADS needs PAIRS and SECS, as the script's
# positional arguments do; ARGS go to both sides' `perf.exe run`:
#   make perf-pairs REV=HEAD [PAIRS=n [SECS=s [WORKLOADS="w..."]]] [ARGS="--seed 5"]
perf-pairs:
	@test -n "$(REV)" || { echo "usage: make perf-pairs REV=<commit> [PAIRS=n [SECS=s [WORKLOADS=...]]] [ARGS=...]"; exit 2; }
	tools/perf_pairs.sh $(REV) $(PAIRS) $(SECS) $(WORKLOADS) $(if $(ARGS),-- $(ARGS))

clean:
	dune clean
