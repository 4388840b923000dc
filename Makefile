.PHONY: all build test check lint loc bench count-gate artifacts clean

all: build

build:
	dune build

test:
	dune runtest

# Raw metric-name literals bypass the Metric_names registry; the same
# rule is enforced (with statement-aware scanning) by the
# "metric-names" alcotest suite — this grep is the fast pre-commit cut.
lint:
	@bad=$$(grep -rn 'Metrics\.\(incr\|add\|record\|get\|observe\)[^;]*"' lib --include='*.ml' \
	  | grep -v 'metric_names\.ml' | grep -v 'Metric_names\.' | grep -v 'Names\.' || true); \
	if [ -n "$$bad" ]; then \
	  echo "raw metric-name literals (use Sbft_sim.Metric_names):"; echo "$$bad"; exit 1; \
	else echo "lint: metric names OK"; fi

check: build test lint

# Lines of OCaml in lib + bin (.ml + .mli): the size ROADMAP and CHANGES
# report.
loc:
	@find lib bin -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l

# The E12 micro-benchmarks.  The experiment tables are
# `sbftreg experiment ID|all`; the within-run ratio gate is `sbftreg
# bench`; wall-clock speed is bench/suite's, compared with bench/ab.
bench:
	dune exec bench/main.exe

# Exact per-op count gate: run each workload named in
# bench/count-gate.txt once through bench/suite at seed 24 (--seconds 0
# --scale 0.1 --trace 1) and check every `workload metric op value`
# line of that file against the printed metrics.  `=` compares the
# printed text, since two values one digit apart can parse to the same
# double; kv words per op and heap per key have `<=` ceilings.  A
# mismatch, a metric the suite did not print and a malformed line each
# fail, naming the line; a suite that fails its own checks fails the
# gate too.  The fuzz.scaling_2d floor needs two cores and is
# skipped on one.  Workloads run one at a time: a second suite process
# on the other core pulls fuzz.scaling_2d under its floor.
count-gate:
	@dune build bench/suite/suite.exe
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && failed= && \
	for w in $$(awk '!/^[ \t]*(#|$$)/ { print $$1 }' bench/count-gate.txt | sort -u); do \
	  ./_build/default/bench/suite/suite.exe --workload "$$w" --seed 24 --seconds 0 \
	    --scale 0.1 --trace 1 > "$$dir/$$w" || failed="$$failed $$w"; \
	done; \
	awk -v cores="$$(nproc)" -v gate=bench/count-gate.txt ' \
	  FILENAME != gate { \
	    w = FILENAME; sub(/.*\//, "", w); \
	    if (NF == 3) printed[w " " $$1] = $$2; \
	    next \
	  } \
	  /^[ \t]*(#|$$)/ { next } \
	  { \
	    at = gate ":" FNR ": "; key = $$1 " " $$2; \
	    if (NF != 4 || ($$3 != "=" && $$3 != "<=" && $$3 != ">=") \
	        || $$4 !~ /^-?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?$$/) { \
	      print at "malformed line (want: workload metric =|<=|>= value): " $$0; bad++; next \
	    } \
	    if (!(key in printed)) { print at key ": not printed by the suite"; bad++; next } \
	    if ($$2 == "fuzz.scaling_2d" && cores < 2) { \
	      print at key " >= " $$4 ": skipped on one core (read " printed[key] ")"; next \
	    } \
	    v = printed[key]; \
	    ok = ($$3 == "=") ? (v "") == ($$4 "") : ($$3 == "<=") ? v + 0 <= $$4 + 0 : v + 0 >= $$4 + 0; \
	    if (!ok) { print at key " read " printed[key] ", want " $$3 " " $$4; bad++ } \
	    else held++ \
	  } \
	  END { \
	    if (bad) { print "count-gate: " bad " line(s) failed"; exit 1 } \
	    print "count-gate: " held " lines hold" \
	  }' "$$dir"/* bench/count-gate.txt && \
	if [ -n "$$failed" ]; then echo "count-gate: the suite exited non-zero on$$failed"; exit 1; fi

# Sample run artifacts (committed reference inputs for sbftreg
# replay/analyze/diff/spans/trends; also a smoke test of the whole
# artifact loop: the fresh trace must replay with zero divergence,
# fully attribute every span, and show zero drift against itself).
# sample-kv-metrics.json is the trends baseline CI regenerates with
# identical flags (keep the two kv command lines in sync) — keep it free
# of wall-clock members (no --profile).  sample-metrics.json is the
# baseline CI's diff gate compares a fresh `run --seed 7 --ops 10` to.
artifacts: build
	dune exec bin/sbftreg.exe -- run --seed 7 --ops 10 \
	  --trace-out bench/sample-trace.jsonl --metrics-out bench/sample-metrics.json
	dune exec bin/sbftreg.exe -- replay bench/sample-trace.jsonl
	dune exec bin/sbftreg.exe -- diff bench/sample-metrics.json bench/sample-metrics.json
	dune exec bin/sbftreg.exe -- spans bench/sample-trace.jsonl --min-coverage 0.95 > /dev/null
	dune exec bin/sbftreg.exe -- kv --shards 8 --keys 32 --clients 6 --ops 2000 --seed 9 \
	  --trace-level off --window 50 --fault-at 400 --fault-shards 2 \
	  --metrics-out bench/sample-kv-metrics.json
	dune exec bin/sbftreg.exe -- trends bench/sample-kv-metrics.json bench/sample-kv-metrics.json

clean:
	dune clean
