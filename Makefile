.PHONY: all build test check lint bench bench-json artifacts clean

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

bench:
	dune exec bench/main.exe

# Regenerate the committed perf baseline (engine events/sec, fuzz
# schedules/sec, checker µs per 10k-op history, tracing-overhead rows,
# series and open-loop-generator overhead rows, E12 micro table); CI
# gates `sbftreg bench --baseline BENCH_PR10.json` against it.
bench-json:
	dune exec bench/main.exe -- --json BENCH_PR10.json

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
