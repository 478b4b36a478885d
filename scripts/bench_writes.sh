#!/bin/sh
# Write-path benchmarks -> BENCH_writes.json.
#
# Three series, each at a fixed statement or iteration count so ns/op is
# comparable across runs:
#
#  - "sustained-keyed": BenchmarkSustainedKeyedWrites (50000 statements by
#    default, override with BENCH_WRITES_N) — the overlay write path per
#    retention configuration.
#  - "huge-table": BenchmarkHugeTableSustainedWrites (20000 statements by
#    default, override with BENCH_HUGE_N) — the same stream over 100k and
#    1M base rows, the flat-cost evidence for the segmented base storage.
#    Set CODS_BENCH_HUGE=1 to add the 10M-row point (needs several GB of
#    RAM).
#  - "evolution": BenchmarkEvolutionDecompose (100 iterations by default,
#    override with BENCH_EVOLVE_N) — DECOMPOSE on a segmented table of
#    100k and 1M rows (99% merged base, 1% tail).
#
# Entries with "mode": "rebuild" are carried over from the previous file
# unchanged: they are the historical record of the monolithic flush and
# evolution baselines, which no longer exist to be rerun.
set -e
n=${BENCH_WRITES_N:-50000}
hn=${BENCH_HUGE_N:-20000}
en=${BENCH_EVOLVE_N:-100}
history=$(grep '"mode": "rebuild"' BENCH_writes.json 2>/dev/null | sed 's/,$//' || true)
out=$(go test -run=NONE -bench=SustainedKeyedWrites -benchtime="${n}x" cods)
echo "$out"
hout=$(go test -run=NONE -bench=HugeTableSustainedWrites -benchtime="${hn}x" cods)
echo "$hout"
eout=$(go test -run=NONE -bench=EvolutionDecompose -benchtime="${en}x" cods)
echo "$eout"
{
	echo "$out" | awk '
	  $1 ~ /^BenchmarkSustainedKeyedWrites\// {
	    split($1, parts, "/")
	    sub(/-[0-9]+$/, "", parts[2])
	    if (found++) printf ","
	    printf "\n  {\"bench\": \"sustained-keyed\", \"config\": \"%s\", \"statements\": %s, \"ns_per_op\": %s", parts[2], $2, $3
	    for (i = 5; i + 1 <= NF; i += 2) printf ", \"%s\": %s", $(i + 1), $i
	    printf "}"
	  }
	  BEGIN { printf "[" }
	'
	# Both series name their sub-benchmarks base<size>/<mode>.
	based='
	  function entry(bench, count) {
	    split($1, parts, "/")
	    sub(/-[0-9]+$/, "", parts[3])
	    rows = parts[2]
	    sub(/^base/, "", rows)
	    sub(/k$/, "000", rows)
	    sub(/M$/, "000000", rows)
	    printf ",\n  {\"bench\": \"%s\", \"base_rows\": %s, \"mode\": \"%s\", \"%s\": %s, \"ns_per_op\": %s", bench, rows, parts[3], count, $2, $3
	    for (i = 5; i + 1 <= NF; i += 2) printf ", \"%s\": %s", $(i + 1), $i
	    printf "}"
	  }'
	echo "$hout" | awk "$based"'
	  $1 ~ /^BenchmarkHugeTableSustainedWrites\// { entry("huge-table", "statements") }
	'
	echo "$eout" | awk "$based"'
	  $1 ~ /^BenchmarkEvolutionDecompose\// { entry("evolution", "iterations") }
	'
	if [ -n "$history" ]; then
		echo "$history" | awk '{ printf ",\n%s", $0 }'
	fi
	printf "\n]\n"
} > BENCH_writes.json
echo "wrote BENCH_writes.json"
