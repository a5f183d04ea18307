#!/usr/bin/env bash
# Runs every workload once per seed and appends the results to a file that
# -compare reads: the acceptance procedure of README.md, "Steadiness".
# A failing run is reported and the sweep goes on; the exit code is 1 if
# any run failed.
#
#   bash benchmark/sweep.sh out.jsonl [first-seed] [seeds] [seconds] [trace]
set -uo pipefail
out="$1"
first="${2:-1}"
seeds="${3:-10}"
seconds="${4:-12}"
trace="${5:-0}"
here="$(cd "$(dirname "$0")" && pwd)"
status=0
for workload in pcg_circuit_clean bicgstab_convdiff_clean pcg_circuit_faults serve_mixed router_tiny par_pcg_ranks; do
	for ((seed = first; seed < first + seeds; seed++)); do
		if ! bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" >"$out.last" 2>&1; then
			status=1
			echo "FAILED: $workload seed $seed"
			grep -E "FAILED|benchmark:" "$out.last"
		fi
		echo "$workload seed $seed: $(tail -n 1 "$out.last" | cut -c1-100)"
	done
done
rm -f "$out.last"
exit $status
