#!/usr/bin/env bash
# Alternated parent/change pairs of one benchmark workload — the measuring
# rule of docs/experimentation.md ("Statistical hygiene"), mechanised.
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs]
#
# Checks <parent-ref> out into a throwaway directory (git archive: nothing is
# written under .git, and the change side is this working tree as it stands,
# committed or not), then runs, for seed i = 1..pairs (default 10),
#
#   benchmark/run.sh --workload <workload> --seed i --seconds 18 --trace 0
#
# on both sides, the parent first on odd i and the change first on even i, and
# prints per end-to-end metric each side's median and quartiles, the ratio of
# the medians, how many pairs the change won, and whether that meets the claim
# rule: at least nine tenths of the pairs won and medians further apart than
# the parent's own quartile spread. It gates nothing; a run whose output
# checks fail stops the script with the benchmark's own exit status.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
parent=$1 workload=$2 pairs=${3:-10}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$parent^{commit}" >/dev/null ||
	{ echo "bench-pairs: $parent is not a commit" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"

# run <side> <checkout> <seed>: one benchmark run; its "e2e" lines become
# "<side> <seed> <metric> <value>" rows of $work/samples.
run() {
	echo "== pair $3: $1" >&2
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds 18 --trace 0 |
		awk -v side="$1" -v seed="$3" '$1 == "e2e" {
			for (f = 3; f <= NF; f++) if ($f ~ /^value=/) { sub(/^value=/, "", $f); print side, seed, $2, $f }
		}' >>"$work/samples"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$work/parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$work/parent" "$i"
	fi
done

echo
echo "workload $workload, $pairs alternated pairs, parent $(git -C "$root" rev-parse --short "$parent"), 18 s a run"
# The direction of every end-to-end metric comes from BENCHMARK.json.
awk -v pairs="$pairs" '
	FNR == NR {
		if ($0 ~ /"end_to_end"/) e2e = 1
		if ($0 ~ /"per_layer"/) e2e = 0
		if (e2e && $1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2; order[++metrics] = name }
		if (e2e && $1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
		next
	}
	{ v[$1, $3, $2] = $4 }
	# quantile q of side s, metric m over the seeds (linear interpolation).
	function quantile(s, m, q,    n, i, j, t, a, pos, lo) {
		n = 0
		for (i = 1; i <= pairs; i++) a[++n] = v[s, m, i] + 0
		for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
		pos = 1 + q * (n - 1); lo = int(pos)
		return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
	}
	END {
		printf "%-16s %-7s %36s %36s %7s %6s  %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won", "claim rule"
		for (k = 1; k <= metrics; k++) {
			m = order[k]; sign = better[m] == "higher" ? 1 : -1
			won = 0
			for (i = 1; i <= pairs; i++) if (sign * (v["change", m, i] - v["parent", m, i]) > 0) won++
			pm = quantile("parent", m, 0.5); p1 = quantile("parent", m, 0.25); p3 = quantile("parent", m, 0.75)
			cm = quantile("change", m, 0.5); c1 = quantile("change", m, 0.25); c3 = quantile("change", m, 0.75)
			met = (won >= 0.9 * pairs && sign * (cm - pm) > p3 - p1) ? "met" : "-"
			printf "%-16s %-7s %36s %36s %7s %3d/%-2d  %s\n", m, better[m],
				sprintf("%.6g [%.6g, %.6g]", pm, p1, p3), sprintf("%.6g [%.6g, %.6g]", cm, c1, c3),
				pm != 0 ? sprintf("%.3f", cm / pm) : "-", won, pairs, met
		}
	}
' "$root/BENCHMARK.json" "$work/samples"
