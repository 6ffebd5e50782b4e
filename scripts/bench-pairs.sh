#!/usr/bin/env bash
# Paired parent/change runs of one benchmark workload — the rule of the
# choosing-metrics guide, section 8, which a claimed gain has to pass:
#
#   scripts/bench-pairs.sh <parent-rev> <workload> [seed=1] [pairs=10]
#   make bench-pairs PARENT=<rev> WORKLOAD=<name> [SEED=1] [N=10]
#
# The parent revision is exported (git archive: a plain tree, nothing to
# prune afterwards) under .bench_build/pairs/, the change is the working
# tree as it stands. Both benchmark binaries are built once, with the
# environment bench/run.sh builds with, and then run alternately — the
# parent first in even pairs, the change first in odd ones — at the run
# length BENCHMARK.json fixes. For each end-to-end metric it prints both
# sides' median and quartiles, how many pairs the change won (ties count
# for neither side) and the parent's inter-quartile spread. "gain" needs
# the change ahead in at least nine tenths of the pairs and the medians
# further apart than that spread; "REGRESSION" is a median worse than the
# parent's by more than the bound BENCHMARK.json fixes for the metric.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,7p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
rev="$1" workload="$2" seed="${3:-1}" pairs="${4:-10}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
work="$build/pairs"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
parent="$work/parent-${sha:0:12}"
rm -rf "$work"
mkdir -p "$parent"
git -C "$root" archive "$sha" | tar -x -C "$parent"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$parent/bench" -o "$work/parent.bin" .
go build -C "$root/bench" -o "$work/change.bin" .

# run <side> <pair>: one run; appends "<pair> <the run's result line>".
run() {
	local line
	line="$("$work/$1.bin" --workload "$workload" --seed "$seed" | tail -n 1)"
	case "$line" in
	*'"correct":true'*'"failed":0,'*) ;;
	*) echo "bench-pairs: $1 run of pair $2 failed its checks: $line" >&2; exit 1 ;;
	esac
	echo "$2 $line" >>"$work/$1.txt"
	echo "  pair $2 $1: pkts_per_s $(sed -n 's/.*"pkts_per_s":{"value":\([^,}]*\).*/\1/p' <<<"$line")" >&2
}

echo "bench-pairs: $workload, seed $seed, $pairs pairs, parent ${sha:0:12} vs working tree" >&2
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run parent "$i"; run change "$i"
	else
		run change "$i"; run parent "$i"
	fi
done

# The metrics, which way is better and the regression bound all come from
# BENCHMARK.json's end-to-end entries (the ones that carry a bound).
# Quartiles by linear interpolation between order statistics.
awk -v pairs="$pairs" -v workload="$workload" -v seed="$seed" '
function quantile(a, n, p,    h, lo, hi) {
	h = (n - 1) * p; lo = int(h); hi = lo + 1 < n ? lo + 1 : lo
	return a[lo + 1] + (h - lo) * (a[hi + 1] - a[lo + 1])
}
function sorted(side, m, out,    i, j, t, n) {
	n = 0
	for (i = 0; i < pairs; i++) out[++n] = val[side, m, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j] < out[j - 1]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
	return n
}
FNR == 1 { side = (FILENAME ~ /parent\.txt$/) ? "parent" : (FILENAME ~ /change\.txt$/) ? "change" : "" }
side == "" {
	gsub(/[",]/, "", $2)
	if ($1 == "\"name\":") name = $2
	if ($1 == "\"better\":") better = $2
	if ($1 == "\"bound\":") { order[++nm] = name; bound[name] = $2 + 0; sign[name] = (better == "higher") ? 1 : -1 }
	next
}
{
	for (k = 1; k <= nm; k++)
		if (match($0, "\"" order[k] "\":\\{\"value\":[^,}]*"))
			val[side, order[k], $1] = substr($0, RSTART + length(order[k]) + 12, RLENGTH - length(order[k]) - 12) + 0
}
END {
	printf "%s  seed %s  %d pairs\n", workload, seed, pairs
	printf "%-13s %-38s %-38s %8s %6s %12s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "parent IQR", "verdict"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		n = sorted("parent", m, P); sorted("change", m, C)
		pm = quantile(P, n, .5); cm = quantile(C, n, .5); iqr = quantile(P, n, .75) - quantile(P, n, .25)
		wins = 0
		for (i = 0; i < pairs; i++)
			if (sign[m] * (val["change", m, i] - val["parent", m, i]) > 0) wins++
		verdict = "-"
		if (sign[m] * (cm - pm) > iqr && wins * 10 >= pairs * 9) verdict = "gain"
		if (sign[m] * (pm - cm) > bound[m] * pm) verdict = "REGRESSION"
		printf "%-13s %-38s %-38s %+7.2f%% %3d/%-2d %12.6g  %s\n", m,
			sprintf("%.6g [%.6g, %.6g]", pm, quantile(P, n, .25), quantile(P, n, .75)),
			sprintf("%.6g [%.6g, %.6g]", cm, quantile(C, n, .25), quantile(C, n, .75)),
			100 * (cm - pm) / pm, wins, pairs, iqr, verdict
	}
}' "$root/BENCHMARK.json" "$work/parent.txt" "$work/change.txt"
