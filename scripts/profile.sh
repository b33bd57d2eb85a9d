#!/usr/bin/env bash
# A flat CPU profile of one benchmark workload, for hosts without `perf`.
# scripts/sampler.c, preloaded into `paratreet-benchmark child`, samples
# the instruction pointer every 1 ms of the process's CPU time; here each
# sample is mapped to its binary through the run's /proc/self/maps and
# named by `llvm-symbolizer --inlining` twice: by its outermost frame
# (the function the code was compiled into) and by its innermost (the
# source function it came from, after inlining).
#
#   scripts/profile.sh WORKLOAD [SECONDS]   # seed 17, 5 s by default
#
# Exits non-zero when no sample was symbolized. The raw samples stay in
# target/profile/WORKLOAD.samples.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

workload=${1:?usage: scripts/profile.sh WORKLOAD [SECONDS]}
seconds=${2:-5}

# The two tools it needs besides cargo. Debian and Ubuntu put versioned
# LLVM tools under /usr/lib/llvm-N/bin, not always on PATH.
command -v cc > /dev/null || { echo "profile.sh: no C compiler (cc) on PATH" >&2; exit 1; }
symbolizer=$(command -v llvm-symbolizer || true)
if [ -z "$symbolizer" ]; then
    for candidate in /usr/lib/llvm-*/bin/llvm-symbolizer; do
        if [ -x "$candidate" ]; then symbolizer=$candidate; fi
    done
fi
[ -n "$symbolizer" ] ||
    { echo "profile.sh: no llvm-symbolizer on PATH or in /usr/lib/llvm-*/bin" >&2; exit 1; }

out=target/profile
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/sampler.c
scripts/build-benchmark.sh -q

samples="$out/$workload.samples"
SAMPLER_OUT="$samples" LD_PRELOAD="$PWD/$out/sampler.so" \
    benchmark/target/release/paratreet-benchmark child --workload "$workload" \
    --seed 17 --seconds "$seconds" --trace 0 > /dev/null

# Samples -> "count binary address" rows, the address relative to the
# binary's first mapping (its ELF address: the first segment loads at 0).
awk 'function hex(s,   v, i) {
         v = 0; s = tolower(s)
         for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
         return v
     }
     !body && /^samples / { body = 1; next }
     !body {
         split($1, r, "-")
         if ($6 != "" && hex($3) == 0 && !($6 in base)) base[$6] = hex(r[1])
         if ($2 ~ /x/) { n++; lo[n] = hex(r[1]); hi[n] = hex(r[2]); file[n] = $6 }
         next
     }
     {
         a = hex($1)
         for (i = 1; i <= n && !(a >= lo[i] && a < hi[i]); i++) {}
         if (i <= n && (file[i] in base)) hits[file[i] " " sprintf("0x%x", a - base[file[i]])]++
         else hits["[unmapped] 0x0"]++
     }
     END { for (k in hits) print hits[k], k }' "$samples" > "$out/$workload.hits"

# Each binary's addresses through the symbolizer: one block per address,
# frames innermost first, a function line then a location line each.
: > "$out/$workload.frames"
for binary in $(awk '{ print $2 }' "$out/$workload.hits" | sort -u); do
    awk -v b="$binary" '$2 == b { print $1 }' "$out/$workload.hits" > "$out/weights"
    if [ -f "$binary" ]; then
        awk -v b="$binary" '$2 == b { print $3 }' "$out/$workload.hits" |
            "$symbolizer" --obj="$binary" --inlining > "$out/symbols"
    else
        awk '{ print "??\n??:0:0\n" }' "$out/weights" > "$out/symbols"
    fi
    # Rust's legacy mangling escapes survive the symbolizer's demangler.
    sed -i -e 's/::h[0-9a-f]\{16\}//; s/ (\.llvm\.[0-9]*)//; s/\.\./::/g' \
        -e 's/\$LT\$/</g; s/\$GT\$/>/g; s/\$u20\$/ /g; s/\$C\$/,/g; s/\$RF\$/\&/g' \
        -e 's/\$u7b\$/{/g; s/\$u7d\$/}/g; s/\$BP\$/*/g; s/^_</</' "$out/symbols"
    awk -v unnamed="?? in ${binary##*/}" 'NR == FNR { weight[NR] = $1; next }
         $0 == "" { k++; print weight[k] "\t" inner "\t" outer; inner = ""; lines = 0; next }
         { lines++ }
         lines % 2 == 1 { if ($0 == "??") $0 = unnamed; if (inner == "") inner = $0; outer = $0 }' \
        "$out/weights" "$out/symbols" >> "$out/$workload.frames"
done
rm -f "$out/weights" "$out/symbols"

awk -F '\t' -v top=25 -v w="$workload" '
     { total += $1; if ($3 !~ /^\?\? in /) named += $1; outer[$3] += $1; inner[$2] += $1 }
     function table(title, by,   k, row, i) {
         print "-- by " title " frame --"
         i = 0
         for (k in by) row[++i] = sprintf("%6.1f%% %7d  %s", 100 * by[k] / total, by[k], substr(k, 1, 110))
         print_sorted(row, i)
     }
     function print_sorted(row, n,   i, j, t) {
         for (i = 2; i <= n; i++) for (j = i; j > 1 && row[j] + 0 > row[j - 1] + 0; j--) {
             t = row[j]; row[j] = row[j - 1]; row[j - 1] = t
         }
         for (i = 1; i <= n && i <= top; i++) print row[i]
     }
     END {
         printf "== %s: %d samples of 1 ms CPU, %d symbolized ==\n", w, total, named
         table("outermost", outer)
         table("innermost", inner)
         exit named == 0
     }' "$out/$workload.frames"
