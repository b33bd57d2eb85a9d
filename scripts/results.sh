#!/usr/bin/env bash
# Regenerates results/*.txt: one paratreet-bench harness run per file,
# at the flags in the table below. Each file is the command on its first
# line, then what the harness printed. Every harness reports virtual
# time and counts only, so its file moves only when the model or the
# walk does, except `ablate_bucket`'s `traverse` column: wall clock.
#
#   scripts/results.sh              # all thirteen files
#   scripts/results.sh fig9 table2  # just these
#
# A full run takes a few minutes on two cores (table2 ≈ 77 s, fig3
# ≈ 55 s, fig10 ≈ 46 s).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# file           harness and flags
RESULTS=(
    "ablate_bucket ablate_bucket_size --particles 10000"
    "ablate_fetch  ablate_fetch_depth --particles 30000 --procs 16"
    "ablate_lb     ablate_load_balance --particles 40000 --procs 8 --workers 8"
    "ablate_ps     ablate_partitions_subtrees --particles 50000"
    "ablate_sfc    ablate_sfc_curve --particles 30000 --procs 13"
    "fig3          fig3_cache_models --particles 100000 --max-procs 64"
    "fig9          fig9_time_profile --particles 60000 --procs 16 --bins 16"
    "fig10         fig10_gravity_scaling --particles 200000 --max-nodes 8"
    "fig11         fig11_sph_scaling --particles 15000 --max-nodes 16"
    "fig12         fig12_collision_profile --particles 3000 --steps 200"
    "fig13         fig13_disk_tree_types --particles 20000 --max-nodes 16"
    "table1        table1_machines"
    "table2        table2_cache_stats --particles 100000"
)

cargo build --release -q -p paratreet-bench --bins
for row in "${RESULTS[@]}"; do
    read -r name command <<< "$row"
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qx "$name"; then
        continue
    fi
    echo "results/$name.txt: $command" >&2
    # shellcheck disable=SC2086 # the flags split on purpose
    { echo "\$ $command"; ./target/release/$command 2>&1; } > "results/$name.txt"
done
