#!/usr/bin/env bash
# Network-free CI gate: the workspace vendors all dependencies as local
# shims (see shims/), so every step below runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test --workspace -q =="
cargo test --workspace -q

echo "== lane widths this host runs (the identity test calls each one by name) =="
cpu_flags=" $(grep -m 1 '^flags' /proc/cpuinfo 2>/dev/null | cut -d: -f2) "
widths="X1"
case "$cpu_flags" in *" avx2 "*)
    widths="$widths X4"
    case "$cpu_flags" in *" avx512f "*) widths="$widths X8" ;; esac ;;
esac
echo "lane widths: $widths"
case "$widths" in *X8*) ;; *)
    echo "WARNING: no avx2+avx512f on this host: the X8 span kernels were NOT exercised" ;;
esac

echo "== the CPU is asked in one place: is_x86_feature_detected! only in apps::lanes::width =="
# Prints file:function for every call; exactly one pair may appear.
feature_sites=$(awk 'FNR == 1 { fn = "" }
     /^[[:space:]]*\/\// { next }
     match($0, /fn [A-Za-z0-9_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
     /is_x86_feature_detected!/ { print FILENAME ":" fn }' \
    $(find crates -name '*.rs') | sort -u)
[ "$feature_sites" = "crates/apps/src/lanes.rs:width" ] ||
    { echo "is_x86_feature_detected! outside lanes::width: $feature_sites"; exit 1; }

echo "== kernel identity + allocation tests, optimised (the build the benchmark runs) =="
# Span kernels == per-bucket kernels == per-pair loops, and coalescing
# changes no bucket's call sequence, beside the whole-step identity;
# sibling-group seeds hand every bucket what per-bucket seeds did, and
# the branch-free box predicates keep every bit of the branchy ones.
cargo test --release -q -p paratreet-apps --lib lane_kernels
cargo test --release -q -p paratreet-core --lib -- \
    runs_change_no_buckets_call_sequence sibling_groups_
cargo test --release -q -p paratreet-geometry --test prop_geometry branch_free_predicates
cargo test --release -q --test gravity_accuracy bucket_kernels
cargo test --release -q --test traversal_scratch
# kNN/SPH data path: key heap == record-heap model, SPH step == the
# record-list reference bit for bit, query payloads read through handles.
cargo test --release -q -p paratreet-tree --lib key_heap_matches_record_heap_model
cargo test --release -q -p paratreet-apps --lib -- \
    step_matches_the_record_list_reference query_neighbors_carry_their_particles_payload
# The CLI rejects what it does not read — per app and engine — and runs
# `--iterations N` as N iterations on every engine, on the binary users run.
cargo test --release -q --test cli
# The DES engine's whole output, scenario by scenario, against the hashes
# recorded before it was split into modules (and the crash-anywhere sweep).
cargo test --release -q -p paratreet-core --test des_pinned
# The software cache's parallel readers and writers, and its fill
# pipeline, on the handle store the optimised build reads wait-free.
cargo test --release -q -p paratreet-cache --test concurrent --test fill_pipeline

echo "== fork-join executor + thread-count identity, optimised (the build the benchmark runs) =="
cargo test --release -q -p rayon
cargo test --release -q --test thread_count_identity
cargo test --release -q -p paratreet-tree --lib parallel_and_sequential_builds_agree
cargo test --release -q -p paratreet-core --lib -- \
    build_pieces_ignores_parallel_and_thread_count thread_count_does_not_change_output
cargo test --release -q -p paratreet-core --test incremental thread_sweep_is_bit_identical

echo "== front-end reference equivalences, optimised: ranges == split_off, pruned == full scan, dense == id-keyed, counting sort == sort =="
cargo test --release -q -p paratreet-particles --lib sfc_sort_matches_the_stable_record_sort
cargo test --release -q -p paratreet-core --lib -- \
    range_pieces_match_the_split_off_reference pruned_walks_match_the_full_leaf_scans \
    exchange_work_follows_the_seam_not_the_forest
# FoF prunes on tight boxes (equal to the boxes around each node's
# particles, and linking a pair exactly one linking length apart) and
# assembles its catalog with a counting sort (equal to the sorted one).
cargo test --release -q -p paratreet-apps --lib -- \
    dense_linking_matches_the_id_keyed_and_brute_force_finders \
    tight_boxes_are_the_boxes_around_each_nodes_particles \
    particles_exactly_one_linking_length_apart_link \
    counting_sort_catalog_matches_the_sorted_reference \
    catalogs_agree_across_tree_types_and_with_brute_force
# FoF and pair counting are rule sets of one dual-tree walk: the walk
# meets every pair once on every tree type, and pair counts equal the
# brute force's, pairs exactly at the bin edges included.
cargo test --release -q -p paratreet-tree --lib dual::
cargo test --release -q -p paratreet-apps --lib correlation::
# Collision prunes body by body inside a leaf pair: each bucket's events
# equal the unpruned leaf's, in order, and the brute-force pairs on three
# tree types and a maintained tree; a body box sharing a face with the
# other side's box and a pair exactly `rsum` apart are still tested; the
# linear merger resolution equals the quadratic one.
cargo test --release -q -p paratreet-apps --lib -- \
    pruned_leaf_matches_brute_force_on_every_tree pruned_leaf_keeps_each_buckets_event_order \
    bodies_touching_at_a_face_are_pair_tested linear_merge_matches_the_quadratic_reference

echo "== forest identity x20 (a catalog or ghost layer that depends on the schedule shows as a flake) =="
identity_bin=$(cargo test --release --test thread_count_identity --no-run --message-format=json 2>/dev/null |
    sed -n 's/.*"executable":"\([^"]*thread_count_identity-[^"]*\)".*/\1/p' | tail -n 1)
[ -x "$identity_bin" ] || { echo "forest identity loop: test binary not found"; exit 1; }
for i in $(seq 1 20); do
    timeout 300 "$identity_bin" -q forest_catalog > /dev/null 2>&1 ||
        { echo "forest identity loop: run $i failed or hung (exit $?)"; exit 1; }
done

echo "== executor panic + nesting tests x50 (a helper left behind shows as a hang or a failure) =="
rayon_bin=$(cargo test -p rayon --lib --no-run --message-format=json 2>/dev/null |
    sed -n 's/.*"executable":"\([^"]*rayon-[^"]*\)".*/\1/p' | tail -n 1)
[ -x "$rayon_bin" ] || { echo "executor loop: test binary not found"; exit 1; }
for i in $(seq 1 50); do
    timeout 60 "$rayon_bin" -q panicking nested > /dev/null 2>&1 ||
        { echo "executor loop: run $i failed or hung (exit $?)"; exit 1; }
done

echo "== the executor is safe Rust: no 'unsafe' anywhere under shims/rayon =="
if grep -rn "unsafe" shims/rayon; then
    echo "shims/rayon must stay free of unsafe (ROADMAP aim 3)"; exit 1
fi

echo "== the recorder and the snapshot ring use std locks: no 'unsafe' under telemetry or serve =="
if grep -rn "unsafe" crates/telemetry/src crates/serve/src; then
    echo "the recorder and the snapshot ring must stay std locks (DESIGN §5d)"; exit 1
fi

echo "== every unsafe under crates/{apps,core}/src sits under a // SAFETY: comment =="
# The comment block directly above the line must contain "// SAFETY:".
awk 'FNR == 1 { safe = 0 }
     /^[[:space:]]*\/\// { if ($0 ~ /\/\/ SAFETY:/) safe = 1; next }
     /unsafe/ && !safe { print FILENAME ":" FNR ": " $0; bad = 1 }
     { safe = 0 }
     END { exit bad }' \
    $(find crates/apps/src crates/core/src -name '*.rs') ||
    { echo "unsafe without a // SAFETY: comment directly above"; exit 1; }

echo "== one SIMD file: no 'unsafe' under crates/apps/src outside lanes.rs =="
# Kernels reach their X4/X8 instantiations through lanes::at_width!, whose
# one SAFETY argument covers every width dispatch.
if grep -rn "unsafe" crates/apps/src --exclude=lanes.rs; then
    echo "unsafe outside apps::lanes: dispatch through lanes::at_width! (DESIGN §5d)"; exit 1
fi

echo "== spans are slices and ranges: no 'unsafe' in core's visitor, traversal or pipeline =="
if grep -n "unsafe" crates/core/src/visitor.rs crates/core/src/traversal.rs crates/core/src/pipeline.rs; then
    echo "the target types and the walk must stay safe Rust (DESIGN §5d)"; exit 1
fi

echo "== the box predicates are plain scalar Rust: no 'unsafe' under crates/geometry/src =="
if grep -rn "unsafe" crates/geometry/src; then
    echo "geometry must stay free of unsafe and intrinsics (DESIGN §5d)"; exit 1
fi

echo "== the software cache is an arena of handles: no 'unsafe' under crates/cache/src =="
if grep -rn "unsafe" crates/cache/src; then
    echo "the cache must stay safe Rust: set-once slots and u32 handles (DESIGN §5d)"; exit 1
fi

echo "== cache concurrent x50, every other run on one core (wait-free reads under inserts, 60 s cap per run) =="
# A reader that sees a handle before the node it names, or a waiter lost
# between request and fill, shows as a panic, an audit failure or a hang.
concurrent_bin=$(cargo test -p paratreet-cache --test concurrent --no-run --message-format=json 2>/dev/null |
    sed -n 's/.*"executable":"\([^"]*concurrent-[^"]*\)".*/\1/p' | tail -n 1)
[ -x "$concurrent_bin" ] || { echo "cache concurrent loop: test binary not found"; exit 1; }
for i in $(seq 1 50); do
    pin=""
    [ $((i % 2)) -eq 0 ] && pin="taskset -c 0"
    timeout 60 $pin "$concurrent_bin" -q > /dev/null 2>&1 ||
        { echo "cache concurrent loop: run $i${pin:+ ($pin)} failed or hung (exit $?)"; exit 1; }
done

echo "== threaded_engine x200, every other run on one core (bounded schedule fuzz, 60 s cap per run) =="
# The OS picks a different interleaving every run; a lost or doubled
# release of a parked partition shows as a hang, a panic or a force
# that is not bit-identical here. One core forces interleavings the OS
# rarely picks on two.
threaded_bin=$(cargo test --test threaded_engine --no-run --message-format=json 2>/dev/null |
    sed -n 's/.*"executable":"\([^"]*threaded_engine-[^"]*\)".*/\1/p' | tail -n 1)
[ -x "$threaded_bin" ] || { echo "threaded loop: test binary not found"; exit 1; }
for i in $(seq 1 200); do
    pin=""
    [ $((i % 2)) -eq 0 ] && pin="taskset -c 0"
    timeout 60 $pin "$threaded_bin" -q > /dev/null 2>&1 ||
        { echo "threaded loop: run $i${pin:+ ($pin)} failed or hung (exit $?)"; exit 1; }
done

echo "== one configuration: no cargo feature, no cfg(feature) twin, no serde/bytes stand-in =="
# (`! grep` would not stop a `set -e` script; these do.)
if grep -rn 'cfg(feature' crates src shims; then echo "a compile-time twin is back"; exit 1; fi
if grep -nE '^\[features\]|^(serde|bytes)\b' Cargo.toml crates/*/Cargo.toml; then
    echo "a feature table or a retired stand-in is back"; exit 1
fi

echo "== maintenance runs on the shared engine only: no second path in the message engines or the forest =="
if grep -rnE 'run_maintained|ForestMaintainer|per_subtree_work' crates src; then
    echo "maintained mode is back in a message engine or the forest (DESIGN §10)"; exit 1
fi

echo "== one dual-tree walk (tree::dual): no bucket-target dual traversal or cell() hook in the framework =="
if grep -rnE 'traverse_dual|TraversalKind::DualTree|fn cell\(' crates src tests; then
    echo "the framework's dual-tree path is back (DESIGN §5b)"; exit 1
fi

echo "== one cut rule (tree::cut): no octant, split axis or median chosen outside it and TreeType =="
# The builder, decomposition, maintenance, seam balance and FoF's ghost
# trees divide a node through tree::cut; test modules (after #[cfg(test)])
# keep their own reference copies on purpose.
awk 'FNR == 1 { live = 1 }
     /^#\[cfg\(test\)\]/ { live = 0 }
     live && /octant_of\(|cycling_axis\(|longest_axis\(|select_nth_unstable/ {
         print FILENAME ":" FNR ": " $0; bad = 1 }
     END { exit bad }' \
    $(find crates/core/src crates/tree/src crates/apps/src -name '*.rs' \
        ! -path crates/tree/src/cut.rs ! -path crates/tree/src/types.rs) ||
    { echo "a tree type's cut is written outside tree::cut (DESIGN §5e)"; exit 1; }

echo "== serve keeps what a workload runs: no cost admission, degradation ladder or supervisor =="
if grep -rnE 'CostAware|DegradeConfig|PressureTracker|FailPoints|respawn|stale_serving' crates/serve/src src; then
    echo "removed serve overload machinery is back (DESIGN §11)"; exit 1
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
# clippy.toml caps a function at 150 lines where a file opts in with
# `#![warn(clippy::too_many_lines)]`: the DES modules and the CLI.
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark package builds against the pinned public surface =="
# benchmark/ is a package of its own; a changed signature it relies on
# must fail here, not in the benchmark run.
# The script puts its pinned Cargo.lock back after the build.
scripts/build-benchmark.sh

echo "== results/*.txt are harness output only: no cargo Compiling/Finished/Running line =="
if grep -nE '^ *(Compiling|Finished|Running) ' results/*.txt; then
    echo "a results file carries cargo's build lines: regenerate it with scripts/results.sh"; exit 1
fi

echo "== collision lanes, optimised: the lane pair test == the per-pair loop at every width this host runs =="
# Every event bit and each bucket's order, at widths 1/4/8 up to the
# CPU's, dispatched and bucket by bucket; a width past the CPU's panics.
cargo test --release -q -p paratreet-apps --lib -- \
    lane_pair_test_keeps_every_bit_of_the_per_pair_loop a_sweep_wider_than_the_cpu_is_refused \
    merging_two_massless_bodies_keeps_the_run_finite

echo "== results/fig12.txt regenerates byte-identical (collision counts only, about 1 s) =="
scripts/results.sh fig12
git diff --exit-code results/fig12.txt ||
    { echo "results/fig12.txt moved: the collision walk found other events"; exit 1; }

echo "== seven more results/ files regenerate byte-identical (counts and virtual time only, about 10 s) =="
# Between them they run every tree type, every decomposition type and both
# curves: a cut that moves a piece, a node or a plane moves one of them.
scripts/results.sh fig9 fig13 ablate_fetch ablate_lb ablate_ps ablate_sfc table1
git diff --exit-code results/ ||
    { echo "results/ moved: a decomposition, a tree or the machine model changed"; exit 1; }

echo "== sampling profiler smoke (1 s of disk_maintained; fails when no sample is symbolized) =="
# Needs a C compiler and llvm-symbolizer; profile.sh names whichever is missing.
scripts/profile.sh disk_maintained 1

echo "== fig9 smoke (--json) =="
cargo run --release -q -p paratreet-bench --bin fig9_time_profile -- \
    --particles 2000 --procs 2 --bins 8 --json true > /dev/null

# Everything the smokes below write lands in one directory.
smoke_dir=$(mktemp -d /tmp/paratreet-ci-XXXXXX)
trap 'rm -rf "$smoke_dir"' EXIT

echo "== one answer from three engines: gravity CSVs cmp-equal on every engine, for every traversal kind =="
# 16 Subtrees and 64 Partitions sit above every engine's
# over-decomposition floor at 2 ranks, so the three engines decompose
# alike; from there a placeholder fetched and resumed must change no bit.
for traversal in top-down basic-dfs up-and-down; do
    for engine in shared "threaded --ranks 2" "machine --ranks 2"; do
        # shellcheck disable=SC2086 # the engine's flags split on purpose
        cargo run --release -q --bin paratreet -- gravity --particles 3000 --dist clustered \
            --subtrees 16 --partitions 64 --traversal "$traversal" --engine $engine \
            --csv "$smoke_dir/$traversal-${engine%% *}.csv" > /dev/null
    done
    for engine in threaded machine; do
        cmp "$smoke_dir/$traversal-shared.csv" "$smoke_dir/$traversal-$engine.csv" ||
            { echo "one-answer smoke: $traversal on $engine differs from shared"; exit 1; }
    done
done

echo "== chaos smoke (rank crash mid-traversal recovers) =="
chaos_metrics="$smoke_dir/chaos.json"
cargo run --release -q --bin paratreet -- gravity --particles 3000 --engine machine --ranks 4 \
    --crash-rank 1 --crash-phase traversal --crash-restart true \
    --metrics-out "$chaos_metrics" > /dev/null
grep -q '"recovery.count":1' "$chaos_metrics" ||
    { echo "chaos smoke: no recovery recorded in $chaos_metrics"; exit 1; }
grep -q '"fault.crash.count":1' "$chaos_metrics" ||
    { echo "chaos smoke: crash not counted in $chaos_metrics"; exit 1; }
grep -q '"recovery.restored_bytes":[1-9]' "$chaos_metrics" ||
    { echo "chaos smoke: checkpoint restore read zero bytes"; exit 1; }

echo "== incremental smoke (multi-iteration maintained tree) =="
inc_metrics="$smoke_dir/inc.json"
cargo run --release -q --bin paratreet -- gravity --particles 3000 --engine shared \
    --iterations 3 --incremental true \
    --metrics-out "$inc_metrics" > /dev/null
grep -q '"tree.update.steps":[1-9]' "$inc_metrics" ||
    { echo "incremental smoke: no maintained steps in $inc_metrics"; exit 1; }
grep -q '"tree.update.patched":[1-9]' "$inc_metrics" ||
    { echo "incremental smoke: no buckets patched in $inc_metrics"; exit 1; }
grep -q '"tree.update.moved":[1-9]' "$inc_metrics" ||
    { echo "incremental smoke: drift moved no particles in $inc_metrics"; exit 1; }

echo "== incremental disk smoke (batched escapees, no drift rebuilds) =="
disk_metrics="$smoke_dir/disk.json"
cargo run --release -q --bin paratreet -- gravity --particles 3000 --engine shared \
    --iterations 4 --incremental true --dist disk \
    --metrics-out "$disk_metrics" > /dev/null
grep -q '"tree.update.batches":[1-9]' "$disk_metrics" ||
    { echo "disk smoke: no grouped insert batches applied in $disk_metrics"; exit 1; }
# The disk-churn regression: orbital shear once forced dozens of drift
# rebuilds per run. Batched sieve-down absorbs the escapees instead, so
# a short maintained disk run must trigger no rebuilds at all.
grep -q '"tree.update.full_rebuilds":0' "$disk_metrics" ||
    { echo "disk smoke: maintained disk run fell back to full rebuilds"; exit 1; }
grep -q '"tree.update.subtree_rebuilds":0' "$disk_metrics" ||
    { echo "disk smoke: drift rebuilds not bounded in $disk_metrics"; exit 1; }
grep -q '"tree.update.update_errors":0' "$disk_metrics" ||
    { echo "disk smoke: structured update errors recorded in $disk_metrics"; exit 1; }

echo "== incremental churn smoke (leaves churn: Subtrees rebuilt, not patched) =="
churn_metrics="$smoke_dir/churn.json"
cargo run --release -q --bin paratreet -- disk --particles 3000 --iterations 4 \
    --tree longest-dim --decomp longest-dim --incremental true --radius-scale 1 \
    --metrics-out "$churn_metrics" > /dev/null
# The default --dt (a fiftieth of the inner orbit) moves about half of
# the bodies out of their leaves each step: past the churn fraction.
# Physical radii (--radius-scale 1) merge nothing, so the population
# holds and no step falls back to a full rebuild.
grep -q '"tree.update.churn_rebuilds":[1-9]' "$churn_metrics" ||
    { echo "churn smoke: no churned Subtree rebuilt in $churn_metrics"; exit 1; }
grep -q '"tree.update.full_rebuilds":0' "$churn_metrics" ||
    { echo "churn smoke: maintained disk run fell back to full rebuilds"; exit 1; }
grep -q '"tree.update.update_errors":0' "$churn_metrics" ||
    { echo "churn smoke: structured update errors recorded in $churn_metrics"; exit 1; }

echo "== serve smoke (live writer + reader pool, latency histograms) =="
serve_metrics="$smoke_dir/serve.json"
cargo run --release -q --bin paratreet -- serve-bench --particles 3000 --clients 40 \
    --queries 25 --serve-workers 2 --threads 2 \
    --metrics-out "$serve_metrics" > /dev/null
grep -q '"serve.queries.completed":1000' "$serve_metrics" ||
    { echo "serve smoke: not every query completed in $serve_metrics"; exit 1; }
grep -q '"serve.latency.knn.p99":[1-9]' "$serve_metrics" ||
    { echo "serve smoke: no kNN p99 latency recorded in $serve_metrics"; exit 1; }
grep -q '"serve.snapshots.published":[1-9]' "$serve_metrics" ||
    { echo "serve smoke: writer published no snapshots in $serve_metrics"; exit 1; }

echo "== deadline + shed smoke (tiny queue, 1 ms deadlines) =="
overload_metrics="$smoke_dir/overload.json"
# One reader behind an 8-batch queue under shed admission and 1 ms
# deadlines: the run must still exit 0 — overload is answered, never
# fatal. k = 1024 makes one batch take about a millisecond, so a batch
# queued behind another expires, and the full queue sheds.
cargo run --release -q --bin paratreet -- serve-bench --particles 3000 --clients 40 \
    --queries 25 --serve-workers 1 --threads 2 --queue 8 --batch 32 --k 1024 \
    --admission shed --deadline-ms 1 \
    --metrics-out "$overload_metrics" > /dev/null
grep -q '"serve.deadline_exceeded":[1-9]' "$overload_metrics" ||
    { echo "deadline smoke: no deadline expiries recorded in $overload_metrics"; exit 1; }
grep -q '"serve.queries.shed":[1-9]' "$overload_metrics" ||
    { echo "deadline smoke: nothing shed at the full queue in $overload_metrics"; exit 1; }

echo "== forest smoke (tiled FoF with a ghost exchange) =="
forest_metrics="$smoke_dir/forest.json"
# Four periodic boxes: the halo catalog must be non-empty and the
# ghost layer must actually cross the seams.
cargo run --release -q --bin paratreet -- fof --particles 6000 --tiles 2x2x1 \
    --metrics-out "$forest_metrics" > /dev/null
grep -q '"fof.halos":[1-9]' "$forest_metrics" ||
    { echo "forest smoke: no halos found in $forest_metrics"; exit 1; }
grep -q '"ghost.particles":[1-9]' "$forest_metrics" ||
    { echo "forest smoke: ghost layer exchanged no particles"; exit 1; }
grep -q '"ghost.bytes":[1-9]' "$forest_metrics" ||
    { echo "forest smoke: ghost layer carried zero bytes"; exit 1; }
# The catalog is a property of the particles, not of the tree that
# found it: halos, links, grouped members and the largest halo agree
# across the octree, the k-d tree and the longest-dimension tree.
fof_counts() {
    grep -o '"fof\.\(halos\|links\|grouped\|largest\)":[0-9]*' "$1" | sort
}
for tree in oct kd longest-dim; do
    cargo run --release -q --bin paratreet -- fof --particles 6000 --tiles 2x2x1 \
        --tree "$tree" --metrics-out "$smoke_dir/fof-$tree.json" > /dev/null
    [ "$(fof_counts "$smoke_dir/fof-$tree.json" | wc -l)" -eq 4 ] ||
        { echo "forest smoke: --tree $tree reported no fof.* counts"; exit 1; }
    [ "$(fof_counts "$smoke_dir/fof-$tree.json")" = "$(fof_counts "$smoke_dir/fof-oct.json")" ] ||
        { echo "forest smoke: --tree $tree found another catalog than --tree oct"; exit 1; }
done

echo "== analyze smoke (traced serve run -> paratreet-analyze --check) =="
obs_dir="$smoke_dir/obs"
mkdir "$obs_dir"
cargo run --release -q --bin paratreet -- serve-bench --particles 3000 --clients 40 \
    --queries 25 --serve-workers 2 --threads 2 \
    --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.json" \
    --timeseries-out "$obs_dir/flight.json" > /dev/null
# --check enforces the observability invariants: a nonzero critical
# path, a busy utilization row for every worker track, and a p999
# exemplar that resolves to a complete request span chain.
cargo run --release -q -p paratreet-analyze --bin paratreet-analyze -- \
    --trace "$obs_dir/trace.json" --metrics "$obs_dir/metrics.json" \
    --timeseries "$obs_dir/flight.json" --check \
    --json-out "$obs_dir/report.json" > "$obs_dir/report.txt"
grep -q 'critical path' "$obs_dir/report.txt" ||
    { echo "analyze smoke: no critical path section"; exit 1; }
grep -q '"utilization"' "$obs_dir/report.json" ||
    { echo "analyze smoke: no utilization profile in the JSON report"; exit 1; }
grep -q '"complete":true' "$obs_dir/report.json" ||
    { echo "analyze smoke: p999 exemplar chain incomplete"; exit 1; }

echo "CI green."
