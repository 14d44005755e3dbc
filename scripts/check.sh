#!/usr/bin/env bash
# Repository-wide quality gate: formatting, lints, tests.
#
# Usage: scripts/check.sh
#
# Tests run once per GTOPK_SIMD level ({scalar, auto} by default)
# because the kernels promise bit-identical results at any SIMD dispatch
# level; exporting GTOPK_SIMD pins a single level (CI's matrix jobs do
# exactly that).
#
# The build environment has no registry access; everything runs with
# --offline against the vendored stubs in vendor/ (see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

SIMD_MATRIX=(${GTOPK_SIMD:-scalar auto})

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The benchmark package (its own workspace under benchmark/) rebuilds the
# default gTop-k step from the product's public functions and pins that
# replica to the product path bit for bit; its contract test pins
# BENCHMARK.json to the code. Run them here so a product change that
# breaks either fails in the gate, not at measurement time (~15 s).
# Every public item's docs build without a broken or private link
# (`--lib`: the CLI's lib and bin would collide on one output name).
echo "==> cargo doc --workspace --lib -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --offline

echo "==> benchmark package tests (replica equivalence + contract)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target

# Rename/removal guards. The matrix below runs every suite through the one
# workspace-wide `cargo test`; these only check, without running anything
# a second time, that the suites the gate depends on still exist under
# the names it knows them by.
require_tests() {
  local n
  n="$(cargo test -q --offline "$@" -- --list 2>/dev/null | grep -c ': test$' || true)"
  if [ "$n" -lt 1 ]; then
    echo "error: \`cargo test $*\` matches no test (renamed or removed?)" >&2
    exit 1
  fi
}

echo "==> suite registration guards"
# The workspace-level integration suites under tests/ are registered as
# [[test]] targets of gtopk-core: a file added to tests/ but not to
# crates/core/Cargo.toml would silently never run.
for f in tests/*.rs; do
  name="$(basename "$f" .rs)"
  if ! grep -q "name = \"$name\"" crates/core/Cargo.toml; then
    echo "error: $f is not registered as a [[test]] target in crates/core/Cargo.toml" >&2
    exit 1
  fi
  require_tests -p gtopk-core --test "$name"
done
# Refactor pins: the per-algorithm golden trajectories (including the
# tree rows at the first warm-up epoch's density, where every `⊤` merge is
# large enough to take the fused kernel's sampled cut, every row's whole
# training run, and every sparse row under the bucketed engine), the
# bucketed optimizer apply against the dense step, and the capability
# sweep over every (algorithm, engine, recovery) cell.
require_tests -p gtopk-core --test golden_parity
require_tests -p gtopk-core --test golden_parity tree_rows_reproduce_their_warmup_density_trajectory
require_tests -p gtopk-core --test golden_parity every_row_trains_to_its_recorded_report
require_tests -p gtopk-core --test golden_parity the_other_sparse_rows_reproduce_their_overlapped_trajectory
require_tests -p gtopk-nn --lib bucketed_step_range_is_bitwise_the_dense_step
# The one-add step: every bucket's delta lands in the spent gradient and
# the model is added to once per step; momentum-corrected runs pinned.
require_tests -p gtopk-core --lib overlap::tests::the_spent_gradient_holds_the_applied_delta
require_tests -p gtopk-core --test golden_parity momentum_correction_rows_train_to_their_recorded_report
# The serial baseline is the one-bucket schedule replayed on the twin's
# clock, bit for bit; bucket fusion and the schedule invariants live with
# the engine.
require_tests -p gtopk-core --lib overlap::tests::the_serial_baseline_is_the_one_bucket_run
require_tests -p gtopk-core --lib overlap::tests::fusion_preserves_totals
require_tests -p gtopk-core --lib overlap::tests::invariant_checker_rejects_violations
require_tests -p gtopk-core --test capability_sweep
# The `⊤` merge: its oracle tests against the two-pointer sum + full sort
# (kept and split, shared supports, cancellation, ties at the k-th
# magnitude, ±0.0, NaN, denormals), and the allocation gate over both
# merges and the select-then-retire put-back. The retire equals the
# one-walk put-back it replaced, no residual operation leaves −0.0 (what
# makes the two bitwise equal), and every rank of a tree row serves its
# steps from its buffer pool after warm-up.
require_tests -p gtopk-sparse --lib merge::
require_tests -p gtopk-sparse --lib merge::tests::prop_merges_match_the_oracle_split
require_tests -p gtopk-sparse --test alloc_steadystate merge
require_tests -p gtopk-sparse --lib residual::tests::prop_retire_equals_the_one_walk_put_back
require_tests -p gtopk-sparse --lib residual::tests::prop_no_operation_leaves_negative_zero
require_tests -p gtopk-core --lib overlap::tests::every_rank_serves_its_steps_from_its_pool_after_warm_up
# The packed top-k kernel: every level writes the scalar reference's
# (index, value) pairs at every lane remainder, with NaN, ±0, ±∞,
# denormals and ties, into outputs with and without spare room; the
# select stays exact when the stratified sample overshoots `t_hi` or
# the pass collects more candidates than its room, allocates nothing
# after its first step, and no rank's pool hoards buffers as steps go by.
require_tests -p gtopk-core --test simd_identity packed_kernels_match_the_scalar_reference_at_every_remainder
require_tests -p gtopk-core --test simd_identity prop_compact_and_fused_bitwise_identical
require_tests -p gtopk-sparse --lib topk::tests::a_sample_that_puts_more_than_k_above_hi_stays_exact
require_tests -p gtopk-sparse --lib topk::tests::a_pass_that_collects_more_candidates_than_its_room_stays_exact
require_tests -p gtopk-sparse --test alloc_steadystate exact_fused_path_allocates_nothing_after_the_first_step
require_tests -p gtopk-core --lib aggregator::tests::every_ranks_idle_buffers_stay_bounded_whatever_the_step_count
# Transport contract: the shared conformance suite must hold for both the
# simulated and the real-TCP backend.
require_tests -p gtopk-comm --test transport_conformance
# The one-pass frame codec: hostile headers whose byte count overflows are
# errors, not panics; the encoder writes the per-element oracle's bytes
# and the decoders return its values and errors; warmed buffers encode
# and read a DATA frame without allocating beyond the decoded vectors.
require_tests -p gtopk-sparse --lib wire::tests::a_header_whose_byte_count_overflows_is_truncated_not_a_panic
require_tests -p gtopk-comm --lib frame::tests::a_sparse_or_padded_frame_whose_byte_count_overflows_is_invalid_data
require_tests -p gtopk-sparse --lib wire::tests::prop_encode_matches_the_oracle_and_roundtrips_bits
require_tests -p gtopk-sparse --lib wire::tests::prop_mutated_bytes_decode_like_the_oracle
require_tests -p gtopk-comm --lib frame::tests::prop_encode_matches_the_oracle_for_every_kind
require_tests -p gtopk-comm --lib frame::tests::prop_mutated_frames_read_like_the_oracle
require_tests -p gtopk-comm --test frame_alloc warmed
require_tests -p gtopk-comm --test frame_alloc a_one_gib_header_after_a_small_frame
# Algorithm zoo (Ok-Topk / SparDL): the budget-padded collectives, the
# schedule replay, and the Ok-Topk steady-state allocation gate.
require_tests -p gtopk-core --lib zoo
require_tests -p gtopk-perfmodel --lib zoo
require_tests -p gtopk-sparse --test alloc_steadystate oktopk
# The checkpoint layout of the removed parameter server (mode 4) still
# decodes as the one-bucket state, and the CLI refuses its options.
require_tests -p gtopk-core --lib ckpt::tests::a_mode_four_payload_decodes_as_one_bucket
require_tests -p gtopk-cli --lib the_removed_parameter_server_options_are_unknown
require_tests -p gtopk-cli --lib topology_options_are_validated
# A plan round sends at most once and receives at most once per position.
require_tests -p gtopk-comm --lib plan::tests::a_position_may_not_send_twice_in_one_round
require_tests -p gtopk-comm --lib plan::tests::a_position_may_not_receive_twice_in_one_round
# Every plan generator's exact rounds at P in {1, 2, 5, 6, 8}, as literals.
require_tests -p gtopk-comm --lib plan::tests::every_generator_emits_its_pinned_rounds
# Durable-recovery fault paths that used to panic: a failed checkpoint
# write trains on, a donor transfer that disagrees with the joiner's disk
# copy makes the joiner leave, and so does a disk generation of another
# run shape; the CLI refuses such a checkpoint dir up front, naming the
# field.
require_tests -p gtopk-core --lib trainer::tests::a_failed_durable_write_warns_and_trains_on
require_tests -p gtopk-core --lib trainer::tests::a_donor_transfer_that_disagrees_with_the_disk_copy_makes_the_joiner_leave
require_tests -p gtopk-core --lib trainer::tests::a_joiner_whose_checkpoint_does_not_fit_the_run_leaves
require_tests -p gtopk-core --lib trainer::tests::check_resume_names_the_first_field_that_disagrees
# A WELCOME naming a rollback generation the joiner's disk does not hold
# makes the joiner leave instead of panicking.
require_tests -p gtopk-core --lib trainer::tests::a_welcome_naming_a_generation_missing_from_disk_makes_the_joiner_leave
# A malformed ALIVE excludes its sender, and a malformed announcement (or
# one that leaves the caller out) sends the caller on to the next
# candidate, instead of panicking.
require_tests -p gtopk-core --lib ft::tests::a_malformed_alive_excludes_its_sender
require_tests -p gtopk-core --lib ft::tests::a_malformed_announcement_or_one_without_the_caller_moves_to_the_next_candidate
require_tests -p gtopk-cli --lib a_checkpoint_dir_of_another_run_shape_is_an_error_naming_the_field
# One exact selector: checkpoint bytes written while the selector was
# configurable still decode (exact) or fail typed (sampled), and the
# retired selector kinds are typed errors.
require_tests -p gtopk-core --lib ckpt::tests::pinned_exact_checkpoint_bytes_decode_to_their_state
require_tests -p gtopk-core --lib ckpt::tests::pinned_sampled_checkpoint_bytes_decode_as_pinned
require_tests -p gtopk-core --lib ckpt::tests::retired_selector_tag_is_a_typed_error
# The chunked convolution: forward, input gradient and accumulated weight
# and bias gradients (by `backward` and by `backward_params`) equal the
# per-sample, per-element im2col/col2im oracle bit for bit over kernels,
# strides and paddings whose windows read the padding partly, wholly or
# not at all, and again after the input's plane size changes (the index
# tables are rebuilt); skipping a first layer's input gradient leaves
# every zoo model's gradients bitwise; the tiled transpose writes the
# naive loop's bits; the max pool is the branching loop at every SIMD
# level (the AVX2 2×2 row-pair kernels and their fallbacks), and
# an all-NaN window's gradient stays inside its window; a warm vgg-lite
# step allocates no layer scratch (an exact count).
require_tests -p gtopk-nn --lib conv::tests::prop_chunked_conv_is_bitwise_the_per_sample_oracle
require_tests -p gtopk-nn --lib conv::tests::a_new_plane_size_rebuilds_the_tables
require_tests -p gtopk-nn --lib pool::tests::prop_maxpool_is_the_branching_loop
require_tests -p gtopk-nn --lib pool::tests::an_all_nan_window_routes_its_gradient_inside_the_window
require_tests -p gtopk-nn --test alloc_step_sparse a_warm_vgg_lite_step_allocates_no_layer_scratch
require_tests -p gtopk-nn --lib models::tests::skipping_the_first_layers_input_gradient_leaves_the_grads_bitwise
require_tests -p gtopk-tensor --lib matmul::tests::prop_transpose_into_is_the_naive_loop
# The convolution's table-driven data movement at every SIMD level: the
# gather is the indexed copy bit for bit, the gather-sum over k² reader
# slots (absent readers on a +0.0 slot) is the span fold col2im ran
# before it, and a table that reaches past its source panics instead of
# reading out of bounds.
require_tests -p gtopk-core --test simd_identity prop_gather_is_the_indexed_copy
require_tests -p gtopk-core --test simd_identity prop_gather_sum_is_the_span_fold
require_tests -p gtopk-core --test simd_identity a_table_that_reaches_past_its_source_panics
# The one tiled GEMM kernel equals the per-(row, p) scalar loop at every
# level (1–9 rows: whole four-row blocks and every remainder; every C
# width 1..=130), and the transposed products equal the kernels they
# replaced.
require_tests -p gtopk-core --test simd_identity prop_gemm_acc_is_bitwise_the_row_axpy_loop
require_tests -p gtopk-tensor --lib matmul::tests::prop_matmul_bt_flat_is_bitwise_the_dot_product_oracle
require_tests -p gtopk-tensor --lib matmul::tests::prop_matmul_at_flat_acc_is_bitwise_the_row_axpy_oracle
# CLI numbers that used to panic or be silently ignored are argument
# errors naming the flag.
require_tests -p gtopk-cli --lib numbers_that_would_panic_or_be_ignored_are_rejected_naming_the_flag
# One α-β clock: the executed dense ring, exact sparse sum and gTop-k
# tree equal their PlanClock replays exactly (past the 256-round tag
# window too), and Eqs. 5–7 stay oracles of those replays.
require_tests -p gtopk-core --test plan_equivalence prop_ring_allreduce_time_equals_dense_plan
require_tests -p gtopk-core --test plan_equivalence prop_sparse_sum_time_equals_topk_plan
require_tests -p gtopk-core --test plan_equivalence past_the_tag_window
require_tests -p gtopk-perfmodel --lib plancost

for simd in "${SIMD_MATRIX[@]}"; do
  export GTOPK_SIMD="$simd"
  echo "==> cargo test -q (GTOPK_SIMD=$simd)"
  cargo test -q --offline
done

# Committed numbers must not go stale: the analytic bins price every
# schedule by thread-free plan replay (seconds in total), the five
# convergence bins train Dense and gTop-k end to end through the trainer
# (~65 s in release; fig06, fig12 and fig13_14 also run the convolution
# at 16×16 images, stride-2 projections and other batch sizes), and
# eight more deterministic bins take under 20 s together in release,
# so rerun them and require their committed outputs to come back
# byte-identical.
echo "==> analytic and convergence results reproduce byte-identically"
for bin in table1_complexity fig09_allreduce_time fig10_scaling_efficiency \
  fig11_time_breakdown table4_throughput; do
  cargo run -q --offline -p gtopk-bench --bin "$bin" >/dev/null
done
for bin in fig05_convergence_cifar fig06_convergence_imagenet fig07_convergence_lstm \
  fig12_density_sensitivity fig13_14_batch_size; do
  cargo run -q --offline --release -p gtopk-bench --bin "$bin" >/dev/null 2>&1
done
# The bucketed engine and momentum correction: multi-bucket and corrected
# training runs end to end (seconds each in release).
for bin in ext_overlap ext_momentum_correction; do
  cargo run -q --offline --release -p gtopk-bench --bin "$bin" >/dev/null 2>&1
done
# The k-from-kP selection figure, the put-back ablation, the support
# overlap, the plan and zoo replays, the fault-tolerance table, and the
# sim-clock point-to-point and hierarchical-network tables.
for bin in fig01_select_k_from_kp ext_putback_ablation ext_support_overlap \
  bench_plans bench_zoo ext_fault_tolerance fig08_p2p ext_hierarchical_network; do
  cargo run -q --offline --release -p gtopk-bench --bin "$bin" >/dev/null 2>&1
done
git diff --exit-code -- results/table1_complexity.tsv results/fig09_*.tsv \
  results/fig10_scaling_*.tsv results/fig11_time_breakdown.tsv \
  results/table4_throughput.tsv results/fig05_convergence_*.tsv \
  results/fig06_*.tsv results/fig07_convergence_lstm.tsv results/fig12_*.tsv \
  results/fig13_*.tsv \
  results/ext_overlap.tsv results/ext_momentum_correction.tsv BENCH_overlap.json \
  results/fig01_select_k_from_kp.tsv results/ext_putback_ablation.tsv \
  results/ext_support_overlap.tsv results/bench_plans.tsv BENCH_plans.json \
  results/ext_zoo.tsv BENCH_zoo.json results/ext_fault_tolerance.tsv BENCH_faults.json \
  results/fig08_p2p.tsv results/ext_hierarchical_network.tsv

# Real processes, real sockets, a real SIGKILL: a 4-process localhost
# cluster over `--transport tcp --rendezvous` (OS-assigned ports published
# via rendezvous files — no pre-agreed port list, so parallel CI jobs
# cannot collide) loses one worker mid-run and must finish on the
# survivors. Skipped where loopback sockets are unavailable; the
# tcp_cluster test suite gates itself the same way.
echo "==> multi-process TCP cluster (kill one worker mid-run)"
if cargo run -q --offline -p gtopk-cli -- info >/dev/null 2>&1 \
  && scripts/probe_loopback.sh; then
  # (100 epochs: the kill lands 2 s in, and 16 epochs are over by then.)
  scripts/run_tcp_cluster.sh 4 100

  # Elastic recovery: same cluster shape, but with durable checkpoints
  # armed; the killed worker is RESTARTED and must restore from disk,
  # rejoin, and heal the membership back to full strength.
  echo "==> chaos cluster (kill one worker, restart it, expect heal)"
  scripts/run_chaos_cluster.sh 4 24
else
  echo "    skipped: loopback sockets unavailable"
fi

echo "==> OK"
