#!/usr/bin/env bash
# Regenerates every experiment of the paper (plus ablations/extensions) and
# stores the output next to the binaries' sources.
#
#   scripts/run_experiments.sh [quick|default|paper]
#
#   quick   — small datasets, finishes in ~2 minutes
#   default — the defaults used for EXPERIMENTS.md (~10 minutes)
#   paper   — paper-scale datasets (797,570 / 5M facts; expect a long run)

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-default}"
case "$MODE" in
  quick)
    FIG5AB="--facts=30000"; FIG5BUF="--facts=30000"
    FIG5IJ="--facts=100000"; FIG6="--facts=30000"
    ABL="--facts=30000"; MUT="--facts=20000"; TAB2="--facts=50000"
    SCALE="--facts=10000 --rounds=2"; COLUMNAR="--facts=20000" ;;
  default)
    FIG5AB=""; FIG5BUF=""; FIG5IJ=""; FIG6=""; ABL=""; MUT=""; TAB2=""
    SCALE=""; COLUMNAR="" ;;
  paper)
    FIG5AB="--facts=797570"; FIG5BUF="--facts=797570"
    FIG5IJ="--facts=5000000"; FIG6="--facts=797570"
    ABL="--facts=797570"; MUT="--facts=797570"; TAB2="--facts=797570"
    SCALE="--facts=797570"; COLUMNAR="--facts=797570" ;;
  *) echo "unknown mode '$MODE'" >&2; exit 2 ;;
esac

cmake -B build -G Ninja
cmake --build build

OUT="bench_output.txt"
: > "$OUT"
run() {
  echo "######## $*" | tee -a "$OUT"
  "$@" 2>&1 | tee -a "$OUT"
  echo | tee -a "$OUT"
}

run build/bench/bench_table2_dataset $TAB2
run build/bench/bench_fig5ab_inmemory $FIG5AB
run build/bench/bench_fig5cde_auto_buffer $FIG5BUF
run build/bench/bench_fig5fgh_synth_buffer $FIG5BUF
run build/bench/bench_fig5ij_scalability $FIG5IJ
run build/bench/bench_fig6_maintenance $FIG6
run build/bench/bench_ablation_convergence $ABL
run build/bench/bench_ext_mutations $MUT
run build/bench/bench_micro_storage
run build/bench/bench_serve_scaling $SCALE --json=BENCH_serve_scaling.json
run build/bench/bench_columnar $COLUMNAR --json=BENCH_columnar.json

echo "wrote $OUT"
