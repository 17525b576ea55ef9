#!/bin/sh
# Run every workload once, untraced, and print each run's metric lines.
#   sh perfbench/run_all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-25}
for w in radial nonradial verifiers; do
    echo "== $w"
    python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0
done
