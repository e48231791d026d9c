#!/usr/bin/env bash
# CLI round trip on a tiny synthetic dataset, for quat_axial (width 0.25) and
# quat_resnet: train one epoch, resume to epoch 2 from its checkpoint,
# evaluate the result.  Each command must exit 0, and history.csv must then
# list epochs 0 and 1.
# Run from the repository root: bash scripts/cli_round_trip.sh
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
qaxial() { python3 -m qaxial.cli "$@"; }

data=synthetic://classes=2,per_class=5,size=32,seed=0
config() { printf 'epochs = %s\nbatch_size = 5\nbase_lr = 0.01\nwarmup_epochs = 1\ndecay_epochs =\n' "$1"; }
config 1 > "$work/one.cfg"
config 2 > "$work/two.cfg"

for model in "quat_axial --width-scale 0.25" "quat_resnet"; do
    run="$work/${model%% *}"
    # $model is split on purpose: the variant, then its options
    qaxial train --variant $model --data "$data" --config "$work/one.cfg" --out "$run"
    qaxial train --variant $model --data "$data" --config "$work/two.cfg" --out "$run" \
        --resume "$run/checkpoint.qx"
    test "$(cut -d, -f1 "$run/history.csv" | tail -n +2 | paste -sd, -)" = "0,1"
    qaxial eval --checkpoint "$run/checkpoint.qx" --data "$data"
done
