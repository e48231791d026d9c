#!/usr/bin/env bash
# CLI round trip on a tiny synthetic dataset, for quat_axial (width 0.25) and
# quat_resnet: train one epoch, resume to epoch 2 from its checkpoint,
# evaluate the result.  Each command must exit 0, and history.csv must then
# list epochs 0 and 1.  A one-epoch recon-demo must exit 0 and print both
# held-out MSEs.  Then eleven misuses must be refused (exit 1, "error:"
# and no "Traceback" on stderr): eval of the quat_resnet checkpoint on a
# dataset with another class count; a resume from it whose flags name another
# architecture, which must also leave no --out directory behind; a resume
# whose config has no epoch left to train, which must leave history.csv as it
# was; train with a --config file that is not UTF-8; subsample --per-class 0,
# which must write no manifest; recon-demo --epochs 0; count-params
# --width-scale 1e308, --width-scale 1e30 and --classes 10**30; train with a
# config holding seed = -1, which must leave no --out directory; and bench
# --seed -1.
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

qaxial recon-demo --data synthetic://classes=2,per_class=5,size=8,seed=0 --epochs 1 \
    > "$work/recon"
cat "$work/recon"
grep -q '^quaternion test MSE: ' "$work/recon" && grep -q '^real test MSE: ' "$work/recon"

refused() {
    local code=0
    qaxial "$@" 2> "$work/err" || code=$?
    cat "$work/err" >&2
    test "$code" = 1 && grep -q '^error:' "$work/err" && ! grep -q Traceback "$work/err"
}
checkpoint="$work/quat_resnet/checkpoint.qx"
refused eval --checkpoint "$checkpoint" --data synthetic://classes=5,per_class=5,size=32,seed=0
refused train --variant quat_axial --depth 50 --width-scale 0.25 --heads 2 --data "$data" \
    --config "$work/one.cfg" --out "$work/refused" --resume "$checkpoint"
test ! -e "$work/refused"
cp "$work/quat_resnet/history.csv" "$work/history.before"
refused train --variant quat_resnet --data "$data" --config "$work/two.cfg" \
    --out "$work/quat_resnet" --resume "$checkpoint"
cmp "$work/history.before" "$work/quat_resnet/history.csv"
printf '\xff\xfeepochs = 1\n' > "$work/bad.cfg"
refused train --variant quat_resnet --data "$data" --config "$work/bad.cfg" --out "$work/bad"
mkdir -p "$work/tree/a"
touch "$work/tree/a/0.ppm"
refused subsample --root "$work/tree" --per-class 0
test ! -e "$work/tree/manifest.txt"
refused recon-demo --data synthetic://classes=2,per_class=5,size=8,seed=0 --epochs 0
refused count-params --variant axial --width-scale 1e308
refused count-params --variant axial --width-scale 1e30
refused count-params --variant resnet --classes 1000000000000000000000000000000
printf 'seed = -1\n' > "$work/seed.cfg"
refused train --variant quat_resnet --data "$data" --config "$work/seed.cfg" --out "$work/seed"
test ! -e "$work/seed"
refused bench --variant resnet --seed -1
