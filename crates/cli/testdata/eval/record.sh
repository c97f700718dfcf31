#!/bin/sh
# Re-records the `harpgbdt eval` golden transcript that
# `crates/cli/tests/cli.rs::eval_output_matches_the_recorded_transcript`
# compares against byte for byte.
#
# Usage, from this directory: ./record.sh PATH/TO/harpgbdt
#
# The models are trained once, at one thread, and committed; re-run with
# `--models` as the second argument to retrain them as well. Only re-record
# when the output is meant to change.
set -eu
bin=$1
if [ "${2:-}" = "--models" ]; then
    train() { "$bin" train --threads 1 --trees 4 --tree-size 3 "$@" >/dev/null; }
    train --data binary.csv --model logistic.json
    train --data multiclass.csv --model softmax.json --loss softmax:3
    train --data regression.csv --model quantile.json --loss quantile:0.9
    train --data regression.csv --model tweedie.json --loss tweedie:1.3
    train --data regression.csv --model huber.json --loss huber:2
    train --data multiclass.csv --model lambdarank.json --loss lambdarank:5 \
        --groups multiclass.groups
fi
# One case a line: the arguments after `eval`, as cli.rs lists them.
while read -r args; do
    echo "\$ harpgbdt eval $args"
    # shellcheck disable=SC2086
    "$bin" eval $args
done <cases.txt >golden.txt
