#!/bin/sh
# Shows that one flag changes what a tool writes.
#
#   flag_changes_output.sh DIR OUT_FLAG FLAG=VALUE TOOL [ARGS...]
#
# Runs `TOOL ARGS OUT_FLAG=DIR/...` twice as given and once with FLAG=VALUE
# added. Passes when the two plain runs write identical files (the output
# is deterministic) and the run with the flag writes a different one.
set -eu
dir=$1
out=$2
flag=$3
shift 3
mkdir -p "$dir"
"$@" "$out=$dir/plain_a" > /dev/null
"$@" "$out=$dir/plain_b" > /dev/null
"$@" "$flag" "$out=$dir/flagged" > /dev/null
if ! cmp -s "$dir/plain_a" "$dir/plain_b"; then
  echo "two plain runs wrote different files" >&2
  exit 1
fi
if cmp -s "$dir/plain_a" "$dir/flagged"; then
  echo "$flag changed nothing" >&2
  exit 1
fi
echo "$flag changes $out"
