#!/usr/bin/env bash
# Runs the four shipped configs and 15 variants of them twice, into fresh
# ci-a/ and ci-b/ at the repository root, and fails unless every run exits
# 0, writes nothing to stderr, and both runs are identical byte for byte.
#
#   bash tests/rerun_variants.sh
#
# Afterwards `python tests/compare_golden.py ci-a` compares the shipped
# configs' outputs with tests/golden/.
set -eo pipefail
cd "$(dirname "$0")/.."

# variant NAME COMMAND CONFIG [OLD|NEW ...] copies configs/CONFIG.cfg
# to ci-<run>/NAME.cfg, replacing each line OLD by NEW (OLD must be
# there before, NEW after), and runs COMMAND on it into ci-<run>/NAME;
# its stdout (the printed rates, residuals and DN growth: the verdicts
# users read) goes to ci-<run>/NAME.out and is compared with the CSVs;
# its stderr goes to ci-<run>/NAME.err, is shown when the run fails,
# and must be empty: a warning (such as fit_rate's on a non-monotone
# error ladder) fails the script too
variant() {
  local name=$1 cmd=$2 cfg="ci-$run/$1.cfg" sub
  cp "configs/$3.cfg" "$cfg"
  shift 3
  for sub in "$@"; do
    grep -qxF "${sub%%|*}" "$cfg"
    sed -i "s/^${sub%%|*}\$/${sub#*|}/" "$cfg"
    grep -qxF "${sub#*|}" "$cfg"
  done
  PYTHONPATH=src python -m fsisplit.cli "$cmd" --config "$cfg" \
    --out "ci-$run/$name" > "ci-$run/$name.out" 2> "ci-$run/$name.err" \
    || { cat "ci-$run/$name.err"; return 1; }
}
# a stretched channel: cells neither square nor of unit size
stretched=('L = 1.0|L = 3.0' 'H_f = 1.0|H_f = 0.2' 'H_s = 1.0|H_s = 0.5')
# a tall strip, the grid dissection's worst shape: every
# factorization there has more fill than under COLAMD; converge is
# the only command that factors the solid extension
strip=('nx = 16|nx = 2' 'ny_f = 16|ny_f = 32' 'ny_s = 16|ny_s = 32')
# the smallest channel: both interface vertices are corners, so the
# interface keeps only its midpoint node (converge is left out: its
# smooth mode is round-off there and it exits 4 by design)
one=('nx = 16|nx = 1' 'ny_f = 16|ny_f = 1' 'ny_s = 16|ny_s = 1')
for run in a b; do
  rm -rf "ci-$run"  # no output of an earlier run is compared
  mkdir "ci-$run"
  variant stability stability stability
  variant converge converge converge
  variant lambda-sweep lambda-sweep lambda_sweep
  variant dn-compare dn-compare dn_compare
  # two substeps per window: error averages over several samples
  variant converge-m2 converge converge 'm = 1|m = 2'
  # lcm(8, 3) = 24 reference steps per window, fields kept every 8th
  variant converge-m3 converge converge 'm = 1|m = 3'
  # substep times that are not binary fractions: their running sums
  # drift off the reference grid, which the error norms index by step
  variant converge-t03 converge converge 'T = 0.5|T = 0.3' 'm = 1|m = 3'
  # the timeloop benchmark's shape: n = 32 saddle points under
  # threshold pivoting
  variant timeloop stability stability 'nx = 16|nx = 32' \
    'ny_f = 16|ny_f = 32' 'ny_s = 16|ny_s = 32' 'N = 64|N = 128' 'm = 1|m = 2'
  variant stretched stability stability "${stretched[@]}"
  variant stretched-converge converge converge "${stretched[@]}"
  # the exact start check of the error norms on coordinates that are not
  # binary fractions, through every Robin weight of the sweep
  variant lambda-sweep-stretched lambda-sweep lambda_sweep "${stretched[@]}"
  variant strip stability stability "${strip[@]}"
  variant strip-converge converge converge "${strip[@]}"
  # the added-mass contrast off the unit channel
  variant dn-stretched dn-compare dn_compare "${stretched[@]}"
  variant dn-strip dn-compare dn_compare "${strip[@]}"
  variant one-cell stability stability "${one[@]}"
  variant dn-one-cell dn-compare dn_compare "${one[@]}"
  # a solid 1000 times the fluid's density at dt = 1/100: the n = 16
  # point of acceptance criterion 6 where DN still blows up, with
  # the solid substep under a Neumann load
  variant dn-heavy dn-compare dn_compare 'rho_s = 1.0|rho_s = 1000.0' 'N = 200|N = 50'
  # a step so small that rho / ddt is near the largest double: the
  # scale of the first solve's backward-error check overflows, and
  # must do so without a warning on stderr
  variant tiny-step stability stability "${one[@]}" 'T = 0.5|T = 1e-300'
done
cat ci-a/*.out
for f in ci-*/*.err; do
  if [ -s "$f" ]; then echo "stderr of $f:"; cat "$f"; exit 1; fi
done
# every CSV, stdout, stderr and config copy of every variant
diff -r ci-a ci-b
