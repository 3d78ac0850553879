#!/bin/sh
# tools/fault_matrix.sh — deterministic fault-injection matrix.
#
#   tools/fault_matrix.sh <path-to-tmm> [path-to-serve_loadgen]
#
# For every registered fault site (`tmm fault-sites`) the matrix arms
# the site in throw mode against a command that reaches it and asserts
# the flow degrades cleanly: a structured "injected fault" diagnostic,
# an exit code in {1,2,3} (never a crash), and no torn temp files left
# in any checkpoint directory.  Persistence sites are additionally
# armed in kill mode (SIGKILL at the site); the interrupted flow must
# resume to outputs bit-identical to an uninterrupted baseline run.
set -eu

TMM="$1"
LOADGEN="${2:-}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
fail() { echo "FAULT_MATRIX_FAIL: $*" >&2; exit 1; }

# Small deterministic fixtures + an uninterrupted baseline flow run.
"$TMM" gen-design "$DIR/t1.dsn" --pins 1000 --seed 6 --name t1
"$TMM" gen-design "$DIR/t2.dsn" --pins 1200 --seed 7 --name t2
"$TMM" flow "$DIR/base" "$DIR/t1.dsn" "$DIR/t2.dsn" > /dev/null
mkdir "$DIR/models"
"$TMM" pack "$DIR/base/out/t1.macro" --out "$DIR/models/t1.tmb"

# Real-circuit fixture for the frontend sites (docs/FRONTEND.md).
cat > "$DIR/fe.blif" <<'EOF'
.model fe_majority
.inputs a b c
.outputs y
.names a b ab
11 1
.names a c ac
11 1
.names b c bc
11 1
.names ab ac bc y
1-- 1
-1- 1
--1 1
.end
EOF

"$TMM" fault-sites > "$DIR/sites.txt"
[ -s "$DIR/sites.txt" ] || fail "fault-site registry is empty"

# Map a site to a command line that reaches it on its first hit.  The
# checkpointed flow covers most sites; parser/engine sites get
# targeted commands.  $2 is a unique suffix for scratch outputs.
command_for() {
  case "$1" in
    netlist.read) echo "stats $DIR/t1.dsn" ;;
    sta.run)      echo "sta $DIR/t1.dsn" ;;
    gnn.train_epoch|gnn.save)
                  echo "train $DIR/m-$2.gnn $DIR/t1.dsn" ;;
    gnn.load)     echo "generate $DIR/base/model.gnn $DIR/t1.dsn $DIR/g-$2.macro" ;;
    macro.read)   echo "evaluate $DIR/t1.dsn $DIR/base/out/t1.macro" ;;
    serve.pack)   echo "pack $DIR/base/out/t1.macro --out $DIR/p-$2.tmb" ;;
    serve.load_model)
                  echo "serve $DIR/models --socket $DIR/s-$2.sock" ;;
    frontend.parse|frontend.map)
                  echo "import $DIR/fe.blif --out $DIR/fe-$2.dsn" ;;
    *)            echo "flow $DIR/run-$2 $DIR/t1.dsn $DIR/t2.dsn" ;;
  esac
}

n=0
while read -r site; do
  [ -n "$site" ] || continue
  case "$site" in
    serve.parse_request|serve.write_response)
      # Reached only inside a live server loop; exercised with a real
      # client (serve_loadgen) in tests/cli_test.sh.
      echo "  throw $site: covered by tests/cli_test.sh (needs a live client)"
      continue ;;
    serve.reload_open|serve.reload_swap|serve.reload_validate)
      # Reached only by a live reload; exercised in the dedicated
      # hot-reload rollback block below.
      continue ;;
  esac
  n=$((n + 1))
  cmd=$(command_for "$site" "$n")
  rc=0
  # shellcheck disable=SC2086
  TMM_FAULT="$site:1" "$TMM" $cmd > "$DIR/out-$n.txt" 2>&1 || rc=$?
  [ "$rc" -le 3 ] || fail "$site: exit code $rc looks like a crash"
  [ "$rc" -ne 0 ] || fail "$site: armed fault never reached by '$cmd'"
  grep -q "injected" "$DIR/out-$n.txt" \
    || fail "$site: no injected-fault diagnostic (rc=$rc)"
  if [ -d "$DIR/run-$n" ]; then
    [ "$(find "$DIR/run-$n" -name '*.tmp.*' | wc -l)" -eq 0 ] \
      || fail "$site: torn temp files left behind"
  fi
  echo "  throw $site: rc=$rc OK"
done < "$DIR/sites.txt"

# TS faults inside the worker slots: `train --threads 2` runs the
# per-pin TS loop on the shared pool, so a fault on any hit — a
# reference run, a slot's scratch build, one pin's re-analysis — must
# degrade or skip the design with a diagnostic, never escape a worker.
for site in sta.run ts.eval_pin; do
  for k in 1 2 3 4 5 6 7 8; do
    rc=0
    TMM_FAULT="$site:$k" "$TMM" train "$DIR/ts-$k.gnn" "$DIR/t1.dsn" \
      "$DIR/t2.dsn" --threads 2 > "$DIR/ts-$site-$k.txt" 2>&1 || rc=$?
    [ "$rc" -le 3 ] || fail "$site:$k: exit code $rc in the TS worker loop"
    grep -q "injected" "$DIR/ts-$site-$k.txt" \
      || fail "$site:$k: no injected-fault diagnostic (rc=$rc)"
  done
  echo "  throw $site:1..8: train --threads 2 degraded cleanly OK"
done

# Hot-reload rollback: each serve.reload_* site fires mid-reload
# against a live server; the reload must report the injected failure,
# the previous generation must keep serving (bit-identically when a
# loadgen is provided), and a second reload — the fault is exactly-once
# — must swap cleanly before a clean exit-0 drain.
r=0
for site in serve.reload_open serve.reload_swap serve.reload_validate; do
  r=$((r + 1))
  SOCK="$DIR/reload-$r.sock"
  TMM_FAULT="$site:1" "$TMM" serve "$DIR/models" --socket "$SOCK" \
    --threads 1 > "$DIR/reload-serve-$r.txt" 2>&1 &
  SRV=$!
  i=0
  while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do i=$((i+1)); sleep 0.1; done
  [ -S "$SOCK" ] || fail "$site: server never bound $SOCK"
  "$TMM" stat --reload "$SOCK" > "$DIR/reload-$r.json" \
    || fail "$site: stat --reload failed"
  grep -q '"ok": false' "$DIR/reload-$r.json" \
    || fail "$site: injected reload did not report failure"
  grep -q "injected" "$DIR/reload-$r.json" \
    || fail "$site: no injected-fault diagnostic in reload answer"
  if [ -n "$LOADGEN" ]; then
    TMM_BENCH_JSON_DIR="$DIR" "$LOADGEN" --socket "$SOCK" \
      --model-dir "$DIR/models" --threads 2 --seconds 1 --warm-keys 2 \
      > "$DIR/reload-lg-$r.txt" \
      || fail "$site: old generation stopped serving bit-identically"
  fi
  "$TMM" stat --reload "$SOCK" > "$DIR/reload-retry-$r.json" \
    || fail "$site: post-fault reload failed"
  grep -q '"ok": true' "$DIR/reload-retry-$r.json" \
    || fail "$site: reload did not recover after the one-shot fault"
  kill -TERM "$SRV"
  rc=0
  wait "$SRV" || rc=$?
  [ "$rc" -eq 0 ] || fail "$site: server did not drain cleanly (rc=$rc)"
  echo "  throw $site: rollback kept serving, retry swapped OK"
done

# SIGKILL mid-persistence, then resume: the checkpoint protocol must
# reproduce the uninterrupted baseline bit-for-bit.
KILL_SITES="checkpoint.save_model checkpoint.save_sens \
            util.atomic_write util.atomic_rename"
k=0
for site in $KILL_SITES; do
  k=$((k + 1))
  run="$DIR/kill-$k"
  rc=0
  TMM_FAULT="$site:1:kill" "$TMM" flow "$run" "$DIR/t1.dsn" "$DIR/t2.dsn" \
    > /dev/null 2>&1 || rc=$?
  [ "$rc" -ge 128 ] || fail "$site: kill fault did not terminate the run (rc=$rc)"
  "$TMM" --resume "$run" flow "$DIR/t1.dsn" "$DIR/t2.dsn" > /dev/null \
    || fail "$site: resume after SIGKILL failed"
  cmp -s "$run/model.gnn" "$DIR/base/model.gnn" \
    || fail "$site: resumed model differs from baseline"
  for m in "$DIR/base/out/"*.macro; do
    cmp -s "$m" "$run/out/$(basename "$m")" \
      || fail "$site: resumed macro $(basename "$m") differs from baseline"
  done
  [ "$(find "$run" -name '*.tmp.*' | wc -l)" -eq 0 ] \
    || fail "$site: torn temp files survived resume"
  echo "  kill  $site: resume bit-identical OK"
done

# SIGKILL mid-parse on a real-circuit flow: the .blif enters the flow
# through the frontend; a kill inside the parser must leave the run
# directory resumable, and the resumed run must reproduce an
# uninterrupted BLIF baseline bit-for-bit (imports are deterministic,
# so the re-parse on resume regenerates identical designs).
"$TMM" flow "$DIR/fe-base" "$DIR/fe.blif" "$DIR/t1.dsn" > /dev/null
rc=0
TMM_FAULT="frontend.parse:1:kill" "$TMM" flow "$DIR/fe-kill" \
  "$DIR/fe.blif" "$DIR/t1.dsn" > /dev/null 2>&1 || rc=$?
[ "$rc" -ge 128 ] || fail "frontend.parse: kill fault did not terminate (rc=$rc)"
"$TMM" --resume "$DIR/fe-kill" flow "$DIR/fe.blif" "$DIR/t1.dsn" > /dev/null \
  || fail "frontend.parse: resume after mid-parse SIGKILL failed"
cmp -s "$DIR/fe-kill/model.gnn" "$DIR/fe-base/model.gnn" \
  || fail "frontend.parse: resumed model differs from BLIF baseline"
for m in "$DIR/fe-base/out/"*.macro; do
  cmp -s "$m" "$DIR/fe-kill/out/$(basename "$m")" \
    || fail "frontend.parse: resumed macro $(basename "$m") differs"
done
[ "$(find "$DIR/fe-kill" -name '*.tmp.*' | wc -l)" -eq 0 ] \
  || fail "frontend.parse: torn temp files survived resume"
echo "  kill  frontend.parse: flow over .blif resumed bit-identical OK"

echo "FAULT_MATRIX_OK"
