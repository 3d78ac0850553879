#!/bin/sh
# End-to-end CLI smoke test: generate designs, train, build a macro,
# evaluate it. Run by ctest with the tmm binary path as $1 and the
# serve_loadgen binary path as $2.
set -e
TMM="$1"
LOADGEN="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
# fd 3 keeps the script's stderr for helper diagnostics when a call
# redirects its own stderr into a file.
exec 3>&2

# expect_rc <code> <cmd...>: run cmd, which may fail, and require exit
# status <code>. Redirections on the call apply to cmd; environment
# overrides go through `env`.
expect_rc() {
  want=$1
  shift
  set +e
  "$@"
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "expected exit $want, got $got: $*" >&3
    exit 1
  fi
}

# wait_socket <path>: wait up to 10 s for a server's unix socket.
wait_socket() {
  i=0
  while [ ! -S "$1" ] && [ "$i" -lt 100 ]; do i=$((i+1)); sleep 0.1; done
  if [ ! -S "$1" ]; then
    echo "no socket at $1" >&3
    exit 1
  fi
}

"$TMM" gen-design "$DIR/block.dsn" --pins 2500 --seed 5 --name cli_block
"$TMM" stats "$DIR/block.dsn"
"$TMM" sta "$DIR/block.dsn" --period 900
"$TMM" gen-design "$DIR/t1.dsn" --pins 1000 --seed 6 --name t1
"$TMM" gen-design "$DIR/t2.dsn" --pins 1200 --seed 7 --name t2
"$TMM" train "$DIR/m.gnn" "$DIR/t1.dsn" "$DIR/t2.dsn"
"$TMM" generate "$DIR/m.gnn" "$DIR/block.dsn" "$DIR/block.macro"
"$TMM" evaluate "$DIR/block.dsn" "$DIR/block.macro"
# Generation is deterministic: the same inputs give the same bytes.
"$TMM" generate "$DIR/m.gnn" "$DIR/block.dsn" "$DIR/block_again.macro"
cmp "$DIR/block.macro" "$DIR/block_again.macro"

# Invariant checker: every design and the generated macro model must be
# free of error-severity diagnostics.
"$TMM" lint "$DIR/block.dsn" "$DIR/t1.dsn" "$DIR/t2.dsn"
"$TMM" lint "$DIR/block.macro"

# Regression-mode variant and CPPR-off variant must also work.
"$TMM" train "$DIR/mr.gnn" "$DIR/t1.dsn" --regression
"$TMM" generate "$DIR/mr.gnn" "$DIR/block.dsn" "$DIR/block2.macro" --regression
"$TMM" evaluate "$DIR/block.dsn" "$DIR/block2.macro" --no-cppr
# A model trained without the is_CPPR feature reads 8 features per pin;
# a CPPR-mode flow extracts 9. Applying it is a configuration error
# (exit 2) that writes nothing; with --no-cppr it fits.
"$TMM" train "$DIR/mn.gnn" "$DIR/t1.dsn" --no-cppr
head -n 1 "$DIR/mn.gnn" | grep -q '^gnn 8 '
expect_rc 2 "$TMM" generate "$DIR/mn.gnn" "$DIR/block.dsn" \
  "$DIR/narrow.macro" 2> "$DIR/err_width.txt"
grep -q 'reads 8 features per pin, this flow extracts 9' "$DIR/err_width.txt"
test ! -e "$DIR/narrow.macro"
"$TMM" generate "$DIR/mn.gnn" "$DIR/block.dsn" "$DIR/narrow.macro" --no-cppr
"$TMM" export-lib "$DIR/cells.lib"
"$TMM" export-lib "$DIR/cells_early.lib" --early
test -s "$DIR/cells.lib"

# Observability: --trace/--metrics must produce non-empty files on any
# subcommand, parseable as JSON when python3 is around.
"$TMM" --trace "$DIR/trace.json" --metrics "$DIR/metrics.json" \
  sta "$DIR/block.dsn"
test -s "$DIR/trace.json"
test -s "$DIR/metrics.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$DIR/trace.json" > /dev/null
  python3 -m json.tool "$DIR/metrics.json" > /dev/null
fi
grep -q '"ph"' "$DIR/trace.json"
grep -q 'sta.runs' "$DIR/metrics.json"

# Unknown or out-of-place options must be rejected with exit code 2.
expect_rc 2 "$TMM" lint --pins 5 "$DIR/block.dsn" 2> "$DIR/err1.txt"
expect_rc 2 "$TMM" sta "$DIR/block.dsn" --bogus 2> "$DIR/err2.txt"
grep -q "not valid for subcommand" "$DIR/err1.txt"
grep -q "unknown option" "$DIR/err2.txt"

# TMM_LOG controls the startup threshold; info lines carry the
# "[tmm INFO" prefix.
TMM_LOG=info "$TMM" sta "$DIR/block.dsn" 2> "$DIR/log.txt"
grep -q "\[tmm INFO" "$DIR/log.txt"

# --- Parallel STA: --threads / TMM_THREADS (docs/PERFORMANCE.md) ------------

# Multi-threaded analysis must print byte-identical reports.
"$TMM" sta "$DIR/block.dsn" --threads 1 > "$DIR/sta_t1.txt"
"$TMM" sta "$DIR/block.dsn" --threads 4 > "$DIR/sta_t4.txt"
cmp "$DIR/sta_t1.txt" "$DIR/sta_t4.txt"
TMM_THREADS=3 "$TMM" sta "$DIR/block.dsn" > "$DIR/sta_env.txt"
cmp "$DIR/sta_t1.txt" "$DIR/sta_env.txt"

# --threads 0 and a malformed TMM_THREADS are configuration errors.
expect_rc 2 "$TMM" sta "$DIR/block.dsn" --threads 0 2> "$DIR/errt1.txt"
grep -q "positive integer" "$DIR/errt1.txt"
expect_rc 2 env TMM_THREADS="4x" "$TMM" stats "$DIR/block.dsn" \
  2> "$DIR/errt2.txt"
grep -q "invalid TMM_THREADS" "$DIR/errt2.txt"
expect_rc 2 "$TMM" lint --threads 2 "$DIR/block.dsn" 2> "$DIR/errt3.txt"
grep -q "not valid for subcommand" "$DIR/errt3.txt"

# --- Robustness: fault injection, checkpoint/resume, exit codes -------------

# The fault-site registry must be non-empty and include the flow hooks.
"$TMM" fault-sites > "$DIR/sites.txt"
grep -q "flow.train_design" "$DIR/sites.txt"
grep -q "util.atomic_write" "$DIR/sites.txt"

# A malformed TMM_FAULT spec is a configuration error: exit code 2.
expect_rc 2 env TMM_FAULT="no.such.site:1" "$TMM" stats "$DIR/block.dsn" \
  2> "$DIR/err3.txt"
grep -q "unregistered site" "$DIR/err3.txt"

# End-to-end checkpointed flow; rerunning against the same directory
# must resume from the per-design results rather than recompute.
"$TMM" flow "$DIR/run" "$DIR/t1.dsn" "$DIR/t2.dsn" > "$DIR/flow1.txt"
test -s "$DIR/run/model.gnn"
test -s "$DIR/run/out/t1.macro"
test -s "$DIR/run/results/t2.res"
"$TMM" --resume "$DIR/run" flow "$DIR/t1.dsn" "$DIR/t2.dsn" > "$DIR/flow2.txt"
grep -q "(resumed)" "$DIR/flow2.txt"
# No torn temp files may survive a completed run.
[ "$(find "$DIR/run" -name '*.tmp.*' | wc -l)" -eq 0 ]

# A design failure mid-flow degrades the run: exit code 3, with the
# failed design named in the summary and counted in the metrics JSON.
expect_rc 3 env TMM_FAULT="flow.train_design:1" "$TMM" \
  --metrics "$DIR/m3.json" flow "$DIR/run3" "$DIR/t1.dsn" "$DIR/t2.dsn" \
  > "$DIR/flow3.txt"
grep -q "FAILED" "$DIR/flow3.txt"
grep -q '"flow.designs_failed": 1' "$DIR/m3.json"

# --- Serving: pack, serve, loadgen (docs/SERVING.md) ------------------------

# pack: .macro -> .tmb (explicit --out and default extension swap).
mkdir -p "$DIR/models"
"$TMM" pack "$DIR/run/out/t1.macro" --out "$DIR/models/t1.tmb"
"$TMM" pack "$DIR/run/out/t2.macro" --out "$DIR/models/t2.tmb"
test -s "$DIR/models/t1.tmb"
"$TMM" pack "$DIR/block.macro"
test -s "$DIR/block.tmb"

# A malformed .macro is a runtime failure whose diagnostic names the
# file and line, in pack, lint and evaluate alike; a missing one is an
# [io] error.
CORPUS="$(dirname "$0")/corpus"
expect_rc 1 "$TMM" pack "$CORPUS/truncated.macro" --out "$DIR/trunc_macro.tmb" \
  2> "$DIR/err_pack.txt"
grep -q "\[parse\] .*truncated\.macro:4: expected node" "$DIR/err_pack.txt"
test ! -e "$DIR/trunc_macro.tmb"
expect_rc 1 "$TMM" lint "$CORPUS/truncated.macro" 2> "$DIR/err_lint.txt"
grep -q "truncated\.macro:4" "$DIR/err_lint.txt"
expect_rc 1 "$TMM" evaluate "$DIR/block.dsn" "$CORPUS/truncated.macro" \
  2> "$DIR/err_eval.txt"
grep -q "truncated\.macro:4" "$DIR/err_eval.txt"
expect_rc 1 "$TMM" pack "$DIR/no_such.macro" 2> "$DIR/err_missing.txt"
grep -q "\[io\] .*no_such\.macro" "$DIR/err_missing.txt"

# Serving-artifact lint: packed images and the model directory are
# clean; a truncated image is a finding (exit 3, S001); the concurrency
# self-audit dumps the lock hierarchy and must report it acyclic.
"$TMM" lint "$DIR/models/t1.tmb"
"$TMM" lint "$DIR/models"
head -c 40 "$DIR/models/t1.tmb" > "$DIR/trunc.tmb"
expect_rc 3 "$TMM" lint "$DIR/trunc.tmb" > "$DIR/lint_trunc.txt"
grep -q "S001" "$DIR/lint_trunc.txt"
"$TMM" lint --concurrency > "$DIR/lint_conc.txt"
grep -q "acyclic" "$DIR/lint_conc.txt"

# An injected pack fault is a runtime failure: exit code 1.
expect_rc 1 env TMM_FAULT="serve.pack:1" "$TMM" pack "$DIR/block.macro" \
  2> "$DIR/err4.txt"
grep -q "serve.pack" "$DIR/err4.txt"

# A corrupt .tmb fails to load: serving a directory holding only that
# file is a runtime failure (exit 1), and a missing directory is too.
mkdir -p "$DIR/badmodels"
printf 'not a tmb image' > "$DIR/badmodels/bad.tmb"
expect_rc 1 "$TMM" serve "$DIR/badmodels" --socket "$DIR/bad.sock" \
  2> /dev/null
expect_rc 1 "$TMM" serve "$DIR/no_such_dir" --socket "$DIR/bad.sock" \
  2> /dev/null

# A TCP port above 65535 is a configuration error (exit 2) on both
# sides, never a silently truncated bind or connect.
expect_rc 2 "$TMM" serve "$DIR/models" --port 65536 2> "$DIR/err_port.txt"
expect_rc 2 "$TMM" stat 70000 2> "$DIR/err_statport.txt"
grep -q "65536" "$DIR/err_port.txt"
grep -q "out of range" "$DIR/err_statport.txt"

# Full serving loop: server on a unix socket, loadgen verifying every
# response bit-identical against the offline evaluator, SIGTERM drain.
"$TMM" serve "$DIR/models" --socket "$DIR/tmm.sock" --threads 2 \
  > "$DIR/serve.txt" 2>&1 &
SRV=$!
wait_socket "$DIR/tmm.sock"
TMM_BENCH_JSON_DIR="$DIR" "$LOADGEN" --socket "$DIR/tmm.sock" \
  --model-dir "$DIR/models" --threads 4 --seconds 1 --warm-keys 4 \
  > "$DIR/loadgen.txt"

# Live introspection channel while the server is still up: one-shot
# stats/health/flight snapshots must be valid JSON with windowed fields
# (docs/OBSERVABILITY.md, "Live serving telemetry").
"$TMM" stat "$DIR/tmm.sock" > "$DIR/stat.json"
grep -q '"global"' "$DIR/stat.json"
grep -q '"10s"' "$DIR/stat.json"
grep -q '"300s"' "$DIR/stat.json"
grep -q '"p999_us"' "$DIR/stat.json"
grep -q '"cache_hit_rate"' "$DIR/stat.json"
"$TMM" stat --health "$DIR/tmm.sock" > "$DIR/health.json"
grep -q '"status": "ok"' "$DIR/health.json"
"$TMM" stat --flight "$DIR/tmm.sock" > "$DIR/flight.json"
grep -q '"records_total"' "$DIR/flight.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$DIR/stat.json" > /dev/null
  python3 -m json.tool "$DIR/health.json" > /dev/null
  python3 -m json.tool "$DIR/flight.json" > /dev/null
fi
# --health and --flight are mutually exclusive: usage error (exit 2).
expect_rc 2 "$TMM" stat --health --flight "$DIR/tmm.sock" 2> /dev/null

kill -TERM "$SRV"
expect_rc 0 wait "$SRV"               # clean drain
grep -q "drained" "$DIR/serve.txt"
[ ! -S "$DIR/tmm.sock" ]              # socket unlinked on shutdown
test -s "$DIR/BENCH_serve.json"
grep -q '"total_bit_mismatches": 0' "$DIR/BENCH_serve.json"
grep -q '"total_errors": 0' "$DIR/BENCH_serve.json"
grep -q '"git_sha"' "$DIR/BENCH_serve.json"

# In-server fault sites need a live client: an injected request-parse
# fault becomes an error response the loadgen reports (exit 1); an
# injected response-write fault aborts one connection, which the
# loadgen now rides out by reconnecting and retrying (exit 0, with the
# retry counted in its report). Either way the server survives to a
# clean exit-0 drain.
for SITE in serve.parse_request serve.write_response; do
  SOCK="$DIR/$SITE.sock"
  TMM_FAULT="$SITE:1" "$TMM" serve "$DIR/models" --socket "$SOCK" \
    --threads 1 > "$DIR/$SITE.txt" 2>&1 &
  SRVF=$!
  wait_socket "$SOCK"
  # parse_request: the error response surfaces to the client (exit 1);
  # write_response: reconnect + retry absorbs the abort (exit 0).
  if [ "$SITE" = serve.parse_request ]; then want=1; else want=0; fi
  expect_rc "$want" env TMM_BENCH_JSON_DIR="$DIR" "$LOADGEN" \
    --socket "$SOCK" --model-dir "$DIR/models" --threads 2 --seconds 1 \
    --warm-keys 2 > "$DIR/$SITE.loadgen.txt"
  if [ "$SITE" = serve.write_response ]; then
    grep -q '"response_retries": [1-9]' "$DIR/BENCH_serve.json"
  fi
  kill -TERM "$SRVF"
  expect_rc 0 wait "$SRVF"   # server survived it and drained cleanly
  # Dump-on-fault: the fire hook froze the flight recorder next to the
  # models (serve defaults --dump-dir to the model directory).
  DUMP="$DIR/models/flight.$(echo "$SITE" | tr '.' '_').json"
  test -s "$DUMP"
  grep -q '"records_total"' "$DUMP"
done

# --- Hot reload: tmm stat --reload against a live server --------------------

# A reload over the admin channel bumps the generation without a
# restart; pointing the reload at a directory holding a corrupt pack
# rolls back (reload is strict where startup is lax) and the failure is
# visible in stats while the old generation keeps serving.
mkdir -p "$DIR/rmodels"
cp "$DIR/models/t1.tmb" "$DIR/rmodels/t1.tmb"
"$TMM" serve "$DIR/rmodels" --socket "$DIR/reload.sock" --threads 2 \
  > "$DIR/serve_reload.txt" 2>&1 &
SRVR=$!
wait_socket "$DIR/reload.sock"
"$TMM" stat --health "$DIR/reload.sock" > "$DIR/rhealth1.json"
grep -q '"generation": 1' "$DIR/rhealth1.json"
"$TMM" stat --reload "$DIR/reload.sock" > "$DIR/reload1.json"
grep -q '"ok": true' "$DIR/reload1.json"
grep -q '"generation": 2' "$DIR/reload1.json"
grep -q '"swap_us"' "$DIR/reload1.json"
# Corrupt pack in the directory: reload refuses the swap...
cp "$DIR/badmodels/bad.tmb" "$DIR/rmodels/bad.tmb"
"$TMM" stat --reload "$DIR/reload.sock" > "$DIR/reload2.json"
grep -q '"ok": false' "$DIR/reload2.json"
# ...the old generation keeps serving bit-identically...
TMM_BENCH_JSON_DIR="$DIR" "$LOADGEN" --socket "$DIR/reload.sock" \
  --model-dir "$DIR/rmodels" --threads 2 --seconds 1 --warm-keys 2 \
  > "$DIR/reload.loadgen.txt"
# ...and the failure is reported on the stats channel.
"$TMM" stat "$DIR/reload.sock" > "$DIR/rstat.json"
grep -q '"reload_failures": 1' "$DIR/rstat.json"
grep -q '"max_inflight"' "$DIR/rstat.json"
# --reload is one-shot admin traffic: not combinable with --watch.
expect_rc 2 "$TMM" stat --reload --watch "$DIR/reload.sock" 2> /dev/null
# --watch rides out the drain below: the request it writes into the
# closed connection leads to a reconnect, not a SIGPIPE death.
"$TMM" stat --health --watch --interval 0.2 "$DIR/reload.sock" \
  > /dev/null 2>&1 &
WATCH=$!
sleep 0.5
kill -TERM "$SRVR"
expect_rc 0 wait "$SRVR"
grep -q "1 failed" "$DIR/serve_reload.txt"
sleep 1
kill -0 "$WATCH"
kill "$WATCH"
wait "$WATCH" || true

# Degraded startup: one corrupt model among good ones still serves, but
# the drain exits 3 so orchestrators notice.
cp "$DIR/badmodels/bad.tmb" "$DIR/models/bad.tmb"
"$TMM" serve "$DIR/models" --socket "$DIR/tmm2.sock" --threads 1 \
  > "$DIR/serve2.txt" 2>&1 &
SRV2=$!
wait_socket "$DIR/tmm2.sock"
kill -TERM "$SRV2"
expect_rc 3 wait "$SRV2"

# --- Real-circuit frontend: BLIF / structural-Verilog import ----------------
# Import an MCNC-style BLIF twice (byte-identical .dsn), lint the
# source directly, time the imported design, import a Verilog netlist,
# and run the checkpointed flow straight over the .blif.
cat > "$DIR/maj.blif" <<'EOF'
.model cli_majority
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
"$TMM" import "$DIR/maj.blif" --out "$DIR/maj.dsn"
"$TMM" import "$DIR/maj.blif" --out "$DIR/maj2.dsn"
cmp "$DIR/maj.dsn" "$DIR/maj2.dsn"
"$TMM" lint "$DIR/maj.blif"
"$TMM" stats "$DIR/maj.dsn"
"$TMM" sta "$DIR/maj.dsn"
cat > "$DIR/mux.v" <<'EOF'
module cli_mux(input d0, input d1, input sel, output y);
  wire nsel, a0, b0;
  INV_X1 u0 (.A(sel), .Y(nsel));
  NAND2_X1 u1 (.A(d0), .B(nsel), .Y(a0));
  NAND2_X1 u2 (.A(d1), .B(sel), .Y(b0));
  NAND2_X1 u3 (.A(a0), .B(b0), .Y(y));
endmodule
EOF
"$TMM" import "$DIR/mux.v" --out "$DIR/mux.dsn"
"$TMM" sta "$DIR/mux.dsn"
"$TMM" flow "$DIR/fe-flow" "$DIR/maj.blif" "$DIR/t1.dsn"
test -s "$DIR/fe-flow/out/cli_majority.macro"

# Malformed BLIF: structured parse diagnostic with file:line, exit 1.
printf '.model bad\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n' \
  > "$DIR/bad.blif"
expect_rc 1 "$TMM" import "$DIR/bad.blif" --out "$DIR/bad.dsn" \
  2> "$DIR/fe-err.txt"
grep -q "bad.blif:5" "$DIR/fe-err.txt"

echo "CLI_OK"
