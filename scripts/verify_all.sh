#!/bin/bash
# One-command full verification: entry() smoke, the complete oracle
# gate (every queries() entry vs its DuckDB/fixture oracle, run in
# crash-safe chunks — Ray 2.49 intermittently dies on internal CHECKs
# in single sessions executing many hundreds of Datasets, NOTES #63),
# then the full pytest suite in per-file chunks.  Exit 0 = everything
# green.
#
#   scripts/verify_all.sh [sf_dir]        everything
#   PYTEST_ONLY=1 scripts/verify_all.sh   the pytest chunks only
set -u
cd "$(dirname "$0")/.."
SF="${1:-/root/testdata/sf0.01}"

if [ -z "${PYTEST_ONLY:-}" ]; then

echo "== entry() smoke =="
python - <<'EOF' || exit 1
import ray
ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")
import __ray_entry__ as e
out = e.entry()
import ray.data
n = out.count() if isinstance(out, ray.data.Dataset) else len(out)
assert n > 0, "entry() returned no rows"
print(f"entry(): {n} rows")
ray.shutdown()
EOF

echo "== full oracle gate (chunked) =="
python - <<'EOF' > /tmp/kgray_all_queries.txt || exit 1
import __ray_entry__ as e
print("\n".join(e.queries().keys()))
EOF
rm -f /tmp/kgray_gatechunk_*
split -l 35 /tmp/kgray_all_queries.txt /tmp/kgray_gatechunk_
rc=0
for f in /tmp/kgray_gatechunk_*; do
  xargs -a "$f" python scripts/check_queries.py "$SF"
  c=$?
  if [ $c -ne 0 ]; then
    # one retry per chunk: the known Ray-internal CHECK crash class
    xargs -a "$f" python scripts/check_queries.py "$SF"
    c=$?
    [ $c -ne 0 ] && rc=1
  fi
done
[ $rc -ne 0 ] && { echo "GATE FAILED"; exit 1; }
echo "gate green"

fi

# One pytest session over every file can die with rc 1 and no summary
# (the same Ray-internal crash class), so each chunk of test files runs
# in a fresh process after `ray stop --force`.  A chunk that ends with no
# pytest summary line runs once more; both attempts are reported, and
# the totals count the last attempt of every chunk.
step=8                                   # test files per chunk
echo "== pytest (chunks of $step files) =="
files=(tests/test_*.py)
passed=0 failed=0 skipped=0 errors=0 crashed=0
count() { grep -oE "[0-9]+ $1" <<<"$2" | grep -oE '^[0-9]+' || echo 0; }
for ((i = 0; i < ${#files[@]}; i += step)); do
  chunk=("${files[@]:i:step}")
  for attempt in 1 2; do
    ray stop --force >/dev/null 2>&1
    log=$(timeout -k 10 2400 python -m pytest "${chunk[@]}" -q \
          -p no:cacheprovider 2>&1)
    rc=$?
    summary=$(grep -E '[0-9]+ (passed|failed|skipped|errors?)\b.* in [0-9.]+s' \
              <<<"$log" | tail -1 | tr -d '=' | sed 's/^ *//; s/ *$//')
    echo "chunk $((i / step + 1)) [${chunk[0]#tests/} .. ${chunk[-1]#tests/}]" \
         "attempt $attempt: rc=$rc ${summary:-NO PYTEST SUMMARY}"
    grep -E '^(FAILED|ERROR) ' <<<"$log" | sed 's/^/    /'
    [ -n "$summary" ] && break
  done
  if [ -z "$summary" ]; then
    crashed=$((crashed + 1))
    continue
  fi
  passed=$((passed + $(count passed "$summary")))
  failed=$((failed + $(count failed "$summary")))
  skipped=$((skipped + $(count skipped "$summary")))
  errors=$((errors + $(count "errors?" "$summary")))
done
ray stop --force >/dev/null 2>&1
echo "pytest total: $passed passed, $failed failed, $skipped skipped," \
     "$errors errors, $crashed chunks with no summary after a rerun"
[ $((failed + errors + crashed)) -eq 0 ] || exit 1
echo "ALL GREEN"
