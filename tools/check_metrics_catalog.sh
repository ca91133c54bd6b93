#!/usr/bin/env bash
# Drift check between a live exposition and the metric catalog in
# docs/TELEMETRY.md: every family a real run emits must be documented,
# and every documented family must show up in some provided exposition
# (unless listed in ALLOW_ABSENT below — families only exercised by
# runs the calling CI step doesn't do). Catches both failure modes of
# metric documentation: the metric nobody wrote down, and the doc row
# for a metric that quietly stopped existing.
#
# usage: check_metrics_catalog.sh EXPOSITION.prom [MORE.prom...]
#
# Doc rows may name several families at once — brace groups expand
# (`ltc_ingest_{enqueued,dropped}_total` -> two families) and label
# sets (`{shard=N}`, `{case=tracked\|admitted}`) are stripped from the
# family names. A label set that enumerates its values
# (`{op=topk\|estimate\|other}`) is also a closed list: a live series
# whose label holds any other value is undocumented. Sets with a
# placeholder (`{shard=N}`, `{kind=malformed\|...}`) stay open.
set -u

DOC="$(dirname "$0")/../docs/TELEMETRY.md"
[ -r "$DOC" ] || { echo "check_metrics_catalog: no $DOC" >&2; exit 2; }
[ $# -ge 1 ] || {
  echo "usage: check_metrics_catalog.sh EXPOSITION.prom [MORE...]" >&2
  exit 2
}

fail=0

# Families documented but not expected from the files this run checks.
# Keep this list SHRINKING: a family here is documented and real, just
# not exercised by the calling CI step's processes.
ALLOW_ABSENT="
ltc_server_requests_total
ltc_server_errors_total
ltc_server_request_duration_usec
ltc_server_connections_opened_total
ltc_server_connections_rejected_total
ltc_server_connections_open
ltc_server_connections_idle_closed_total
ltc_server_snapshot_seq
ltc_server_bytes_read_total
ltc_server_bytes_written_total
ltc_push_attempts_total
ltc_push_retries_total
ltc_push_delivered_total
ltc_push_rejected_total
ltc_agg_merges_total
ltc_agg_pushes_duplicate_total
ltc_agg_pushes_rejected_total
ltc_agg_nodes
ltc_agg_node_staleness_sec
ltc_snapshot_saves_total
ltc_snapshot_save_retries_total
ltc_snapshot_bytes
ltc_snapshot_save_duration_usec
ltc_snapshot_recovery_walkback_depth
ltc_snapshot_load_errors_total
ltc_trace_exemplar_duration_usec
ltc_store_pages_in_total
ltc_store_pages_out_total
ltc_store_page_hits_total
ltc_store_page_misses_total
ltc_store_evictions_total
ltc_store_wal_records_total
ltc_store_wal_bytes_total
ltc_store_checkpoints_total
ltc_store_fsyncs_total
ltc_store_replay_deltas_total
ltc_store_replay_torn_tails_total
ltc_store_corrupt_pages_total
ltc_store_tenants
ltc_store_frames_resident
ltc_store_frames_dirty
ltc_store_checkpoint_duration_usec
ltc_store_checkpoint_dirty_pages
"

# --- documented families: backticked ltc_* tokens in catalog rows. ----
# A catalog row is `| <families> | counter/gauge/histogram | meaning |`;
# only the first cell is mined, so prose tables (e.g. the span-name
# table) can mention metrics or tools without being counted.
doc_families=$(
  sed 's/\\|/;/g' "$DOC" \
    | awk -F'|' '$3 ~ /^[[:space:]]*(counter|gauge|histogram)[[:space:]]*$/ \
                   {print $2}' \
    | grep -oE '`ltc_[^`]+`' \
    | tr -d '`' \
    | tr -d '\\' \
    | sed -E 's/\{[^{}]*=[^{}]*\}//g' \
    | while read -r token; do
        # Expand metric-name brace groups ({a,b,c}); tokens are
        # validated first so the eval cannot run anything.
        if echo "$token" | grep -qE '^[a-z0-9_{},]+$'; then
          eval "printf '%s\n' $token"
        else
          echo "check_metrics_catalog: unexpandable doc token '$token'" >&2
          exit 3
        fi
      done \
    | sort -u
) || exit 3

# --- live families: TYPE lines across every given exposition. ---------
live_families=$(
  for file in "$@"; do
    [ -r "$file" ] || {
      echo "check_metrics_catalog: cannot read '$file'" >&2
      exit 2
    }
    grep -E '^# TYPE ltc_' "$file" | awk '{print $3}'
  done | sort -u
) || exit 2

# --- direction 1: emitted but undocumented. ---------------------------
for family in $live_families; do
  if ! echo "$doc_families" | grep -qx "$family"; then
    echo "check_metrics_catalog: '$family' is emitted but missing from" \
      "docs/TELEMETRY.md's catalog" >&2
    fail=1
  fi
done

# --- direction 2: documented but never emitted. -----------------------
for family in $doc_families; do
  echo "$ALLOW_ABSENT" | grep -qx "$family" && continue
  if ! echo "$live_families" | grep -qx "$family"; then
    echo "check_metrics_catalog: documented family '$family' appears in" \
      "no given exposition (stale doc row, or add it to ALLOW_ABSENT" \
      "with the CI step that does exercise it)" >&2
    fail=1
  fi
done

# --- direction 3: label values outside a documented closed list. ------
closed_sets=$(
  sed 's/\\|/;/g' "$DOC" \
    | awk -F'|' '$3 ~ /^[[:space:]]*(counter|gauge|histogram)[[:space:]]*$/ \
                   {print $2}' \
    | grep -oE '`ltc_[a-z0-9_]+\{[a-z_]+=[a-z0-9_;]+\}`' \
    | tr -d '`'
)
for set in $closed_sets; do
  family=${set%%\{*}
  label=${set#*\{}
  label=${label%%=*}
  values=";${set#*=}"
  values="${values%\}};"
  live_values=$(
    for file in "$@"; do
      grep -E "^${family}(_bucket|_sum|_count)?\{" "$file" \
        | grep -oE "[{,]${label}=\"[^\"]*\"" \
        | sed -E 's/^[{,][a-z_]+="(.*)"$/\1/'
    done | sort -u
  )
  for value in $live_values; do
    case "$values" in
      *";$value;"*) ;;
      *)
        echo "check_metrics_catalog: '$family' series with $label=\"$value\"" \
          "is emitted but not listed in docs/TELEMETRY.md's catalog" >&2
        fail=1
        ;;
    esac
  done
done

if [ "$fail" -eq 0 ]; then
  doc_n=$(echo "$doc_families" | grep -c .)
  live_n=$(echo "$live_families" | grep -c .)
  echo "check_metrics_catalog: OK ($live_n live families, $doc_n documented)"
fi
exit "$fail"
