#!/usr/bin/env sh
# Two-process federation demo: two b2bnode processes — separate OS
# processes wired only by a peers file and TCP on localhost, each on its
# own reactor (one epoll loop) — play the scripted Tic-Tac-Toe game to
# completion, then the deal demo. Phases:
#
#   Phase 1: plain game. Both processes must exit 0 (their own evidence
#            chains verify, the agreed game reaches Cross-wins) and print
#            identical FINAL lines (cross-process agreement).
#   Phase 2: cross _Exit()s mid-game right after its second agreed move,
#            then restarts from its write-ahead journal with a NEW port
#            and incarnation; the game must still complete identically.
#   Phase 3: session-authenticated wire (--auth on both): per-connection
#            HMAC keys negotiated at each hello, every data/ack frame
#            MAC'd and verified — across real process boundaries.
#   Phase 4: --deal — four scripted two-leg deals (§12) across two shared
#            registers: a commit, a vetoed deal whose legs all roll back,
#            and two more commits; both processes print the same FINAL.
#   Phase 5: deal crash — the initiator _Exit()s between journaling its
#            signed commit decision and replicating it (the
#            deal-decide.journaled crash point); the restart resumes the
#            deal from the write-ahead journal and must drive it to the
#            outcome the journaled decision fixed.
#
# usage: two_process_demo.sh /path/to/b2bnode
set -eu

B2BNODE="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/b2bdemo.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

run_phase() {
    phase="$1"
    crash_flags="$2"
    extra_flags="${3:-}"
    dir="$WORK/$phase"
    mkdir -p "$dir/ports"

    cat > "$dir/peers.txt" <<EOF
# party host:port (0 = resolved via the port-dir port files)
cross 127.0.0.1:0
nought 127.0.0.1:0
EOF

    # shellcheck disable=SC2086  # crash/extra flags intentionally word-split
    "$B2BNODE" --party cross --peers "$dir/peers.txt" \
        --port-dir "$dir/ports" --journal "$dir/journal" \
        $crash_flags $extra_flags \
        > "$dir/cross.log" 2>&1 &
    cross_pid=$!
    "$B2BNODE" --party nought --peers "$dir/peers.txt" \
        --port-dir "$dir/ports" --journal "$dir/journal" $extra_flags \
        > "$dir/nought.log" 2>&1 &
    nought_pid=$!

    cross_rc=0
    wait "$cross_pid" || cross_rc=$?
    if [ "$cross_rc" = 42 ]; then
        # The scripted crash. Restart from the journal; the surviving
        # nought process keeps retransmitting meanwhile.
        echo "[$phase] cross crashed as scripted, restarting from journal"
        "$B2BNODE" --party cross --peers "$dir/peers.txt" \
            --port-dir "$dir/ports" --journal "$dir/journal" $extra_flags \
            >> "$dir/cross.log" 2>&1 &
        cross_pid=$!
        cross_rc=0
        wait "$cross_pid" || cross_rc=$?
    fi
    nought_rc=0
    wait "$nought_pid" || nought_rc=$?

    if [ "$cross_rc" != 0 ] || [ "$nought_rc" != 0 ]; then
        echo "[$phase] FAIL: exit codes cross=$cross_rc nought=$nought_rc"
        sed 's/^/  cross  | /' "$dir/cross.log"
        sed 's/^/  nought | /' "$dir/nought.log"
        exit 1
    fi

    cross_final="$(grep '^FINAL ' "$dir/cross.log" | tail -n 1)"
    nought_final="$(grep '^FINAL ' "$dir/nought.log" | tail -n 1)"
    if [ -z "$cross_final" ] || [ "$cross_final" != "$nought_final" ]; then
        echo "[$phase] FAIL: FINAL lines disagree"
        echo "  cross:  $cross_final"
        echo "  nought: $nought_final"
        exit 1
    fi
    echo "[$phase] OK: $cross_final"
}

run_phase plain ""
run_phase crash "--crash-after 2"
run_phase auth "" "--auth"
run_phase deal "" "--deal"
run_phase deal_crash "--crash-after 3" "--deal"
echo "two-process demo passed"
