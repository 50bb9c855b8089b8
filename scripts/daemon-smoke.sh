#!/bin/sh
# daemon-smoke.sh — end-to-end gate for the cftcgd campaign daemon, run by
# `make daemon-smoke`. First checks that failpoints compile to no-ops in plain
# builds, then brings a journaled daemon up on an ephemeral port, polls the
# health and metrics planes, submits one campaign, verifies a non-empty status
# snapshot, and drains it with SIGTERM.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
daemon_pid=""
trap '[ -z "$daemon_pid" ] || kill "$daemon_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/cftcgd" ./cmd/cftcgd

# Failpoints must compile to no-ops in plain builds: the armed marker
# string appears only in binaries built with -tags faultinject.
echo "== faultinject no-op check =="
go build -o "$tmp/cftcgd_armed" -tags faultinject ./cmd/cftcgd
if grep -qa "faultinject: armed" "$tmp/cftcgd"; then
	echo "plain build carries armed failpoints"; exit 1
fi
grep -qa "faultinject: armed" "$tmp/cftcgd_armed" \
	|| { echo "armed build is missing the failpoint marker"; exit 1; }

echo "== cftcgd smoke =="
"$tmp/cftcgd" -addr 127.0.0.1:0 -journal "$tmp/journal" >"$tmp/daemon.log" 2>&1 &
daemon_pid=$!

# The daemon logs its resolved listen address; extract the ephemeral port.
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's/.*listening on //p' "$tmp/daemon.log" | head -n1)
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "cftcgd never reported its address"; cat "$tmp/daemon.log"; exit 1; }

curl -fsS "http://$addr/healthz" | grep -q ok || { echo "healthz failed"; exit 1; }
curl -fsS "http://$addr/metrics" | grep -q cftcgd_uptime_seconds || { echo "metrics failed"; exit 1; }
curl -fsS -X POST -d '{"model":"SolarPV","shards":2,"budget":"2s","seed":1}' \
	"http://$addr/api/campaigns" | grep -q '"id": 1' || { echo "submit failed"; exit 1; }

# Poll until the campaign's snapshot shows real work (it runs for 2s).
ok=""
for _ in $(seq 1 100); do
	if curl -fsS "http://$addr/api/campaigns/1" | grep -q '"execs": [1-9]'; then
		ok=1
		break
	fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "campaign never reported progress"; curl -fsS "http://$addr/api/campaigns/1"; exit 1; }
curl -fsS "http://$addr/metrics" | grep -q 'cftcg_campaign_execs_total{campaign="1"' \
	|| { echo "campaign metrics missing"; exit 1; }

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "cftcgd drain failed"; cat "$tmp/daemon.log"; exit 1; }
daemon_pid=""
grep -q drained "$tmp/daemon.log" || { echo "cftcgd did not drain"; cat "$tmp/daemon.log"; exit 1; }
ls "$tmp/journal"/*.wal >/dev/null 2>&1 || { echo "journal wrote no segments"; exit 1; }
echo "daemon-smoke: OK"
